"""Independent brute-force oracles used by unit and acceptance tests.

The 3-point space {0, 1, 3} on the line is small enough for exhaustive
simplex grid search with hand-derived closed forms: for weights
(w0, w1, w2) the one-point integrals are piecewise sums over the distance
gaps seen from each point.  The sequential greedy scans at the end, one
separation or radius at a time, are the references for the cover sizes
and the packing intervals of ``metric_core``, ``SigmaReference``, one distance
row at a time, is the reference for the dense ``SigmaEvaluator``;
``sigma_profile_reference``, ``jacobian_reference`` and
``nu_average_reference``, the dense kernels as first written (boolean
gathers and a ``put_along_axis`` scatter), are its bit-for-bit references;
``search_reference``, an exact-objective ascent and a separate annealed
soft-extremum loop, is the reference for the one mirror-ascent loop of
``search``, and ``supremum_report_reference``, one self search per
truncation, for the one batch of them in ``gaussian_lab.supremum_report``.
``modulus_reference``, a fancy-indexed (shard x pairs) block per shard, is
the reference for the streamed pair reduction of
``gaussian_lab.estimate_modulus``; both it and
``common_sample_oracle_reference``, the reference for the F oracle of
``partition``, form paths sample by sample in rows, independently of the
coordinates-by-samples layout of ``gaussian_lab.sample_paths``.
``build_partition_reference``, which
rescores every remaining candidate's probe ball after each carve, is the
reference for the carried-score carving of ``partition.build_partition``.
``entropy_integral_reference``, ``modulus_entropy_diagnostic_reference``
and ``sudakov_bound_reference``, one distinct distance at a time and
built only from the sequential scans ``cover_size_reference`` and
``greedy_packing_reference``, are the references for the scale-table
forms in ``metric_core`` and ``gaussian_lab``.  ``dump_json_reference``,
the standard library's indent-2 encoder over a separate conversion walk,
and ``csv_reference``, a ``csv.DictWriter`` fed one converted value at a
time, are the byte references for the column-wise writers of ``io``.
``snap_to_net_reference``, one ``cdist`` row over all centers per unsnapped row, is
the reference for the incremental net snapping of ``ellipsoid``.
``exact_covering_number``, an exhaustive set cover for n <=
``EXACT_COVER_MAX_N``, is the truth the certified covering sandwich of
``metric_core.covering_table`` must contain.  ``ENVELOPE_SCHEMA``, a
Draft-7 JSON Schema run by jsonschema in ``envelope_is_valid_reference``,
is the reference for the plain report-envelope check
``cli.validate_envelope``.
"""

import csv
import io
import itertools
import json
import math
import warnings

import numpy as np


def _f_gaussian(p):
    out = np.full_like(p, np.inf)
    pos = p > 0
    out[pos] = np.sqrt(np.maximum(np.log2(1.0 / p[pos]), 0.0))
    return out


def _f_young2(p):
    out = np.full_like(p, np.inf)
    pos = p > 0
    out[pos] = np.sqrt(np.log2(1.0 + 1.0 / p[pos]))
    return out


def simplex_grid(resolution):
    """All weight triples on the grid {i/k} of the 2-simplex."""
    k = int(round(1.0 / resolution))
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = (i + j) <= k
    w0 = i[keep] / k
    w1 = j[keep] / k
    return np.column_stack([w0, w1, 1.0 - w0 - w1])


def profile_013(W, f):
    """sigma profile columns for the collinear space {0, 1, 3}, delta = diam.

    Point 1 sees its farthest neighbor at distance 2, so the integrand runs
    at full mass over [2, 3]; that tail matters in young-inverse mode where
    f(1) = 1 rather than 0.
    """
    w0, w1, w2 = W[:, 0], W[:, 1], W[:, 2]
    full = f(np.ones(W.shape[0]))
    s0 = 1.0 * f(w0) + 2.0 * f(w0 + w1)
    s1 = 1.0 * f(w1) + 1.0 * f(w0 + w1) + 1.0 * full
    s2 = 2.0 * f(w2) + 1.0 * f(w1 + w2)
    return np.column_stack([s0, s1, s2])


def sup_self_oracle_013(resolution=1e-3):
    W = simplex_grid(resolution)
    prof = profile_013(W, _f_gaussian)
    obj = np.einsum("ij,ij->i", W, prof)
    obj[~np.isfinite(obj)] = -np.inf
    best = int(np.argmax(obj))
    return float(obj[best]), W[best]


def inf_sup_oracle_013(resolution=1e-3):
    W = simplex_grid(resolution)
    prof = profile_013(W, _f_gaussian)
    obj = prof.max(axis=1)
    best = int(np.argmin(obj))
    return float(obj[best]), W[best]


def sup_inf_oracle_013(resolution=1e-3):
    W = simplex_grid(resolution)
    prof = profile_013(W, _f_gaussian)
    obj = prof.min(axis=1)
    obj[~np.isfinite(obj)] = -np.inf
    best = int(np.argmax(obj))
    return float(obj[best]), W[best]


def balanced_oracle_013(resolution=1e-3):
    """Weights minimizing the spread of the young-inverse integrals."""
    W = simplex_grid(resolution)
    interior = np.all(W > 0, axis=1)
    W = W[interior]
    prof = profile_013(W, _f_young2)
    spread = prof.max(axis=1) - prof.min(axis=1)
    best = int(np.argmin(spread))
    return float(spread[best]), W[best]


EXACT_COVER_MAX_N = 12


def greedy_packing_reference(space, separation, strict=True):
    """Sequential index-order greedy packing at one separation.

    ``strict`` keeps points at pairwise distance ``> separation``; otherwise
    ``>= separation``.
    """
    D = space.dist
    keep = []
    for i in range(space.n):
        ds = D[i, keep] if keep else np.empty(0)
        ok = np.all(ds > separation) if strict else np.all(ds >= separation)
        if ok:
            keep.append(i)
    return keep


def cover_size_reference(space, radius):
    """Greedy cover size at one radius from a farthest-point traversal of its own.

    The traversal starts at point 0 and adds the farthest point from the
    chosen centers (lowest index on ties); the cover size is one plus the
    number of insertion distances above ``radius``.
    """
    if space.n <= 1:
        return space.n
    D = space.dist
    mind = D[0].copy()
    inserted = []
    for _ in range(1, space.n):
        j = int(np.argmax(mind))
        inserted.append(mind[j])
        np.minimum(mind, D[j], out=mind)
    return 1 + sum(1 for r in inserted if r > radius)


def exact_covering_number(space, radius):
    """Fewest closed balls of ``radius`` covering the space, by exhaustive
    search over sets of centers; only feasible for n <= EXACT_COVER_MAX_N."""
    if space.n > EXACT_COVER_MAX_N:
        raise ValueError(f"exact cover limited to n <= {EXACT_COVER_MAX_N}")
    balls = [set(np.flatnonzero(row <= radius).tolist()) for row in space.dist]
    for k in range(1, space.n + 1):
        if any(len(set().union(*centers)) == space.n
               for centers in itertools.combinations(balls, k)):
            return k
    return 0


def _fprime(ev, p):
    """The gaussian-log integrand's derivative, its p -> 1 singularity clamped."""
    if ev.mode != "gaussian-log":
        raise ValueError("the jacobian is analytic in gaussian-log mode only")
    return -1.0 / (2.0 * math.log(2.0) * p * np.maximum(ev.f(p), 1e-8))


class SigmaReference:
    """Per-point sigma evaluator, one distance row at a time.

    The reference for the dense ``measures.SigmaEvaluator``: each row is
    sorted on its own, ball masses are read at the last point of each block
    of tied distances, sigma is a 1-D ``np.dot`` of gaps and integrand
    values, the Jacobian is a per-row suffix sum over blocks, and the
    nu-averages add charged points one at a time in index order.
    """

    def __init__(self, ev):
        # borrow delta, integrand and its derivative from the evaluator
        self.ev = ev
        D = ev.space.dist
        self.rows = []
        for t in range(ev.space.n):
            order = np.argsort(D[t], kind="stable")
            sd = D[t][order]
            ends = np.flatnonzero(np.r_[sd[1:] > sd[:-1], True])
            radii = sd[ends]
            nxt = np.r_[radii[1:], np.inf]
            gaps = np.clip(np.minimum(nxt, ev.delta) - radii, 0.0, None)
            rank = np.empty(ev.space.n, dtype=int)
            start = 0
            for j, e in enumerate(ends):
                rank[order[start:e + 1]] = j
                start = e + 1
            self.rows.append((order, ends, gaps, rank))

    def _masses(self, w, t):
        order, ends, _, _ = self.rows[t]
        return np.cumsum(w[order])[ends]

    def sigma_one(self, w, t):
        p = self._masses(w, t)
        gaps = self.rows[t][2]
        live = gaps > 0
        if np.any(live & (p <= 0.0)):
            return np.inf
        vals = np.zeros_like(p)
        vals[live] = self.ev.f(p[live])
        return float(np.dot(gaps, vals))

    def profile(self, w):
        return np.array([self.sigma_one(w, t) for t in range(self.ev.space.n)])

    def nu_average(self, mu_w, nu_w):
        total = 0.0
        for t in range(self.ev.space.n):
            if nu_w[t] <= 0:
                continue
            s = self.sigma_one(mu_w, t)
            if np.isinf(s):
                return np.inf
            total += nu_w[t] * s
        return float(total)

    def m_self(self, w):
        return self.nu_average(w, w)

    def jacobian(self, w):
        n = self.ev.space.n
        J = np.zeros((n, n))
        for t in range(n):
            p = self._masses(w, t)
            _, _, gaps, rank = self.rows[t]
            term = np.where((gaps > 0) & (p < 1.0 - 1e-15), gaps * _fprime(self.ev, p), 0.0)
            suffix = np.cumsum(term[::-1])[::-1]
            J[t] = suffix[rank]
        return J


def _rows_reference(ev):
    order = np.argsort(ev.space.dist, axis=1, kind="stable")
    sd = np.take_along_axis(ev.space.dist, order, axis=1)
    nxt = np.minimum(np.c_[sd[:, 1:], np.full(ev.space.n, np.inf)], ev.delta)
    return order, np.clip(nxt - sd, 0.0, None)


def sigma_profile_reference(ev, w):
    """The dense profile as first written: boolean gathers, a fresh ``gaps
    > 0`` per call and the dead-interval ``inf`` on every call."""
    order, gaps = _rows_reference(ev)
    p = np.cumsum(w[order], axis=1)
    live = gaps > 0
    massive = live & (p > 0)
    vals = np.zeros_like(p)
    vals[massive] = ev.f(p[massive])
    out = np.matmul(gaps[:, None, :], vals[:, :, None])[:, 0, 0]
    out[np.any(live & ~massive, axis=1)] = np.inf
    return out


def jacobian_reference(ev, w):
    """The dense Jacobian as first written: suffix sums scattered back to
    point order by ``np.put_along_axis``."""
    order, gaps = _rows_reference(ev)
    p = np.cumsum(w[order], axis=1)
    moving = (gaps > 0) & (p > 0) & (p < 1.0 - 1e-15)
    term = np.zeros_like(p)
    term[moving] = gaps[moving] * _fprime(ev, p[moving])
    suffix = np.cumsum(term[:, ::-1], axis=1)[:, ::-1]
    J = np.empty_like(suffix)
    np.put_along_axis(J, order, suffix, axis=1)
    return J


def nu_average_reference(prof, nu_w):
    """Running sum of nu_w[t] * prof[t] over the charged t only."""
    charged = nu_w > 0
    if not np.any(charged):
        return 0.0
    return float(np.cumsum(nu_w[charged] * prof[charged])[-1])


# ---------------------------------------------------------------------------
# the extremal searches as two separate loops, the reference for the one
# mirror-ascent loop of ``search``


def _project(w):
    w = np.maximum(w, 1e-12)
    return w / w.sum()


def mw_ascend_reference(objective, gradient, w0, max_iter, tol, sign=1.0):
    """Backtracking multiplicative-weights ascent on an exact objective.

    Returns (w, objective, iterations, converged); convergence means the
    step size collapsed with no improving move left.
    """
    w = w0.copy()
    obj = objective(w)
    eta = 0.5
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        g = gradient(w)
        g = g - np.dot(g, w)
        norm = np.abs(g).max()
        if norm <= 1e-14:
            converged = True
            break
        g = g / norm
        improved = False
        while eta > 1e-12:
            cand = _project(w * np.exp(sign * eta * g))
            cobj = objective(cand)
            if sign * (cobj - obj) > tol * (1.0 + abs(obj)):
                w, obj = cand, cobj
                eta = min(eta * 1.5, 4.0)
                improved = True
                break
            eta *= 0.5
        if not improved:
            converged = True
            break
    return w, obj, it, converged


def soft_value_reference(prof, tau, want_min_of_max):
    if want_min_of_max:
        m = prof.max()
        return m + tau * math.log(np.sum(np.exp((prof - m) / tau)))
    m = prof.min()
    return m - tau * math.log(np.sum(np.exp(-(prof - m) / tau)))


def soft_extreme_steps_reference(ev, w0, max_iter, tol, want_min_of_max):
    """Annealed softmax/softmin steps on max_t / min_t sigma.

    The temperature halves every 50 iterations and on a stall; the profile
    is recomputed at the start of every iteration.  Returns (best_w,
    best_exact, iterations, converged), converged meaning a stop before
    ``max_iter``.
    """
    sign = -1.0 if want_min_of_max else 1.0
    w = w0.copy()
    prof = ev.profile(w)
    exact = float(prof.max() if want_min_of_max else prof.min())
    best = (w.copy(), exact)
    tau = max(0.1 * (prof.max() - prof.min()) + 1e-3, 1e-3)
    eta = 0.5
    it = 0
    while it < max_iter:
        it += 1
        if it % 50 == 0:
            tau = max(tau * 0.5, 1e-6)
        prof = ev.profile(w)
        sm = np.exp((prof - prof.max()) / tau) if want_min_of_max \
            else np.exp(-(prof - prof.min()) / tau)
        sm /= sm.sum()
        g = ev.jacobian(w).T @ sm
        g = g - np.dot(g, w)
        norm = np.abs(g).max()
        if norm <= 1e-14:
            return best[0], best[1], it, True
        g /= norm
        cur_soft = soft_value_reference(prof, tau, want_min_of_max)
        moved = False
        while eta > 1e-12:
            cand = _project(w * np.exp(sign * eta * g))
            cprof = ev.profile(cand)
            if sign * (soft_value_reference(cprof, tau, want_min_of_max) - cur_soft) > 0:
                w = cand
                cexact = float(cprof.max() if want_min_of_max else cprof.min())
                if sign * (cexact - best[1]) > tol * (1 + abs(best[1])):
                    best = (cand.copy(), cexact)
                eta = min(eta * 1.5, 4.0)
                moved = True
                break
            eta *= 0.5
        if not moved:
            eta = 0.5
            if tau <= 1e-6:
                return best[0], best[1], it, True
            tau = max(tau * 0.5, 1e-6)
    return best[0], best[1], it, False


def search_reference(problem, space, restarts, max_iter, seed, init_measures=(), tol=1e-9,
                     delta=None):
    """One of the three public searches driven by the reference loops, at
    the truncation ``delta`` (the diameter if None).

    ``problem`` is "sup_self", "inf_sup" or "sup_inf"; the initializers are
    uniform, then ``init_measures`` (for "sup_inf" followed by the balanced
    measure), then ``restarts`` Dirichlet draws.  Returns (weights,
    objective recomputed at them, total iterations, converged of the
    winning restart, one row per start: the ``duality_trace.csv`` row and
    whether that start converged).
    """
    from chainscope.measures import SigmaEvaluator
    from chainscope.search import balanced_measure

    ev = SigmaEvaluator(space, delta)
    inits = list(init_measures)
    if problem == "sup_inf":
        inits.append(balanced_measure(space).measure)
    starts = [np.full(space.n, 1.0 / space.n)]
    starts += [_project(np.array(m.weights, dtype=float)) for m in inits]
    rng = np.random.default_rng(seed)
    starts += [_project(rng.dirichlet(np.ones(space.n))) for _ in range(restarts)]
    best, total, rows = None, 0, []
    for idx, w0 in enumerate(starts):
        if problem == "sup_self":
            w, obj, it, conv = mw_ascend_reference(
                ev.m_self, lambda w: ev.m_self_grad(w, ev.profile(w)), w0, max_iter, tol)
        else:
            w, obj, it, conv = soft_extreme_steps_reference(
                ev, w0, max_iter, tol, want_min_of_max=problem == "inf_sup")
        total += it
        rows.append({"problem": problem, "restart": idx, "objective": float(obj),
                     "iterations": it, "converged": conv})
        if best is None or (obj < best[1] if problem == "inf_sup" else obj > best[1]):
            best = (w, obj, conv)
    w = best[0]
    prof = ev.profile(w)
    exact = {"sup_self": ev.m_self(w), "inf_sup": prof.max(), "sup_inf": prof.min()}
    return w, float(exact[problem]), total, best[2], rows


def balance_polish_reference(ev, w):
    """``search._balance_polish`` with scipy's finite differences taking one
    ``residual`` call per Jacobian column: Levenberg-Marquardt on the
    centered young-inverse integrals over softmax weights, restarted while
    the spread falls.  Returns (w, phi, spread)."""
    from scipy.optimize import least_squares

    from chainscope.search import _project

    def unpack(x):
        e = np.exp(x - x.max())
        return _project(e / e.sum())

    def residual(x):
        phi = ev.profile(unpack(x))
        bad = ~np.isfinite(phi)
        if bad.any():
            phi = np.where(bad, 1e6, phi)
        return phi - phi.mean()

    phi = ev.profile(w)
    spread = float(phi.max() - phi.min())
    for _ in range(4):
        sol = least_squares(residual, np.log(np.maximum(w, 1e-12)), method="lm", xtol=1e-15,
                            ftol=1e-15, gtol=1e-15, max_nfev=5000)
        cand = unpack(sol.x)
        cphi = ev.profile(cand)
        cspread = float(cphi.max() - cphi.min())
        if not (np.all(np.isfinite(cphi)) and cspread < spread):
            break
        w, phi, spread = cand, cphi, cspread
    return w, phi, spread


def supremum_report_reference(model, n_samples, seed, delta_grid, threads=1):
    """``gaussian_lab.supremum_report`` with one search per truncation c
    that a row reads, each run on its own: the grid's deltas, the
    diameter, and the doubled deltas cut at the diameter, a c beyond the
    diameter searched at that c."""
    from chainscope import search
    from chainscope.gaussian_lab import argmax_distribution, estimate_modulus, estimate_sup
    from chainscope.measures import functional_M
    from chainscope.metric_core import cover_sizes

    est = estimate_sup(model, n_samples, seed, threads)
    amd = argmax_distribution(model, n_samples, seed + 1, threads)
    space = model.space
    report = {"esup": est.mean, "esup_stderr": est.stderr, "degenerate": space.n < 2}
    if space.n < 2 or space.diam == 0:
        report.update({"m_self_muF": 0.0, "ratio": 0.0, "flag": "degenerate", "modulus": []})
        return report
    m_mu_f = functional_M(amd.measure, amd.measure)
    report.update({"m_self_muF": m_mu_f, "ratio": est.mean / m_mu_f if m_mu_f > 0 else 0.0,
                   "flag": None})
    report["mu_F"] = [float(v) for v in amd.measure.weights]
    report["tie_count"] = amd.tie_count
    delta_grid = [float(d) for d in delta_grid]
    c_grid = sorted(set(delta_grid) | {space.diam})
    needed = set(c_grid) | {min(2.0 * d, space.diam) for d in delta_grid}
    best_m_self = {c: search.maximize_M_self_per_delta(space, [c], [amd.measure], 2, 150,
                                                       seed)[0].objective
                   for c in needed}
    rows = []
    for i, (d, nhat) in enumerate(zip(delta_grid, cover_sizes(space, delta_grid).tolist())):
        mod = estimate_modulus(model, d, n_samples, seed + 2 + i, threads)
        log_n = math.sqrt(math.log2(nhat)) if nhat > 1 else 0.0
        upper = best_m_self[min(2.0 * d, space.diam)] + d * log_n
        lower = max(best_m_self[c] - c * log_n for c in c_grid)
        rows.append({"delta": d, "s_delta": mod.mean, "s_stderr": mod.stderr,
                     "cover_size": nhat, "upper_proxy": upper, "lower_expression": lower})
    report["modulus"] = rows
    return report


def modulus_reference(model, delta, n_samples, seed):
    """S(delta) from blocks of |X_s - X_t| over (rows x admissible pairs), tile by tile.

    Paths are formed sample by sample in rows, ``z @ factor.T``, one tile of
    ``gaussian_lab._tiles`` after another.  Same tile-order sums and
    empty-delta warning as ``gaussian_lab.estimate_modulus``; returns
    (value, stderr).
    """
    from chainscope.gaussian_lab import _tiles, standard_normal_block

    ii, jj = np.triu_indices(model.n, k=1)
    keep = model.space.dist[ii, jj] <= delta
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        warnings.warn("no admissible pair at this delta; modulus is trivially 0")
        return 0.0, 0.0

    s = sq = 0.0
    for start, stop in _tiles(model.n, 0, n_samples):
        x = standard_normal_block(seed, start, stop, model.n) @ model.factor.T
        # 1024 rows at a time bound the block; each row's max is the same
        m = np.concatenate([np.abs(x[r:r + 1024, ii] - x[r:r + 1024, jj]).max(axis=1)
                            for r in range(0, stop - start, 1024)])
        s += m.sum()
        sq += np.square(m).sum()
    mean = s / n_samples
    var = max(sq - n_samples * mean * mean, 0.0) / max(n_samples - 1, 1)
    return float(mean), float(math.sqrt(var / n_samples))


def common_sample_oracle_reference(model, n_samples, seed):
    """F oracle on one sample-major matrix ``z @ factor.T``: the mean and
    standard error of each sample's max over the subset's columns, as
    ``partition.common_sample_oracle`` computes them."""
    from chainscope.gaussian_lab import standard_normal_block

    x = standard_normal_block(seed, 0, n_samples, model.n) @ model.factor.T

    def oracle(subset):
        m = x[:, list(subset)].max(axis=1)
        se = float(m.std(ddof=1) / math.sqrt(len(m))) if len(m) > 1 else 0.0
        return float(m.mean()), se

    return oracle


def build_partition_reference(space, F_oracle, r=4.0):
    """Levels of cells carved by rescoring every remaining candidate after each carve.

    Same radii, depth limit and first-maximum centers as
    ``partition.build_partition``, without the cut-off warning.
    """
    from chainscope.partition import Cell, _one_center

    all_points = tuple(range(space.n))
    mean, se = F_oracle(all_points)
    root = Cell(members=all_points, center=_one_center(space, all_points) if space.n else 0,
                level=0, F_estimate=mean, F_stderr=se)
    levels = [[root]]
    if space.n <= 1:
        return levels
    ds = distinct_distances_reference(space)
    d_min = ds[0] if ds else 0.0
    if space.diam > 0 and d_min > 0:
        max_levels = int(math.ceil(math.log(space.diam / d_min, r))) + 2
    else:
        max_levels = 1
    D = space.dist
    k = 1
    while any(len(c.members) > 1 for c in levels[-1]) and k <= max_levels + 2:
        carve_r = space.diam * r ** (-k) / 2.0
        probe_r = space.diam * r ** (-k - 1) / 2.0
        new_level = []
        for parent in levels[-1]:
            remaining = list(parent.members)
            while remaining:
                scores = []
                for s in remaining:
                    probe = [u for u in remaining if D[s, u] <= probe_r]
                    scores.append(F_oracle(probe)[0])
                t_i = remaining[int(np.argmax(scores))]
                cell_members = tuple(u for u in remaining if D[t_i, u] <= carve_r)
                mean, se = F_oracle(cell_members)
                cell = Cell(members=cell_members, center=t_i, level=k,
                            F_estimate=mean, F_stderr=se)
                parent.children.append(cell)
                new_level.append(cell)
                remaining = [u for u in remaining if D[t_i, u] > carve_r]
        levels.append(new_level)
        k += 1
    return levels


def distinct_distances_reference(space):
    """Sorted distinct positive pairwise distances, one pair at a time."""
    D = space.dist
    return sorted({float(D[i, j]) for i in range(space.n) for j in range(i + 1, space.n)
                   if D[i, j] > 0})


def _segments_reference(space):
    """(start, greedy cover size) of each segment of eps -> N^(eps), from eps = 0 up.

    The cover size only changes at distances, so it is read once per
    segment, at the segment's start.
    """
    starts = [0.0] + distinct_distances_reference(space)
    return [(a, cover_size_reference(space, a)) for a in starts]


def entropy_integral_reference(space, delta):
    """Integral of sqrt(log2 N^(eps)) over (0, min(delta, diam)], one segment at a time."""
    segments = _segments_reference(space)
    hi = min(delta, space.diam) if space.diam > 0 else 0.0
    total = 0.0
    for i, (a, size) in enumerate(segments):
        b = segments[i + 1][0] if i + 1 < len(segments) else np.inf
        length = max(0.0, min(b, hi) - a)
        if length > 0 and size > 1:
            total += length * np.sqrt(np.log2(size))
    return float(total)


def modulus_entropy_diagnostic_reference(space):
    """(delta, delta * sqrt(log2 N^(delta-))) rows, one distinct distance at a time."""
    segments = _segments_reference(space)
    rows = []
    for (_, below), (d, _) in zip(segments, segments[1:]):
        rows.append((d, float(d * np.sqrt(np.log2(below))) if below > 1 else 0.0))
    return rows


def sudakov_bound_reference(space):
    """(value, (a, m)) of the first strict maximum of a * sqrt(log2 m(a)), one a at a time.

    m(a) is the index-order greedy packing at pairwise distance ``>= a``.
    """
    best = (0.0, (0.0, 1))
    for a in distinct_distances_reference(space):
        m = len(greedy_packing_reference(space, a, strict=False))
        val = a * math.sqrt(math.log2(m)) if m > 1 else 0.0
        if val > best[0]:
            best = (val, (a, m))
    return best


def to_jsonable_reference(obj):
    """The report writer's value conversion as one recursive walk: numpy
    scalars and arrays to plain values, non-finite floats to "inf", "-inf"
    and "nan"."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable_reference(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def dump_json_reference(obj):
    """The bytes ``io.dump_json`` must write: the standard library's indent-2
    encoder over ``to_jsonable_reference``, which is the byte format."""
    return json.dumps(to_jsonable_reference(obj), sort_keys=True, indent=2,
                      ensure_ascii=True, allow_nan=False) + "\n"


def csv_reference(header, rows):
    """The text ``io.write_csv`` must write: a ``csv.DictWriter`` row per dict,
    each value through ``to_jsonable_reference``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(header), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: to_jsonable_reference(row[k]) for k in header})
    return buf.getvalue()


ENVELOPE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "command", "instance", "payload", "warnings"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "command": {"type": "string", "enum": ["analyze", "bounds", "partition",
                                               "duality", "ellipsoid", "modulus"]},
        "instance": {"type": "string"},
        "payload": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}


def envelope_is_valid_reference(envelope) -> bool:
    """Whether Draft-7 validation accepts ``envelope`` under ENVELOPE_SCHEMA."""
    import jsonschema

    return jsonschema.Draft7Validator(ENVELOPE_SCHEMA).is_valid(envelope)


def snap_to_net_reference(cloud, h, chunk=2048):
    """Row-by-row greedy net: the reference for ``ellipsoid._snap_to_net``.

    Rows of each chunk within h of a center from an earlier chunk snap to
    the nearest one (one ``cdist`` matrix); every other row takes one
    ``cdist`` row over all the centers so far.
    """
    from scipy.spatial.distance import cdist

    n, dim = cloud.shape
    centers = np.empty((n, dim))
    center_counts = np.zeros(n)
    centers[0] = cloud[0]
    center_counts[0] = 1
    m = 1
    for lo in range(1, n, chunk):
        block = cloud[lo:lo + chunk]
        d = cdist(block, centers[:m])
        near = d.min(axis=1) <= h
        snap = d.argmin(axis=1)
        np.add.at(center_counts, snap[near], 1)
        for x in block[~near]:  # sequential: new centers may absorb later rows
            d2 = cdist(x[None], centers[:m])[0]
            j = int(np.argmin(d2))
            if d2[j] <= h:
                center_counts[j] += 1
            else:
                centers[m] = x
                center_counts[m] = 1
                m += 1
    return centers[:m].copy(), center_counts[:m].copy()
