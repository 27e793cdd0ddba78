"""Simplex searches for the three functional extrema and the balanced measure.

None of the three extremal problems is known to be convex, so everything
here is local search with restarts from principled initializers: the argmax
distribution mu_F for sup_mu M(mu, mu) and the balanced measure nu_F for
sup_mu inf_t.  Reported values therefore carry feasible-direction
semantics: lower bounds for the sup problems, an upper bound for the inf
problem.

All three run one mirror-ascent loop from one restart driver, which runs
every start of a search as one lane of a batch: each round evaluates the
candidates of every lane still searching in one batched profile, a lane
that accepts takes its next gradient from the ball masses of that profile,
and a lane leaves the batch when it stops.  While the batch is small a
lane's candidates are its step and the halvings of it that its
backtracking would try next, so a round does the work of several.  Lanes
keep their own sign (+1 ascends, -1 descends), step size, temperature,
iteration count and best iterate and share no arithmetic, so every lane is
bit for bit a search run alone.  The driver returns one result per group
of lanes.  The self search can run at several truncations delta at once
(``maximize_M_self_per_delta``): a group per delta, one lane per (delta,
start) of one evaluator, so a batch may mix deltas and reads its lanes'
tables from ``SigmaEvaluator.at`` once; a one-delta search reads the
evaluator's own.  The two soft searches run together (``soft_searches``):
a group per search, sup_inf's lanes at +1 and inf_sup's at -1, so a batch
may mix signs.  A batch holds at most ``LANE_BUDGET`` lanes x n^2 entries
per array, and speculative rows only up to ``SPECULATION_BUDGET``.
Iterates stay strictly positive (floor 1e-12, then renormalize) so the
objectives remain finite; the gradients are the exact derivatives of the
piecewise-linear-in-eps sigma profiles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian_lab import argmax_distribution, estimate_sup
from .measures import (YOUNG_INVERSE, ProbabilityMeasure, SigmaEvaluator, WEIGHT_FLOOR,
                       nu_average)
from .metric_core import FiniteMetricSpace

# balanced_measure: fixed-point iteration cap, first step exponent, and the
# relative spread of the integrals that counts as balanced
BALANCE_MAX_ITER = 2000
BALANCE_DAMPING = 0.5
BALANCE_TOL = 1e-8
# the three searches: relative gain a step or a new best iterate must make
SEARCH_TOL = 1e-9
# lanes x n^2 entries per batched sigma call of a search or of the
# balanced-measure polish, so that each of a batch's (lanes, n, n) arrays
# stays within 512 KB however many starts or Jacobian columns run: the 20
# lanes of bounds' default grid (5 truncations x 4 starts) fit one batch up
# to n = 57, and from n = 256 each lane is its own
LANE_BUDGET = 1 << 16
# rows x n^2 entries up to which a round of a search fills its batch with
# speculative step halvings.  One candidate evaluation (masses, profile,
# soft value; 2 cores, one BLAS thread) took 54 us at 3 rows and 68 us at
# 6 at n = 16, 81 and 123 us at n = 32, 200 and 370 us at n = 64: a row
# beyond the lanes is nearly free only in a small batch.  So a round at
# n = 16 holds up to 16 rows, at n = 32 up to 4, and from n = 64 on none
# speculates
SPECULATION_BUDGET = 1 << 12


@dataclass(frozen=True)
class OptimizationResult:
    """A search's best-found measure and its objective, and one
    (objective, iterations, converged) record per start, in start order;
    ``converged`` is the winning start's."""

    measure: ProbabilityMeasure
    objective: float
    converged: bool
    starts: list

    @property
    def iterations(self) -> int:
        return sum(it for _, it, _ in self.starts)


def _project(w: np.ndarray) -> np.ndarray:
    """Floor each weight at 1e-12 and renormalize each row (lane)."""
    w = np.maximum(w, WEIGHT_FLOOR)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


class _SelfM:
    """sup_mu M(mu, mu), followed exactly, at sign +1 on each of ``lanes``
    lanes; a step must gain SEARCH_TOL * (1 + |M|)."""

    slack = SEARCH_TOL

    def __init__(self, ev, lanes):
        self.ev, self.sign = ev, [1.0] * lanes

    def start(self, prof, lanes):
        pass

    def cool(self, lane, it, stalled):
        return not stalled  # a stall ends the search

    def value(self, prof, w, lanes):
        """Values and exact values of ``lanes`` at rows ``w`` with profiles
        ``prof``, and what ``gradient`` reuses at the same rows."""
        v = nu_average(prof, w).tolist()
        return v, v, (v,)

    def gradient(self, prof, w, masses, ev, lanes, reuse):
        """Values and gradients of ``lanes`` on the batch evaluator ``ev``;
        ``reuse`` is what ``value`` left at the same rows, or None."""
        v = nu_average(prof, w).tolist() if reuse is None else reuse[0]
        return v, ev.m_self_grad(w, prof, masses)


class _Soft:
    """min_t sigma (sign +1, ascended) or max_t sigma (sign -1, descended),
    one sign per lane: ``sign[l]`` is lane l's, the sign of its group
    (sup_inf or inf_sup), and a batch may mix them.

    Steps follow the softmin or softmax of the profile at a temperature tau,
    one per lane, that halves every 50 iterations and on a stall; any gain
    is a step.
    """

    slack = 0.0

    def __init__(self, ev, sign):
        self.ev, self.sign = ev, sign
        self.tau = {}  # lane -> temperature

    def start(self, prof, lanes):
        spread = 0.1 * (prof.max(axis=1) - prof.min(axis=1)) + 1e-3
        self.tau.update(zip(lanes, spread.tolist()))

    def cool(self, lane, it, stalled):
        if stalled and self.tau[lane] <= 1e-6:
            return False
        if stalled or it % 50 == 0:
            self.tau[lane] = max(self.tau[lane] * 0.5, 1e-6)
        return True

    def value(self, prof, w, lanes):
        # the tilt exp(sign * (m - prof) / tau), m the row's min (sign +1)
        # or max (sign -1): with q = sign * prof, min q - q is m - prof or
        # prof - m bit for bit (IEEE subtraction is antisymmetric).  The
        # per-lane scalars stay Python floats, as in a search run alone,
        # and the reductions call the ufuncs without their Python wrappers
        sign = [self.sign[lane] for lane in lanes]
        tau = [self.tau[lane] for lane in lanes]
        q = prof * np.array(sign)[:, None]
        m = np.minimum.reduce(q, axis=1)
        e = m[:, None] - q
        e /= np.array(tau)[:, None]
        np.exp(e, out=e)
        total = np.add.reduce(e, axis=1)
        m = [s * x for s, x in zip(sign, m.tolist())]
        vals = [mi - s * t * math.log(x) for mi, s, t, x in zip(m, sign, tau, total.tolist())]
        return vals, m, (vals, tau, e, total)

    def gradient(self, prof, w, masses, ev, lanes, reuse):
        # the tilt of the value, normalized, weighs the rows of J; it is
        # reused unless a lane's temperature changed since
        if reuse is None or reuse[1] != [self.tau[lane] for lane in lanes]:
            reuse = self.value(prof, w, lanes)[2]
        vals, _, e, total = reuse
        e = e / total[:, None]
        return vals, np.matmul(e[:, None, :], ev.jacobian(w, masses))[:, 0, :]


def _mirror_ascent(problem, w0, d, max_iter):
    """Multiplicative-weights local search with a backtracking step size,
    from every row of ``w0`` as one lane, lane l at the evaluator's delta
    index ``d[l]`` (at its only delta if ``d`` is None).

    Lane l steps along the gradient of ``problem.value`` (its
    ``problem.sign[l]`` +1 ascends, -1 descends) when the step moves the
    value by more than ``slack * (1 + |value|)``, halves its step size eta
    when it does not, and keeps its best iterate by the exact value up to a
    relative ``SEARCH_TOL``.  Each lane has its own sign, step size,
    iteration count, best iterate and stop, and leaves the batch when it
    stops.  Every round evaluates the candidates of each lane still
    searching in one batched profile (in runs of at most ``LANE_BUDGET //
    n^2`` lanes).  A lane's candidates are its step at eta and, lane by lane
    while the run holds fewer than ``SPECULATION_BUDGET // n^2`` rows, at
    eta/2, eta/4, ... above 1e-12, up to its depth: 2 rows at each new
    iteration, doubled after every round that accepts none of them.  The
    lane scans its rows in order, halving eta at each that falls short, so
    the first it accepts is the step a one-candidate loop would take and the
    rows past it go unused.  A lane that accepts takes the value and
    gradient of its next iteration from that profile's ball masses, and a
    stalled lane starts again from its iterate's masses.  Lanes share no
    arithmetic, so each lane's result is bit for bit that of a search run
    alone.
    Returns one (best_w, best_exact, iterations, converged) per lane;
    converged means a stop before ``max_iter``.
    """
    ev, sign, slack = problem.ev, problem.sign, problem.slack
    lanes_all, n = w0.shape
    per = max(1, LANE_BUDGET // max(n * n, 1))
    rows_max = SPECULATION_BUDGET // max(n * n, 1)
    # per lane: iterate and step direction (rows of the batch arrays they
    # came from), best iterate and value, step size, iterations, value, and
    # the rows it asks of its next round
    w, grad = list(w0), [None] * lanes_all
    best_w, best = list(w0), [0.0] * lanes_all
    eta, it, val = [0.5] * lanes_all, [0] * lanes_all, [0.0] * lanes_all
    depth = [2] * lanes_all
    out = [None] * lanes_all
    searching = []

    def batch(lanes):
        """The evaluator that ``lanes`` read: ``ev`` itself at one delta."""
        return ev if d is None else ev.at(d[lanes])

    def stop(lane, converged):
        out[lane] = (best_w[lane], best[lane], it[lane], converged)

    def begin(lanes, wl, pl, masses, bev, reuse=None):
        """Start the next iteration of ``lanes``, none at ``max_iter``, at
        rows ``wl`` with profiles ``pl`` and ``masses`` on their evaluator
        ``bev``; ``reuse`` is what their ``problem.value`` left."""
        for lane in lanes:
            it[lane] += 1
            depth[lane] = 2
            problem.cool(lane, it[lane], stalled=False)
        v, g = problem.gradient(pl, wl, masses, bev, lanes, reuse)
        # remove the direction normal to the simplex
        g -= np.matmul(g[:, None, :], wl[:, :, None])[:, 0]
        norm = np.maximum.reduce(np.abs(g), axis=1)
        if not np.minimum.reduce(norm) > 1e-14:  # a lane without ascent direction stops
            keep = []
            for i, (lane, x) in enumerate(zip(lanes, norm.tolist())):
                if x <= 1e-14:
                    stop(lane, True)
                else:
                    keep.append(i)
            if not keep:
                return
            idx = np.array(keep)
            lanes, v, g, norm = [lanes[i] for i in keep], [v[i] for i in keep], g[idx], norm[idx]
        g /= norm[:, None]
        for lane, gi, vi in zip(lanes, g, v):
            grad[lane], val[lane] = gi, vi
        searching.extend(lanes)

    for k in range(0, lanes_all, per):
        lanes = list(range(k, min(k + per, lanes_all)))
        wl, bev = w0[k:k + per], batch(slice(k, k + per))
        masses = bev.masses(wl)
        pl = bev.profile(wl, masses)
        problem.start(pl, lanes)
        _, exact, reuse = problem.value(pl, wl, lanes)
        best[k:k + per] = exact
        if max_iter > 0:
            begin(lanes, wl, pl, masses, bev, reuse)
        else:
            for lane in lanes:
                stop(lane, False)

    while searching:
        pending, searching = searching, []
        for k in range(0, len(pending), per):
            lanes = pending[k:k + per]
            # a row per lane at its step, then, while the run has rows to
            # spare, its next halvings up to its depth; grouped by lane
            rows, steps, count, spare = [], [], [], rows_max - len(lanes)
            for lane in lanes:
                x, c = eta[lane], 1
                rows.append(lane)
                steps.append(x)
                while c < depth[lane] and spare > 0 and x * 0.5 > 1e-12:
                    x *= 0.5
                    c, spare = c + 1, spare - 1
                    rows.append(lane)
                    steps.append(x)
                count.append(c)
            cand = np.array([grad[lane] for lane in rows])
            cand *= np.array([sign[lane] * x for lane, x in zip(rows, steps)])[:, None]
            np.exp(cand, out=cand)
            cand *= np.array([w[lane] for lane in rows])
            cand = _project(cand)
            bev = batch(rows)
            masses = bev.masses(cand)
            cprof = bev.profile(cand, masses)
            cval, cexact, reuse = problem.value(cprof, cand, rows)
            took, stalled, r = [], [], 0  # took: the accepted rows
            for lane, c in zip(lanes, count):
                v, s = val[lane], sign[lane]
                for i in range(r, r + c):
                    if s * (cval[i] - v) > slack * (1.0 + abs(v)):
                        w[lane] = cand[i]
                        if s * (cexact[i] - best[lane]) > SEARCH_TOL * (1.0 + abs(best[lane])):
                            best_w[lane], best[lane] = cand[i], cexact[i]
                        eta[lane] = min(eta[lane] * 1.5, 4.0)
                        if it[lane] < max_iter:
                            took.append(i)
                        else:
                            stop(lane, False)
                        break
                    eta[lane] *= 0.5  # the step of row i + 1, if the lane has one
                    if eta[lane] > 1e-12:
                        continue
                    if problem.cool(lane, it[lane], stalled=True):  # no step gained
                        eta[lane] = 0.5
                        if it[lane] < max_iter:
                            stalled.append(lane)
                        else:
                            stop(lane, False)
                    else:
                        stop(lane, True)
                    break
                else:  # every row fell short: the next round looks twice as deep
                    depth[lane] *= 2
                    searching.append(lane)
                r += c
            if took:
                if len(took) < len(rows):  # only the lanes that go on
                    idx = np.array(took)
                    lanes, cand, cprof = [rows[i] for i in took], cand[idx], cprof[idx]
                    masses = (masses[0][idx], masses[1][idx])
                    reuse = tuple(x[idx] if isinstance(x, np.ndarray) else [x[i] for i in took]
                                  for x in reuse)
                    bev = batch(lanes)
                begin(lanes, cand, cprof, masses, bev, reuse)
            if stalled:  # a stalled lane starts again from its iterate
                wl, bev = np.array([w[lane] for lane in stalled]), batch(stalled)
                masses = bev.masses(wl)
                begin(stalled, wl, bev.profile(wl, masses), masses, bev)
    return out


def _starts(n, init_measures, restarts, seed):
    """One row per start: uniform, ``init_measures``, then ``restarts``
    Dirichlet draws from ``default_rng(seed)``."""
    if n == 0:
        raise ValueError("empty space")
    rng = np.random.default_rng(seed)
    return np.array([np.full(n, 1.0 / n)]
                    + [_project(np.array(m.weights, dtype=float)) for m in init_measures]
                    + [_project(rng.dirichlet(np.ones(n))) for _ in range(restarts)])


def _best_of_restarts(problem, groups, max_iter, d=None):
    """The best ``_mirror_ascent`` result of each group of starts, in order.

    ``groups`` holds one matrix of starts per group, whose rows are the
    lanes of one ascent in group order, lane l at ``problem.sign[l]`` and
    at the evaluator's delta index ``d[l]`` (its only delta if ``d`` is
    None).  A group is a delta of the self search or one soft search."""
    out = _mirror_ascent(problem, np.concatenate(groups), d, max_iter)
    results, i = [], 0
    for g in groups:
        sign, lanes = problem.sign[i], out[i:i + len(g)]
        i += len(g)
        best = None
        for w, obj, _, conv in lanes:
            if best is None or sign * obj > sign * best[1]:
                best = (w, obj, conv)
        results.append(OptimizationResult(
            measure=ProbabilityMeasure(problem.ev.space, best[0]), objective=float(best[1]),
            converged=best[2], starts=[(float(obj), it, conv) for _, obj, it, conv in lanes]))
    return results


def maximize_M_self(space: FiniteMetricSpace, init_measures=None, restarts: int = 8,
                    max_iter: int = 300, seed: int = 0,
                    ev: SigmaEvaluator | None = None) -> OptimizationResult:
    """Best-found measure for sup_mu M(mu, mu).

    Initialized from uniform, any supplied measures (typically mu_F), and
    Dirichlet restarts; the returned objective is the exact functional at
    the returned measure.  The search at the full diameter on ``ev`` (the
    space's if None), the one-delta case of ``maximize_M_self_per_delta``.
    """
    return _self_searches(SigmaEvaluator(space) if ev is None else ev, init_measures, restarts,
                          max_iter, seed)[0]


def maximize_M_self_per_delta(space: FiniteMetricSpace, deltas, init_measures, restarts: int,
                              max_iter: int, seed: int) -> list[OptimizationResult]:
    """The best-found measure for sup_mu M(mu, mu, delta) at each of
    ``deltas``, in order, all from the same starts.

    Every (delta, start) pair is one lane of one batched ascent over one
    evaluator, a group of lanes per delta, so each result is bit for bit
    that of a search at its delta alone.
    """
    return _self_searches(SigmaEvaluator(space, deltas), init_measures, restarts, max_iter, seed)


def _self_searches(ev, init_measures, restarts, max_iter, seed):
    """``maximize_M_self_per_delta`` at the deltas of the evaluator ``ev``."""
    w0 = _starts(ev.space.n, init_measures or [], restarts, seed)
    k = len(ev.deltas)
    return _best_of_restarts(_SelfM(ev, k * len(w0)), [w0] * k, max_iter,
                             np.repeat(np.arange(k), len(w0)) if k > 1 else None)


def soft_searches(space: FiniteMetricSpace, problems, restarts: int, max_iter: int, seed: int,
                  ev: SigmaEvaluator | None = None) -> list[OptimizationResult]:
    """The best-found measure of each of ``problems``, in order: "sup_inf"
    (sup_mu inf_t M(mu, delta_t)) or "inf_sup" (inf_mu sup_t), on ``ev``.

    Each search is a group of lanes of one ascent, at sign +1 or -1, so
    each result is bit for bit that of its search alone.  Both start from
    uniform and ``restarts`` draws of ``default_rng(seed)``; sup_inf also
    from the balanced measure, whose equalized integrals keep the inner
    infimum non-degenerate, and warns and goes on without one (coincident
    points)."""
    ev = SigmaEvaluator(space) if ev is None else ev
    groups, sign = [], []
    for name in problems:
        inits = []
        if name == "sup_inf":
            try:
                inits.append(balanced_measure(space).measure)
            except ValueError as exc:
                warnings.warn(f"sup_inf search without the balanced initializer: {exc}")
        groups.append(_starts(space.n, inits, restarts, seed))
        sign += [1.0 if name == "sup_inf" else -1.0] * len(groups[-1])
    return _best_of_restarts(_Soft(ev, sign), groups, max_iter)


def minimize_sup_M(space: FiniteMetricSpace, restarts: int, max_iter: int,
                   seed: int) -> OptimizationResult:
    """Best-found measure for inf_mu sup_t M(mu, delta_t), the one-search
    case of ``soft_searches``.

    The reported objective is an upper bound for the true infimum
    (feasible-point semantics).
    """
    return soft_searches(space, ["inf_sup"], restarts, max_iter, seed)[0]


def maximize_inf_M(space: FiniteMetricSpace, restarts: int, max_iter: int,
                   seed: int) -> OptimizationResult:
    """Best-found measure for sup_mu inf_t M(mu, delta_t), the one-search
    case of ``soft_searches``."""
    return soft_searches(space, ["sup_inf"], restarts, max_iter, seed)[0]


def balanced_measure(space: FiniteMetricSpace,
                     init: ProbabilityMeasure | None = None) -> OptimizationResult:
    """The measure equalizing the young-inverse integrals over all points,
    as a one-start result whose objective is the spread max Phi - min Phi.

    The integrals use the built-in Young function phi_2(x) = 2^(x^2) - 1.

    Damped multiplicative fixed-point iteration with a line search on the
    exponent, so the spread decreases at every accepted step.  Requires all
    points distinct (coincident points force infinite integrals on one of
    them).
    """
    if space.n == 0:
        raise ValueError("empty space")
    if space.n == 1:
        return OptimizationResult(ProbabilityMeasure(space, np.ones(1)), 0.0, True,
                                  [(0.0, 0, True)])
    off = space.dist[np.triu_indices(space.n, k=1)]
    if np.any(off == 0):
        raise ValueError("balanced measure requires all points distinct")
    ev = SigmaEvaluator(space, None, YOUNG_INVERSE)
    w = init.weights.copy() if init is not None else np.full(space.n, 1.0 / space.n)
    w = _project(w)
    # the reductions call the ufuncs without their Python wrappers:
    # phi.mean() is the same sum divided by n
    n = space.n
    phi = ev.profile(w)
    spread = float(np.maximum.reduce(phi) - np.minimum.reduce(phi))
    it = 0
    converged = False
    while it < BALANCE_MAX_ITER:
        it += 1
        mean = float(np.add.reduce(phi) / n)
        if spread <= BALANCE_TOL * mean:
            converged = True
            break
        theta = BALANCE_DAMPING
        accepted = False
        while theta > 1e-7:
            cand = _project(w * (phi / mean) ** theta)
            cphi = ev.profile(cand)
            cspread = float(np.maximum.reduce(cphi) - np.minimum.reduce(cphi))
            if cspread < spread:
                w, phi, spread = cand, cphi, cspread
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            break
    if spread > 1e-13 * float(phi.mean()):
        # the damped iteration stalls near the solution; polish by least
        # squares on the centered integrals over softmax weights
        w, phi, spread = _balance_polish(ev, w)
    if spread <= BALANCE_TOL * float(phi.mean()):
        converged = True
    return OptimizationResult(ProbabilityMeasure(space, w), spread, converged,
                              [(spread, it, converged)])


def _balance_polish(ev, w):
    """Levenberg-Marquardt on the centered integrals over softmax weights,
    restarted while the spread falls: (w, phi, spread) at the best point.

    scipy's finite differences evaluate the Jacobian's columns through
    ``workers``; ``batched`` runs them as lanes of batched profiles, at
    most ``LANE_BUDGET`` entries per call, each row bit for bit
    ``residual`` of its column alone.
    """
    from scipy.optimize import least_squares

    n = ev.space.n
    per = max(1, LANE_BUDGET // (n * n))

    def unpack(x):
        e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
        return _project(e / np.add.reduce(e, axis=-1, keepdims=True))

    def residual(x):
        """The centered integrals at x, or at each row of x."""
        phi = ev.profile(unpack(x))
        bad = ~np.isfinite(phi)
        if bad.any():
            phi = np.where(bad, 1e6, phi)
        return phi - phi.mean(axis=-1, keepdims=True)

    def batched(_, xs):
        """``map(residual, xs)``, ``per`` rows at a time."""
        xs = list(xs)
        return [row for k in range(0, len(xs), per) for row in residual(np.array(xs[k:k + per]))]

    phi = ev.profile(w)
    spread = float(phi.max() - phi.min())
    for _ in range(4):  # restarting LM resets its trust region
        sol = least_squares(residual, np.log(np.maximum(w, WEIGHT_FLOOR)),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                            max_nfev=5000, workers=batched)
        cand = unpack(sol.x)
        cphi = ev.profile(cand)
        cspread = float(cphi.max() - cphi.min())
        if not (np.all(np.isfinite(cphi)) and cspread < spread):
            break
        w, phi, spread = cand, cphi, cspread
    return w, phi, spread


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class DualityReport:
    sup_self: float
    inf_sup: float
    sup_inf: float
    esup: float
    esup_stderr: float
    ratios: dict
    flags: list
    measures: dict  # problem name -> best-found weight vector
    starts: dict  # problem name -> its search's start records


def duality_report(space: FiniteMetricSpace, model=None, n_samples: int = 20000,
                   seed: int = 0, restarts: int = 8,
                   threads: int = 1) -> DualityReport:
    """All three extrema plus the Monte Carlo E sup and their pairwise
    ratios, and each search's start records.

    sup_self is re-checked against the sup_inf candidate so the assertable
    pointwise-averaging ordering (sup_inf <= sup_self) holds for the
    reported numbers by construction.
    """
    flags = []
    if space.n < 2 or space.diam == 0:
        flags.append("degenerate")
        return DualityReport(0.0, 0.0, 0.0, 0.0, 0.0, {}, flags, {}, {})
    inits = []
    esup, se = 0.0, 0.0
    if model is not None:
        est = estimate_sup(model, n_samples, seed, threads)
        esup, se = est.mean, est.stderr
        inits.append(argmax_distribution(model, n_samples, seed + 1, threads).measure)
    ev = SigmaEvaluator(space)
    sup_inf, inf_sup = soft_searches(space, ["sup_inf", "inf_sup"], restarts, 300, seed, ev)
    sup_self = maximize_M_self(space, inits + [sup_inf.measure], restarts, 300, seed, ev)
    w = sup_inf.measure.weights
    prof = ev.profile(w)
    if not (prof.min() <= nu_average(prof, w) + 1e-9):
        flags.append("averaging sandwich violated")
    if sup_inf.objective > sup_self.objective + 1e-6:
        flags.append("ordering sup_inf <= sup_self violated")
    vals = {"sup_self": sup_self.objective, "inf_sup": inf_sup.objective,
            "sup_inf": sup_inf.objective, "esup": esup}
    ratios = {}
    for a in vals:
        for b in vals:
            if a < b and vals[b] != 0:
                ratios[f"{a}/{b}"] = vals[a] / vals[b]
    return DualityReport(sup_self=sup_self.objective, inf_sup=inf_sup.objective,
                         sup_inf=sup_inf.objective, esup=esup, esup_stderr=se,
                         ratios=ratios, flags=flags,
                         measures={"sup_self": sup_self.measure.weights,
                                   "inf_sup": inf_sup.measure.weights,
                                   "sup_inf": sup_inf.measure.weights},
                         starts={"sup_inf": sup_inf.starts, "inf_sup": inf_sup.starts,
                                 "sup_self": sup_self.starts})
