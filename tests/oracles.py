"""Independent brute-force oracles used by unit and acceptance tests.

The 3-point space {0, 1, 3} on the line is small enough for exhaustive
simplex grid search with hand-derived closed forms: for weights
(w0, w1, w2) the one-point integrals are piecewise sums over the distance
gaps seen from each point.  The sequential greedy scans at the end, one
separation or radius at a time, are the references for the batched cover
and packing kernels of ``metric_core``, and ``SigmaReference``, one distance
row at a time, is the reference for the dense ``SigmaEvaluator``.
"""

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
            term = np.where((gaps > 0) & (p < 1.0 - 1e-15), gaps * self.ev._fprime(p), 0.0)
            suffix = np.cumsum(term[::-1])[::-1]
            J[t] = suffix[rank]
        return J
