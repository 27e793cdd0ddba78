"""Finite metric spaces: validation, balls, covering/packing and entropy integrals.

A :class:`FiniteMetricSpace` is an n-point metric space given by its full
distance matrix.  All downstream machinery (measure functionals, partition
trees, Monte Carlo labs) operates on these spaces.  Balls are closed:
``B(t, eps) = {x : d(x, t) <= eps}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TRIANGLE_TOL = 1e-9  # relative to the compared distance, absolute below 1
ENTRY_LIMIT = np.finfo(float).max / 2  # d(i, j) + d(j, i) of larger entries overflows
DISTANCE_BLOCK = 1 << 15  # output entries per pass of euclidean_distances


class MetricValidationError(ValueError):
    """An input matrix failed the metric (or PSD) axioms."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated n-point metric space.

    ``dist`` is an n x n symmetric matrix with zero diagonal that satisfies
    the triangle inequality within ``TRIANGLE_TOL * max(1, d(i, j))``.
    Instances are immutable; every operation on them is pure.

    Cover and packing counts are step functions of the scale that change
    only at pairwise distances, so the scale table, one row per segment
    ``[breaks[k], breaks[k+1])``, holds them all.  Each column is computed
    on first use and kept, read-only, on the instance, as is the stable
    argsort of each distance row (``row_order``), which every sigma
    evaluator of the space reads.
    """

    dist: np.ndarray
    diam: float

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def __post_init__(self):
        self.dist.setflags(write=False)

    @cached_property
    def breaks(self) -> np.ndarray:
        """[0, d_0, ..., d_{K-1}] over the sorted distinct positive distances."""
        iu = np.triu_indices(self.n, k=1)
        ds = np.unique(self.dist[iu])
        return _frozen(np.concatenate([[0.0], ds[ds > 0]]))

    @cached_property
    def covers(self) -> np.ndarray:
        """Greedy cover size on each segment, from one greedy permutation.

        The cover at radius r is the shortest prefix of the permutation
        whose covering radius is <= r, so its size is
        ``1 + #(insertion radii > r)``; insertion radii are distances, so
        the size is constant on each segment.
        """
        if self.n == 0:
            return _frozen(np.zeros(1, dtype=int))
        _, inserted = greedy_permutation(self)
        inserted = np.sort(inserted[1:])
        return _frozen(1 + inserted.size - np.searchsorted(inserted, self.breaks, side="right"))

    @cached_property
    def packing_intervals(self) -> tuple:
        """Each point's membership in the strict greedy packings, as intervals.

        Returns equal-length arrays (point, first, stop): point[r] is in the
        packing of segment k for ``first[r] <= k < stop[r]``, and a point is
        in no packing its intervals miss.  Intervals are ordered by point,
        then by segment.  The points are taken in index order.  An earlier
        point j blocks i on each of j's intervals from the segment
        ``searchsorted(breaks, d(i, j))`` on, the first whose separation
        reaches d(i, j); i's intervals are the gaps in the union of its
        blocked ones, found by sorting them by start and a running max of
        their stops.  A point's membership changes only a few times over all
        the segments, so the work grows as n^2 times that count, where a
        scan of every segment grows as K n^2.
        """
        m, n = self.breaks.size, self.n
        cut = np.searchsorted(self.breaks, self.dist)
        point, first, stop = (np.empty(n, dtype=np.intp) for _ in range(3))
        size = 0
        for i in range(n):
            lo = np.maximum(first[:size], cut[i].take(point[:size]))
            live = lo < stop[:size]
            lo = lo[live]
            order = lo.argsort()
            # the gaps between the blocked intervals, [0, ...) and [..., m) included
            free_lo = np.empty(lo.size + 1, dtype=np.intp)
            free_hi = np.empty_like(free_lo)
            free_lo[0], free_hi[-1] = 0, m
            np.maximum.accumulate(stop[:size][live].take(order), out=free_lo[1:])
            lo.take(order, out=free_hi[:-1])
            free = free_lo < free_hi
            end = size + np.count_nonzero(free)
            if end > point.size:
                point, first, stop = (np.resize(a, 2 * end) for a in (point, first, stop))
            point[size:end] = i
            first[size:end] = free_lo[free]
            stop[size:end] = free_hi[free]
            size = end
        return tuple(_frozen(a[:size]) for a in (point, first, stop))

    @cached_property
    def packs(self) -> np.ndarray:
        """Strict greedy packing size on each segment: a difference array over
        the :attr:`packing_intervals`."""
        _, first, stop = self.packing_intervals
        m = self.breaks.size
        steps = np.bincount(first, minlength=m + 1) - np.bincount(stop, minlength=m + 1)
        return _frozen(np.cumsum(steps[:m]))

    def row_order(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Row t is the stable argsort of ``dist[t]``: the points by distance
        from t, tied points in index order.

        Computed at the first call and kept, read-only, for every later one.
        ``sorted_rows`` is ``np.sort(dist, axis=1)``, which a caller such as
        a sigma evaluator sorts for its own use, so that finding the tied
        rows here takes no second sort: numpy's default (SIMD) argsort sorts
        every row, and only the rows with two equal distances, which alone
        can come out of it in another order than the stable one, are sorted
        again with ``kind="stable"``.
        """
        # the dataclass is frozen, so the order is kept in the instance dict,
        # as cached_property keeps the scale table's columns
        order = self.__dict__.get("_row_order")
        if order is None:
            order = np.argsort(self.dist, axis=1)
            tied = np.flatnonzero((sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1))
            if tied.size:
                order[tied] = np.argsort(self.dist[tied], axis=1, kind="stable")
            order = self.__dict__["_row_order"] = _frozen(order)
        return order

    def segment(self, radii) -> np.ndarray:
        """Index k of the segment [breaks[k], breaks[k+1]) holding each radius.

        A negative or NaN radius raises ``ValueError``.
        """
        radii = np.asarray(radii, dtype=float)
        if not np.all(radii >= 0):
            raise ValueError("lookup radius must be nonnegative")
        return np.searchsorted(self.breaks, radii, side="right") - 1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_entries(D: np.ndarray) -> None:
    # NaN fails the comparison too
    if not np.all(np.abs(D) <= ENTRY_LIMIT):
        raise MetricValidationError(
            f"matrix entries must be finite and at most {ENTRY_LIMIT:.6g} in magnitude")


def _wrap(D: np.ndarray) -> FiniteMetricSpace:
    return FiniteMetricSpace(dist=D, diam=float(D.max()) if D.shape[0] else 0.0)


def build_from_distance_matrix(matrix) -> FiniteMetricSpace:
    """Validate a raw square matrix and wrap it as a metric space.

    Raises :class:`MetricValidationError` naming the offending entry or
    triple on asymmetry, negative entries, a nonzero diagonal or a triangle
    violation beyond ``TRIANGLE_TOL * max(1, d(i, j))``, and on entries that
    are not finite or exceed ``ENTRY_LIMIT``.  The tolerance scales with the
    compared distance because rounding does: at 1e150 one rounding of a
    collinear triple's distances is far above any absolute tolerance.
    """
    D = np.array(matrix, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise MetricValidationError(f"matrix must be square, got shape {D.shape}")
    _check_entries(D)
    n = D.shape[0]
    diag = np.flatnonzero(np.abs(np.diag(D)) > 1e-12)
    if diag.size:
        i = int(diag[0])
        raise MetricValidationError(f"nonzero diagonal at ({i}, {i}): {D[i, i]}")
    bad = np.argwhere(np.abs(D - D.T) > 1e-12)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise MetricValidationError(f"asymmetric at ({min(i, j)},{max(i, j)})")
    neg = np.argwhere(D < 0)
    if neg.size:
        i, j = (int(v) for v in neg[0])
        raise MetricValidationError(f"negative entry at ({i},{j}): {D[i, j]}")
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    # triangle: d(i,j) <= d(i,k) + d(k,j) for every intermediate k
    tol = TRIANGLE_TOL * np.maximum(D, 1.0)
    bound = np.empty_like(D)  # d(i, k) + d(k, j) + tol, one k at a time
    viol = np.empty(D.shape, dtype=bool)
    for k in range(n):
        np.add(D[:, k, None], D[k], out=bound)
        bound += tol
        if np.greater(D, bound, out=viol).any():
            i, j = (int(v) for v in np.argwhere(viol)[0])
            raise MetricValidationError(f"triangle violated ({i},{j}) via {k}")
    return _wrap(D)


def build_from_covariance(cov) -> FiniteMetricSpace:
    """Metric space with the canonical distance of a centered Gaussian vector.

    ``dist[i, j] = sqrt(cov[i, i] + cov[j, j] - 2 cov[i, j])``.  The input
    must be symmetric and PSD within ``1e-8 * ||cov||``; tiny negative
    radicands produced by round-off are clamped to zero.
    """
    C = np.array(cov, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise MetricValidationError(f"covariance must be square, got shape {C.shape}")
    _check_entries(C)  # a NaN passes the symmetry check and fails the eigensolver
    scale = float(np.abs(C).max()) if C.size else 0.0
    if np.abs(C - C.T).max(initial=0.0) > 1e-8 * max(1.0, scale):
        raise MetricValidationError("covariance must be symmetric")
    C = (C + C.T) / 2.0
    if C.shape[0] > 0:
        lam = float(np.linalg.eigvalsh(C)[0])
        if lam < -1e-8 * max(1.0, scale):
            raise MetricValidationError(f"covariance not PSD: smallest eigenvalue {lam}")
    var = np.diag(C)
    sq = var[:, None] + var[None, :] - 2.0 * C
    if sq.size and sq.min() < -1e-8 * max(1.0, scale):
        raise MetricValidationError(f"negative squared distance {sq.min()} beyond tolerance")
    D = np.sqrt(np.clip(sq, 0.0, None))
    np.fill_diagonal(D, 0.0)
    # C is exactly symmetric, so D is too, with a zero diagonal; the canonical
    # distance is an L2 norm distance, so the triangle holds
    _check_entries(D)
    return _wrap(D)


def build_from_points(points) -> FiniteMetricSpace:
    """Euclidean metric space on a list of equally-sized real vectors."""
    P = np.atleast_2d(np.array(points, dtype=float))
    if P.ndim != 2:
        raise MetricValidationError("points must form a 2-d array")
    D = euclidean_distances(P, P)
    # (a - b)**2 == (b - a)**2, so D is exactly symmetric with a zero
    # diagonal, and Euclidean distances satisfy the triangle inequality
    _check_entries(D)
    return _wrap(D)


def euclidean_distances(A, B) -> np.ndarray:
    """Matrix of Euclidean distances between the rows of ``A`` and of ``B``.

    Each entry sums the squared coordinate differences one coordinate at a
    time, in order, and then takes the square root: the arithmetic of
    scipy's Euclidean ``cdist``, so the two agree bit for bit.  Rows
    of the output are filled a block at a time through one reused buffer
    of about ``DISTANCE_BLOCK`` entries, so the working memory is the
    output plus that buffer.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"need two 2-d arrays of equal width, got {A.shape} and {B.shape}")
    out = np.zeros((A.shape[0], B.shape[0]))
    Bt = B.T.copy()  # coordinate j of every B row, contiguous
    step = max(1, DISTANCE_BLOCK // max(B.shape[0], 1))
    buf = np.empty((min(step, A.shape[0]), B.shape[0]))
    for lo in range(0, A.shape[0], step):
        rows = out[lo:lo + step]
        diff = buf[:rows.shape[0]]
        for a_j, b_j in zip(A[lo:lo + step].T, Bt):
            np.subtract(a_j[:, None], b_j, out=diff)
            np.multiply(diff, diff, out=diff)
            rows += diff
    return np.sqrt(out, out=out)


# ---------------------------------------------------------------------------
# covering / packing


def greedy_permutation(space: FiniteMetricSpace):
    """Farthest-point order and insertion radii.

    ``order[0] = 0``; ``radii[i]`` is the distance of ``order[i]`` to the
    previously chosen centers (``radii[0] = inf``).  Ties break to the lowest
    index, so the permutation is deterministic.  The greedy cover at radius
    eps is exactly the shortest prefix whose covering radius is <= eps.
    """
    D = space.dist
    n = space.n
    order = np.empty(n, dtype=int)
    radii = np.empty(n)
    order[0] = 0
    radii[0] = np.inf
    mind = D[0].copy()
    for i in range(1, n):
        j = int(np.argmax(mind))
        order[i] = j
        radii[i] = mind[j]
        np.minimum(mind, D[j], out=mind)
    return order, radii


def cover_sizes(space: FiniteMetricSpace, radii) -> np.ndarray:
    """Greedy cover size at each radius, read from the scale table.

    Returns an int array shaped like ``radii``; a negative or NaN radius raises
    ``ValueError``.
    """
    return space.covers[space.segment(radii)]


def greedy_packing(space: FiniteMetricSpace, separation: float) -> list[int]:
    """Greedy maximal packing at one separation: the points, taken in index
    order, kept when no kept point lies within ``separation`` of them, read
    from the :attr:`~FiniteMetricSpace.packing_intervals` at
    ``segment(separation)``.  The kept points are pairwise at distance
    ``> separation``; a negative or NaN separation raises ``ValueError``."""
    k = space.segment(separation)
    point, first, stop = space.packing_intervals
    return point[(first <= k) & (k < stop)].tolist()


def covering_table(space: FiniteMetricSpace, radii) -> dict[str, np.ndarray]:
    """Greedy cover (upper bound) and packing (lower bound) at each radius.

    Returns the columns ``radius``, ``greedy_cover_size``, ``packing_size``,
    ``lower_bound`` and ``upper_bound``, one entry per radius.  The bounds
    bracket the exact covering number: ``lower_bound`` is the packing at
    separation ``2*radius``, since points pairwise further than ``2*radius``
    apart cannot share one closed ball, and ``upper_bound`` is the greedy
    cover size (the same array as ``greedy_cover_size``).  Every count is a
    lookup in the space's scale table.  Radius 0 counts the distinct points;
    a negative or NaN radius raises ``ValueError``.
    """
    radii = np.array(radii, dtype=float)
    k = space.segment(radii)
    covers = space.covers[k]
    return {"radius": radii, "greedy_cover_size": covers, "packing_size": space.packs[k],
            "lower_bound": space.packs[space.segment(2.0 * radii)], "upper_bound": covers}


def covering_number(space: FiniteMetricSpace, radius: float) -> dict:
    """:func:`covering_table` at one radius, as one row of Python scalars."""
    return {name: column[0].item() for name, column in covering_table(space, [radius]).items()}


# ---------------------------------------------------------------------------
# entropy integrals


def sqrt_log2(counts) -> np.ndarray:
    """sqrt(log2 m) for each count m, and 0 where m <= 1."""
    return np.sqrt(np.log2(np.maximum(counts, 1)))


def entropy_integral(space: FiniteMetricSpace, delta: float) -> float:
    """Exact integral of sqrt(log2 N^(eps)) over (0, min(delta, diam)].

    N^ is the greedy cover size, a step function of eps evaluated between
    every pair of consecutive distinct distances, so the integral is a
    finite sum, added segment by segment from eps = 0 up.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    starts = space.breaks
    hi = min(delta, space.diam) if space.diam > 0 else 0.0
    lengths = np.minimum(np.append(starts[1:], np.inf), hi) - starts
    terms = np.maximum(lengths, 0.0) * sqrt_log2(space.covers)
    return float(np.cumsum(terms)[-1])  # cumsum adds strictly left to right


def modulus_entropy_diagnostic(space: FiniteMetricSpace) -> dict[str, np.ndarray]:
    """Columns ``delta`` and ``delta_sqrt_log_cover`` = delta * sqrt(log2 N^(delta-))
    over the distinct distances.

    N^(delta-) is the greedy cover size just below delta, so the row at the
    diameter reports the last nontrivial scale.  Empty columns for singleton
    spaces.
    """
    deltas = space.breaks[1:]
    return {"delta": deltas, "delta_sqrt_log_cover": deltas * sqrt_log2(space.covers[:-1])}
