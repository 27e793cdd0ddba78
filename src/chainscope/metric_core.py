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
    on first use and kept, read-only, on the instance.
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
    def packs(self) -> np.ndarray:
        """Strict greedy packing size on each segment, from one :func:`packings` scan."""
        return _frozen(packings(self, self.breaks).sum(axis=1))

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
    for k in range(n):
        viol = D > D[:, [k]] + D[[k], :] + tol
        if viol.any():
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


def packings(space: FiniteMetricSpace, separations) -> np.ndarray:
    """Greedy maximal packings at several separations, scanned in index order.

    Row r of the returned (separations x n) boolean matrix marks the points
    kept at ``separations[r]``, pairwise at distance ``> separation``.  One
    scan over the points serves every row: point i is kept in each row
    where no earlier kept point blocks it, and then blocks, in those rows,
    each later point j with ``dist[j, i] <= separation``.  Those are the
    comparisons an independent scan per separation makes, on the same
    entries, so every row equals that scan's packing.  Column i is final
    once the scan reaches i, so the kept points are the never-blocked ones.
    """
    seps = np.asarray(separations, dtype=float).reshape(-1, 1)
    blocked = np.zeros((seps.shape[0], space.n), dtype=bool)
    for i in range(space.n):
        rows = np.flatnonzero(~blocked[:, i])
        blocked[rows, i + 1:] |= ~(space.dist[i + 1:, i] > seps[rows])
    return ~blocked


def greedy_packing(space: FiniteMetricSpace, separation: float) -> list[int]:
    """Greedy maximal packing at one separation; see :func:`packings`."""
    return np.flatnonzero(packings(space, [separation])[0]).tolist()


@dataclass(frozen=True)
class CoveringReport:
    """Certified sandwich around the covering number N(T, d, radius)."""

    radius: float
    greedy_cover_size: int
    packing_size: int
    certified_bounds: tuple


def covering_table(space: FiniteMetricSpace, radii) -> list[CoveringReport]:
    """Greedy cover (upper bound) and packing (lower bound) at each radius.

    ``certified_bounds = (packing at separation 2*radius, greedy cover size)``
    brackets the exact covering number: points pairwise further than
    ``2*radius`` apart cannot share one closed ball.  Every count is a
    lookup in the space's scale table.
    """
    radii = np.array(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radius must be positive")
    k, k2 = space.segment(radii), space.segment(2.0 * radii)
    return [CoveringReport(radius=r, greedy_cover_size=upper, packing_size=packing,
                           certified_bounds=(lower, upper))
            for r, upper, packing, lower in zip(radii.tolist(), space.covers[k].tolist(),
                                                space.packs[k].tolist(),
                                                space.packs[k2].tolist())]


def covering_number(space: FiniteMetricSpace, radius: float) -> CoveringReport:
    """:func:`covering_table` at one radius."""
    return covering_table(space, [radius])[0]


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


def modulus_entropy_diagnostic(space: FiniteMetricSpace):
    """Table of (delta, delta * sqrt(log2 N^(delta-))) over distinct distances.

    N^(delta-) is the greedy cover size just below delta, so the row at the
    diameter reports the last nontrivial scale.  An empty table for
    singleton spaces.
    """
    deltas = space.breaks[1:]
    return list(zip(deltas.tolist(), (deltas * sqrt_log2(space.covers[:-1])).tolist()))
