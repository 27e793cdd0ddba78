"""Finite metric spaces: validation, balls, covering/packing and entropy integrals.

A :class:`FiniteMetricSpace` is an n-point metric space given by its full
distance matrix.  All downstream machinery (measure functionals, partition
trees, Monte Carlo labs) operates on these spaces.  Balls are closed:
``B(t, eps) = {x : d(x, t) <= eps}``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

TRIANGLE_TOL = 1e-9
EXACT_COVER_MAX_N = 12


class MetricValidationError(ValueError):
    """An input matrix failed the metric (or PSD) axioms."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated n-point metric space.

    ``dist`` is an n x n symmetric matrix with zero diagonal that satisfies
    the triangle inequality within :data:`TRIANGLE_TOL`.  Instances are
    immutable; every operation on them is pure.
    """

    dist: np.ndarray
    diam: float

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def __post_init__(self):
        self.dist.setflags(write=False)

    def ball_members(self, t: int, radius: float) -> np.ndarray:
        """Indices of the closed ball around point ``t``."""
        return np.flatnonzero(self.dist[t] <= radius)

    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct positive pairwise distances."""
        if self.n < 2:
            return np.empty(0)
        iu = np.triu_indices(self.n, k=1)
        vals = np.unique(self.dist[iu])
        return vals[vals > 0]


def build_from_distance_matrix(matrix, *, _check_triangle: bool = True) -> FiniteMetricSpace:
    """Validate a raw square matrix and wrap it as a metric space.

    Raises :class:`MetricValidationError` naming the offending entry or
    triple on asymmetry, negative entries, a nonzero diagonal or a triangle
    violation beyond ``TRIANGLE_TOL``.
    """
    D = np.array(matrix, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise MetricValidationError(f"matrix must be square, got shape {D.shape}")
    if not np.all(np.isfinite(D)):
        raise MetricValidationError("matrix entries must be finite")
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
    if _check_triangle:
        # triangle: d(i,j) <= d(i,k) + d(k,j) for every intermediate k
        for k in range(n):
            viol = D > D[:, [k]] + D[[k], :] + TRIANGLE_TOL
            if viol.any():
                i, j = (int(v) for v in np.argwhere(viol)[0])
                raise MetricValidationError(f"triangle violated ({i},{j}) via {k}")
    return FiniteMetricSpace(dist=D, diam=float(D.max()) if n else 0.0)


def build_from_covariance(cov) -> FiniteMetricSpace:
    """Metric space with the canonical distance of a centered Gaussian vector.

    ``dist[i, j] = sqrt(cov[i, i] + cov[j, j] - 2 cov[i, j])``.  The input
    must be symmetric and PSD within ``1e-8 * ||cov||``; tiny negative
    radicands produced by round-off are clamped to zero.
    """
    C = np.array(cov, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise MetricValidationError(f"covariance must be square, got shape {C.shape}")
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
    # the canonical distance is an L2 norm distance, so the triangle holds
    return build_from_distance_matrix(D, _check_triangle=False)


def build_from_points(points) -> FiniteMetricSpace:
    """Euclidean metric space on a list of equally-sized real vectors."""
    P = np.atleast_2d(np.array(points, dtype=float))
    if P.ndim != 2:
        raise MetricValidationError("points must form a 2-d array")
    D = cdist(P, P)
    # Euclidean distances satisfy the triangle inequality by construction
    return build_from_distance_matrix(D, _check_triangle=False)


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
    """Greedy cover size at each radius, from one greedy permutation.

    The cover at radius r is the shortest prefix of the permutation whose
    covering radius is <= r, so its size is ``1 + #(insertion radii > r)``,
    read for every radius at once with ``searchsorted`` on the sorted
    insertion radii.  Returns an int array shaped like ``radii``.
    """
    radii = np.asarray(radii, dtype=float)
    if space.n <= 1:
        return np.full(radii.shape, space.n, dtype=int)
    _, inserted = greedy_permutation(space)
    inserted = np.sort(inserted[1:])
    return 1 + inserted.size - np.searchsorted(inserted, radii, side="right")


def greedy_cover_size(space: FiniteMetricSpace, radius: float) -> int:
    return int(cover_sizes(space, [radius])[0])


def packings(space: FiniteMetricSpace, separations, strict: bool = True) -> np.ndarray:
    """Greedy maximal packings at several separations, scanned in index order.

    Row r of the returned (separations x n) boolean matrix marks the points
    kept at ``separations[r]``: ``strict`` keeps points at pairwise distance
    ``> separation``, otherwise ``>= separation`` (the Sudakov convention).
    One scan over the points serves every row: point i is kept in each row
    where no kept point blocks it, and then blocks, in those rows, each later
    point j that fails the comparison on ``dist[j, i]``.  Those are the
    comparisons an independent scan per separation makes, on the same
    entries, so every row equals that scan's packing.
    """
    seps = np.asarray(separations, dtype=float).reshape(-1, 1)
    keep = np.zeros((seps.shape[0], space.n), dtype=bool)
    blocked = np.zeros_like(keep)
    for i in range(space.n):
        rows = np.flatnonzero(~blocked[:, i])
        keep[rows, i] = True
        later = space.dist[i + 1:, i]
        apart = later > seps[rows] if strict else later >= seps[rows]
        blocked[rows, i + 1:] |= ~apart
    return keep


def greedy_packing(space: FiniteMetricSpace, separation: float, strict: bool = True) -> list[int]:
    """Greedy maximal packing at one separation; see :func:`packings`."""
    return np.flatnonzero(packings(space, [separation], strict)[0]).tolist()


def exact_covering_number(space: FiniteMetricSpace, radius: float) -> int:
    """Exhaustive minimal set cover; only feasible for n <= EXACT_COVER_MAX_N."""
    n = space.n
    if n > EXACT_COVER_MAX_N:
        raise ValueError(f"exact cover limited to n <= {EXACT_COVER_MAX_N}")
    if n == 0:
        return 0
    masks = []
    for t in range(n):
        m = 0
        for x in space.ball_members(t, radius):
            m |= 1 << int(x)
        masks.append(m)
    full = (1 << n) - 1
    lo = len(greedy_packing(space, 2.0 * radius, strict=True))
    hi = greedy_cover_size(space, radius)
    for k in range(max(lo, 1), hi + 1):
        for combo in itertools.combinations(range(n), k):
            acc = 0
            for t in combo:
                acc |= masks[t]
            if acc == full:
                return k
    return hi


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
    ``2*radius`` apart cannot share one closed ball.  One :func:`cover_sizes`
    call and one :func:`packings` call over ``[radii, 2*radii]`` serve the
    whole table.
    """
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radius must be positive")
    uppers = cover_sizes(space, radii).tolist()
    packed = packings(space, radii + [2.0 * r for r in radii], strict=True).sum(axis=1).tolist()
    k = len(radii)
    return [CoveringReport(radius=r, greedy_cover_size=upper, packing_size=packing,
                           certified_bounds=(lower, upper))
            for r, upper, packing, lower in zip(radii, uppers, packed[:k], packed[k:])]


def covering_number(space: FiniteMetricSpace, radius: float) -> CoveringReport:
    """:func:`covering_table` at one radius."""
    return covering_table(space, [radius])[0]


# ---------------------------------------------------------------------------
# entropy integrals


def _segment_table(space: FiniteMetricSpace):
    """Breakpoints of eps -> greedy cover size.

    Returns (starts, sizes): the cover size equals sizes[i] on
    [starts[i], starts[i+1]) with starts[0] = 0.
    """
    if space.n <= 1:
        return np.array([0.0]), np.array([space.n], dtype=int)
    ds = space.distinct_distances()
    if ds.size == 0:
        return np.array([0.0]), cover_sizes(space, [0.0])
    return np.concatenate([[0.0], ds]), cover_sizes(space, np.concatenate([[ds[0] / 2.0], ds]))


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
    starts, sizes = _segment_table(space)
    hi = min(delta, space.diam) if space.diam > 0 else 0.0
    lengths = np.minimum(np.append(starts[1:], np.inf), hi) - starts
    terms = np.maximum(lengths, 0.0) * sqrt_log2(sizes)
    return float(np.cumsum(terms)[-1])  # cumsum adds strictly left to right


def modulus_entropy_diagnostic(space: FiniteMetricSpace):
    """Table of (delta, delta * sqrt(log2 N^(delta-))) over distinct distances.

    N^(delta-) is the greedy cover size just below delta, so the row at the
    diameter reports the last nontrivial scale.  An empty table for
    singleton spaces.
    """
    starts, sizes = _segment_table(space)
    deltas = starts[1:]
    return list(zip(deltas.tolist(), (deltas * sqrt_log2(sizes[:-1])).tolist()))
