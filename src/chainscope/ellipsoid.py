"""Truncated Hilbert-Schmidt ellipsoid study.

For the linear process <x, g> on the ellipsoid sum x_i^2 / t_i^2 <= 1 the
per-draw supremum has the closed form argmax x_i = g_i t_i^2 / ||gt|| with
value ||gt||.  The module samples that argmax law, snaps it onto a finite
net so the measure functionals apply, and probes the norm-gap inequality
whose universal constant is reported empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_lab import sample_estimate, standard_normal_block
from .measures import ProbabilityMeasure, functional_M
from .metric_core import FiniteMetricSpace, build_from_points, euclidean_distances


@dataclass(frozen=True)
class EllipsoidSpec:
    """Nonincreasing positive semi-axes with cached tail norms.

    ``tail_norms[i]`` is ||t(i+1)|| = sqrt(sum_{j > i} t_j^2) shifted so that
    ``tail_norms[0] = ||t||``; ``tail_sq_norms`` caches the same for the
    squared axes (the t^2(i) sequence of the small-ball bound).
    """

    semi_axes: np.ndarray
    norm_t: float
    tail_norms: np.ndarray      # tail_norms[i] = ||t(i+1)|| in 1-based speak
    tail_sq_norms: np.ndarray

    @property
    def truncation(self) -> int:
        return len(self.semi_axes)


def make_spec(semi_axes) -> EllipsoidSpec:
    t = np.array(semi_axes, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("semi_axes must be a nonempty vector")
    if np.any(t <= 0):
        raise ValueError("semi_axes must be positive")
    if np.any(np.diff(t) > 0):
        raise ValueError("semi_axes must be nonincreasing")
    with np.errstate(over="ignore", under="ignore"):
        sq_sums = np.cumsum(t[::-1] ** 2)[::-1]
        fourth_sums = np.cumsum(t[::-1] ** 4)[::-1]
    # the axes do not increase, so the last sums are the smallest square and
    # fourth power and the first are the largest sums
    sums = np.concatenate([sq_sums, fourth_sums])
    if not np.all(np.isfinite(sums) & (sums >= np.finfo(float).tiny)):
        raise ValueError("semi_axes out of range: each square and fourth power, "
                         "and their tail sums, must be finite normal floats")
    return EllipsoidSpec(semi_axes=t, norm_t=float(np.linalg.norm(t)),
                         tail_norms=np.sqrt(sq_sums), tail_sq_norms=np.sqrt(fourth_sums))


def _argmax_cloud(spec: EllipsoidSpec, n_samples: int, seed: int) -> np.ndarray:
    """Matrix of argmax samples x_i = g_i t_i^2 / ||gt||, one per row; a zero
    draw (a measure-zero event) gives the origin."""
    g = standard_normal_block(seed, 0, n_samples, spec.truncation)
    gt = g * spec.semi_axes
    norms = np.linalg.norm(gt, axis=1)
    norms[norms == 0.0] = 1.0  # measure-zero guard
    return g * spec.semi_axes ** 2 / norms[:, None]


def esup_check(spec: EllipsoidSpec, n_samples: int, seed: int):
    """MC mean of ||gt|| against ||t||; Jensen forces the ratio into (0, 1]."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    g = standard_normal_block(seed, 0, n_samples, spec.truncation)
    est = sample_estimate(np.linalg.norm(g * spec.semi_axes, axis=1))
    return {"mc_mean": est.mean, "mc_stderr": est.stderr, "norm_t": spec.norm_t,
            "closed_ratio": est.mean / spec.norm_t}


@dataclass(frozen=True)
class EmpiricalMeasure:
    points: np.ndarray
    counts: np.ndarray
    space: FiniteMetricSpace
    measure: ProbabilityMeasure


def empirical_measure(spec: EllipsoidSpec, n_samples: int, seed: int,
                      net_resolution: float | None = None) -> EmpiricalMeasure:
    """Argmax samples snapped onto a greedy Euclidean net of the cloud.

    A sample farther than h from every existing center becomes a new
    center; otherwise it snaps to the nearest one.  The resulting finite
    support plus frequencies is a measure usable by the functionals.
    """
    h = net_resolution if net_resolution is not None else 0.05 * float(spec.semi_axes[0])
    if h <= 0:
        raise ValueError("net resolution must be positive")
    centers, counts = _snap_to_net(_argmax_cloud(spec, n_samples, seed), h)
    space = build_from_points(centers)
    return EmpiricalMeasure(points=centers, counts=counts, space=space,
                            measure=ProbabilityMeasure(space, counts / counts.sum()))


SNAP_CHUNK = 2048  # rows compared with the centers of earlier chunks in one matrix


def _snap_to_net(cloud: np.ndarray, h: float):
    """Greedy net of the rows of ``cloud`` at resolution h, and its counts.

    Row 0 is the first center.  The rest go in chunks of ``SNAP_CHUNK``
    rows.  A row within h of a center from an earlier chunk snaps to the
    nearest one, read off one distance matrix, even where its own chunk
    makes a nearer center, so the counts depend on ``SNAP_CHUNK``.  The
    other rows go in order: each snaps to its nearest center if that is
    within h, and becomes a new center otherwise.  Those rows carry their
    nearest new center and its distance, updated once per new center from
    its distances to the later rows (strict ``<``, so ties keep the earlier
    center).  Every distance adds the squared differences in coordinate
    order, as ``euclidean_distances`` and scipy's ``cdist`` do.
    """
    n, dim = cloud.shape
    centers = np.empty_like(cloud)
    counts = np.zeros(n)
    centers[0] = cloud[0]
    counts[0] = 1
    m = 1
    for lo in range(1, n, SNAP_CHUNK):
        block = cloud[lo:lo + SNAP_CHUNK]
        d = euclidean_distances(block, centers[:m])
        near = d.min(axis=1) <= h
        np.add.at(counts, d.argmin(axis=1)[near], 1)
        rows = np.ascontiguousarray(block[~near].T)  # one coordinate per row
        k = rows.shape[1]
        sq = np.empty((dim, k))
        best = np.full(k, np.inf)  # nearest new center's distance so far
        owner = np.zeros(k, dtype=int)
        for r in range(k):
            if best[r] > h:  # rows[:, r] is farther than h from every center
                centers[m] = rows[:, r]
                counts[m] = 1
                d_new = _distances_to(rows[:, r + 1:], rows[:, r], sq)
                closer = d_new < best[r + 1:]
                np.copyto(best[r + 1:], d_new, where=closer)
                np.copyto(owner[r + 1:], m, where=closer)
                m += 1
        np.add.at(counts, owner[best <= h], 1)
    return centers[:m].copy(), counts[:m].copy()


def _distances_to(points: np.ndarray, x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Euclidean distances from x to the columns of ``points`` (one
    coordinate per row), bit for bit ``euclidean_distances``.  The squared
    differences go into ``sq`` (at least as many columns as ``points``) and
    are added in coordinate order into its first row; the result is a view
    of that row."""
    sq = sq[:, :points.shape[1]]
    np.subtract(points, x[:, None], out=sq)
    np.multiply(sq, sq, out=sq)
    for row in sq[1:]:
        sq[0] += row
    return np.sqrt(sq[0], out=sq[0])


def gap_lower_bound_check(spec: EllipsoidSpec, i: int, n_samples: int, seed: int):
    """E(||x(i)|| - ||x(i+1)||) against t_i^4 / (||t|| ||t^2(i)||).

    The comparison constant is universal and unknown; the rhs is evaluated
    with the constant replaced by 1 and only the ratio is reported.
    """
    if not 1 <= i < spec.truncation:
        raise ValueError("need 1 <= i < truncation")
    cloud = _argmax_cloud(spec, n_samples, seed)
    tail_i = np.sqrt(np.sum(cloud[:, i - 1:] ** 2, axis=1))
    tail_next = np.sqrt(np.sum(cloud[:, i:] ** 2, axis=1))
    lhs = sample_estimate(tail_i - tail_next)
    rhs = spec.semi_axes[i - 1] ** 4 / (spec.norm_t * spec.tail_sq_norms[i - 1])  # ||t^2(i)||
    return {"i": i, "lhs_mc": lhs.mean, "lhs_stderr": lhs.stderr, "rhs": float(rhs),
            "ratio": lhs.mean / rhs if rhs > 0 else math.inf}


def ellipsoid_report(spec: EllipsoidSpec, n_samples: int, seed: int,
                     net_resolution: float | None = None):
    """M(mu, mu) of the snapped empirical argmax measure against ||t||."""
    emp = empirical_measure(spec, n_samples, seed, net_resolution)
    m_self = functional_M(emp.measure, emp.measure)
    return {"m_self": m_self, "norm_t": spec.norm_t,
            "ratio": m_self / spec.norm_t if spec.norm_t > 0 else math.inf,
            "support_size": emp.space.n, "empirical": emp}
