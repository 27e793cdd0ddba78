"""Truncated Hilbert-Schmidt ellipsoid study.

For the linear process <x, g> on the ellipsoid sum x_i^2 / t_i^2 <= 1 the
per-draw supremum has the closed form argmax x_i = g_i t_i^2 / ||gt|| with
value ||gt||.  The module samples that argmax law, snaps it onto a finite
net so the measure functionals apply, and probes the norm-gap inequality
whose universal constant is reported empirically.
"""

from __future__ import annotations

import math
import os
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


# bytes per pair of net points that the net's distance matrix and the sigma
# evaluator of M(mu, mu) hold at their peak: the tracemalloc peak of
# build_from_points and functional_M over n^2 read 41.0 at n = 795, 1,999
# and 4,993
NET_BYTES_PER_PAIR = 41


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def empirical_measure(spec: EllipsoidSpec, n_samples: int, seed: int,
                      net_resolution: float | None = None) -> EmpiricalMeasure:
    """Argmax samples snapped onto a greedy Euclidean net of the cloud.

    A sample farther than h from every existing center becomes a new
    center; otherwise it snaps to the nearest one.  The resulting finite
    support plus frequencies is a measure usable by the functionals.  A
    net whose n x n arrays would not fit in physical memory raises
    ``MemoryError`` before they are made.
    """
    h = net_resolution if net_resolution is not None else 0.05 * float(spec.semi_axes[0])
    if h <= 0:
        raise ValueError("net resolution must be positive")
    centers, counts = _snap_to_net(_argmax_cloud(spec, n_samples, seed), h)
    need, memory = NET_BYTES_PER_PAIR * len(centers) ** 2, _physical_memory()
    if need > memory:
        raise MemoryError(f"the net has {len(centers)} centers, and its distance matrix and "
                          f"sigma tables need about {need} bytes, more than the {memory} "
                          "bytes of physical memory")
    space = build_from_points(centers)
    return EmpiricalMeasure(points=centers, counts=counts, space=space,
                            measure=ProbabilityMeasure(space, counts / counts.sum()))


SNAP_CHUNK = 2048  # rows compared with the centers of earlier chunks in one matrix
# rows decided per pair of distance matrices: on the bench's 4-axis net (3,000
# samples, about 800 centers; median of its 8 seeds on a 2-core host) blocks
# of 32-128 rows snapped in 15-16.5 ms, of 16 rows in 19 ms and of 256 rows
# in 16.4-17.4 ms
SNAP_BLOCK = 64


def _snap_to_net(cloud: np.ndarray, h: float):
    """Greedy net of the rows of ``cloud`` at resolution h, and its counts.

    Row 0 is the first center.  The rest go in chunks of ``SNAP_CHUNK``
    rows.  A row within h of a center from an earlier chunk snaps to the
    nearest one, read off one distance matrix, even where its own chunk
    makes a nearer center, so the counts depend on ``SNAP_CHUNK``.  The
    other rows go in order: each snaps to the nearest center its chunk has
    made before it if that is within h (the first one on ties), and becomes
    a new center otherwise.

    Those rows are decided ``SNAP_BLOCK`` at a time, with two distance
    matrices per block: one to the chunk's centers made before the block,
    and one of the block against itself.  A scan in row order over the
    second matrix's ``<= h`` entries picks the block's new centers, and one
    masked argmin gives every other row its nearest new center made before
    it, which replaces the nearest earlier center only when strictly
    closer.  The numpy calls grow with the number of blocks, not of
    centers, and the distance work is that of comparing each row with the
    centers made before it, plus one block by block matrix per block.
    Every distance adds the squared differences in coordinate order
    (``euclidean_distances``, as scipy's ``cdist``).
    """
    n = len(cloud)
    centers = np.empty_like(cloud)
    counts = np.zeros(n)
    centers[0] = cloud[0]
    counts[0] = 1
    m = 1
    for lo in range(1, n, SNAP_CHUNK):
        chunk = cloud[lo:lo + SNAP_CHUNK]
        dist, snap = _nearest(euclidean_distances(chunk, centers[:m]))
        near = dist <= h
        np.add.at(counts, snap[near], 1)
        first = m  # the other rows compare with the centers from here on
        rows = chunk[~near]
        for b in range(0, len(rows), SNAP_BLOCK):
            block = rows[b:b + SNAP_BLOCK]
            best, owner = _nearest(euclidean_distances(block, centers[first:m]))
            owner += first
            inner = euclidean_distances(block, block)
            new = _new_centers(best <= h, inner <= h)
            centers[m:m + len(new)] = block[new]
            counts[m:m + len(new)] = 1
            # a row compares only with the new centers made before it
            later = np.arange(len(block))[:, None] <= new
            d_new, j = _nearest(np.where(later, np.inf, inner[:, new]))
            closer = d_new < best
            np.copyto(best, d_new, where=closer)
            np.copyto(owner, j + m, where=closer)
            np.add.at(counts, owner[best <= h], 1)
            m += len(new)
    return centers[:m].copy(), counts[:m].copy()


def _nearest(d: np.ndarray):
    """Each row's smallest entry of ``d`` and its first column; inf and 0
    in a matrix without columns."""
    if d.shape[1] == 0:
        return np.full(len(d), np.inf), np.zeros(len(d), dtype=np.intp)
    j = d.argmin(axis=1)
    return d[np.arange(len(d)), j], j


def _new_centers(covered: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Positions of the rows that become centers, in row order: a row not
    ``covered`` when the scan reaches it is a new center and covers the rows
    its row of ``within`` marks.  The marks are read as Python integers,
    one bit per row, so the scan makes no numpy call."""
    width = (len(covered) + 7) // 8
    marks = np.packbits(within, axis=1, bitorder="little").tobytes()
    cover = int.from_bytes(np.packbits(covered, bitorder="little").tobytes(), "little")
    new = []
    for i in range(len(covered)):
        if not cover >> i & 1:
            new.append(i)
            cover |= int.from_bytes(marks[i * width:(i + 1) * width], "little")
    return np.array(new, dtype=np.intp)


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
