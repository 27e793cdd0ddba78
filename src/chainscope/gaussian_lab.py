"""Gaussian models, reproducible Monte Carlo, and summary reports.

Sampling uses a counter-based generator (Philox) keyed by (seed, sample
index): sample i always occupies the same slice of the word stream, so the
standard normal draws are the same however the work is sharded.  Path
values are not: the product ``z @ factor.T`` of a range shorter than about
70 samples rounds differently from the same samples inside a long range
(tiles aligned to the absolute sample index, ROADMAP item 6, would fix
that), and from n of about 190 its bits depend on the OpenBLAS thread
count.  At a fixed shard size and BLAS thread count, estimates are
bit-reproducible for a fixed seed at any number of worker threads, because
reductions run in shard order.

Paths are laid out coordinates by samples: ``sample_paths`` returns an
n x samples C-contiguous array whose row t is X(t) over the samples, so
every estimator reduces across coordinates along axis 0, reading whole
contiguous rows.  Paths are drawn and reduced one tile of ``SAMPLE_TILE``
samples at a time, so a shard never exists whole: an estimator holds one
per-sample vector per shard and a tile's buffers per worker thread.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measures import ProbabilityMeasure, functional_M
from .metric_core import FiniteMetricSpace, build_from_covariance, cover_sizes, sqrt_log2

JITTER_START = 1e-12
JITTER_MAX = 1e-6
# Samples per tile.  Under single-threaded OpenBLAS, the product of a tile
# that starts a multiple of 1536 samples into a range is bit for bit those
# rows of the whole range's product (2048 or 4096 is not, at n >= 194 with
# n mod 8 != 0), so tiling keeps every path value of a range's product.
# Each tile costs a fixed number of numpy calls, and worker threads hand
# the GIL over at each one: with 3072-sample tiles a two-thread modulus at
# n = 16 ran about 12% slower than on whole shards, with these level.
SAMPLE_TILE = 6144
# Path values per block when a tile's product is transposed: a whole tile
# at once copies 1.5x slower at n = 64 and 5x slower at n = 256.
TRANSPOSE_BLOCK = 1 << 15


class FactorizationError(RuntimeError):
    """Cholesky failed even after escalating jitter to JITTER_MAX."""


@dataclass(frozen=True)
class GaussianModel:
    """PSD covariance with a Cholesky factor and the induced metric space."""

    covariance: np.ndarray
    factor: np.ndarray
    jitter: float
    space: FiniteMetricSpace

    @property
    def n(self) -> int:
        return self.covariance.shape[0]


def build_model(cov, space: FiniteMetricSpace | None = None) -> GaussianModel:
    """Factor a covariance, escalating jitter (doubling from 1e-12 to 1e-6).

    ``space`` is the metric the estimators choose pairs and cover sizes in;
    by default the canonical metric derived from the covariance.
    """
    C = np.array(cov, dtype=float)
    C = (C + C.T) / 2.0
    if space is None:
        space = build_from_covariance(C)
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(C + jitter * np.eye(C.shape[0]))
            break
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = JITTER_START
            elif jitter >= JITTER_MAX:
                raise FactorizationError(
                    f"cholesky failed at maximum jitter {JITTER_MAX}") from None
            else:
                jitter = min(jitter * 2.0, JITTER_MAX)
    err = np.abs(L @ L.T - C).max(initial=0.0)
    scale = 1.0 + np.abs(C).max(initial=0.0)
    if err > 1e-6 * scale:
        raise FactorizationError(f"reconstruction error {err} exceeds tolerance")
    return GaussianModel(covariance=C, factor=L, jitter=jitter, space=space)


# ---------------------------------------------------------------------------
# counter-based sampling


def _words_per_sample(n: int) -> int:
    return -(-max(n, 1) // 4) * 4  # Philox emits 4 uint64 words per counter step


def standard_normal_block(seed: int, start: int, stop: int, n: int,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``start..stop-1`` of the i.i.d. N(0,1) stream for this seed.

    Sample i owns words [i*w, (i+1)*w) of the Philox word stream (w = n
    rounded up to a counter block), so any sharding reproduces the same
    values.  Uniforms are clamped away from 0 before the inverse CDF.  The
    words are drawn into ``out`` (C-contiguous, at least ``stop - start``
    rows of w words) if given, else into a new array, and transformed in
    place; the result is their first n columns, a view.
    """
    if stop <= start:
        return np.empty((0, n))
    # loaded at the first draw, so commands that draw nothing never import them
    from numpy.random import Generator, Philox
    from scipy.special import ndtri

    w = _words_per_sample(n)
    words = np.empty((stop - start, w)) if out is None else out[:stop - start]
    Generator(Philox(key=seed, counter=start * (w // 4))).random(out=words)
    z = words[:, :n]
    np.maximum(z, 2.0 ** -53, out=z)
    return ndtri(z, out=z)


def _tiles(start, stop):
    """Bounds of the tiles of samples ``start..stop-1``: ``SAMPLE_TILE``
    samples each from ``start``, the last one also taking a remainder
    shorter than a tile, whose short product would round differently."""
    cuts = list(range(start, stop, SAMPLE_TILE))
    if len(cuts) > 1 and stop - cuts[-1] < SAMPLE_TILE:
        cuts.pop()
    return zip(cuts, cuts[1:] + [stop])


def _tile_buffers(model, start, stop):
    """The draw and product buffers for the tiles of samples
    ``start..stop-1``, as long as the longest tile, made once per range and
    reused by every tile, so that no tile faults in fresh pages for its
    temporaries."""
    rows = max((b - a for a, b in _tiles(start, stop)), default=0)
    return np.empty((rows, _words_per_sample(model.n))), np.empty((rows, model.n))


def _draw_tile(model, start, stop, seed, out, words, prod):
    """Paths of samples ``start..stop-1`` into the n x (stop - start) ``out``,
    through the ``_tile_buffers`` ``words`` and ``prod``.

    The product is formed sample-major, as ``z @ factor.T``, and copied out
    in cache-sized blocks of samples.  ``factor @ z.T`` is not the same
    arithmetic: OpenBLAS rounds the last (count mod 8) samples of a long
    range differently in that orientation.  The draws' row stride (w words)
    and the buffers leave every product bit as a new contiguous array would.
    """
    z = standard_normal_block(seed, start, stop, model.n, words)
    rows = np.matmul(z, model.factor.T, out=prod[:stop - start])
    step = max(1, TRANSPOSE_BLOCK // max(model.n, 1))
    for s in range(0, rows.shape[0], step):
        out[:, s:s + step] = rows[s:s + step].T


def sample_paths(model: GaussianModel, start: int, stop: int, seed: int) -> np.ndarray:
    """Process samples ``start..stop-1`` as columns: row t holds X(t).

    Filled one tile at a time; under single-threaded OpenBLAS every path
    value is bit for bit that of the sample-major product ``z @ factor.T``
    of the whole range (see ``SAMPLE_TILE``).
    """
    out = np.empty((model.n, max(stop - start, 0)))
    buffers = _tile_buffers(model, start, stop)
    for a, b in _tiles(start, stop):
        _draw_tile(model, a, b, seed, out[:, a - start:b - start], *buffers)
    return out


def _path_tiles(model, start, stop, seed):
    """(offset, paths) for each tile of samples ``start..stop-1``.

    The draws and products live in the range's ``_tile_buffers``, and the
    paths, n x tile and C-contiguous, in the draw buffer: ``_draw_tile``
    writes them after the product has read the draws, and the next tile
    draws only after the caller is done with them.  A range so holds two
    tiles' arrays, no more than one tile's draws and product took.
    """
    words, prod = _tile_buffers(model, start, stop)
    for a, b in _tiles(start, stop):
        x = words.reshape(-1)[:model.n * (b - a)].reshape(model.n, b - a)
        _draw_tile(model, a, b, seed, x, words, prod)
        yield a - start, x


def _default_shard(n: int) -> int:
    return max(256, (1 << 21) // _words_per_sample(n))


def _map_shards(model, n_samples, seed, threads, per_shard):
    """Return ``per_shard(tiles, size)`` of each shard, in shard order.

    ``tiles`` yields the shard's path tiles as ``_path_tiles`` does, with
    offsets into the shard's ``size`` samples.
    """
    shard = _default_shard(model.n)
    bounds = [(s, min(s + shard, n_samples)) for s in range(0, n_samples, shard)]

    def work(b):
        return per_shard(_path_tiles(model, b[0], b[1], seed), b[1] - b[0])

    if threads and threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(work, bounds))
    return [work(b) for b in bounds]


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float


def _estimate(model, n_samples, seed, threads, stat) -> Estimate:
    """Mean and standard error of a per-sample statistic.

    ``stat(x, out)`` writes the statistic of each column of the path tile
    ``x`` into ``out``, that tile's slice of one shard-length vector.  The
    shards' sums of the statistic and of its square are added in shard order.
    """
    def per_shard(tiles, size):
        m = np.empty(size)
        for s, x in tiles:
            stat(x, m[s:s + x.shape[1]])
        return m.sum(), np.square(m).sum()

    parts = _map_shards(model, n_samples, seed, threads, per_shard)
    s = sum(p[0] for p in parts)
    sq = sum(p[1] for p in parts)
    mean = s / n_samples
    var = max(sq - n_samples * mean * mean, 0.0) / max(n_samples - 1, 1)
    return Estimate(float(mean), float(math.sqrt(var / n_samples)))


# ---------------------------------------------------------------------------
# estimators


def estimate_sup(model: GaussianModel, n_samples: int, seed: int,
                 threads: int = 1) -> Estimate:
    """Monte Carlo E sup_t X(t): mean of the per-sample max coordinate."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    return _estimate(model, n_samples, seed, threads, lambda x, out: x.max(axis=0, out=out))


@dataclass(frozen=True)
class ArgmaxDistribution:
    measure: ProbabilityMeasure
    tie_count: int


def argmax_distribution(model: GaussianModel, n_samples: int, seed: int,
                        threads: int = 1) -> ArgmaxDistribution:
    """Empirical law of the argmax index; ties break to the lowest index.

    Exact ties are measure-zero for nondegenerate covariances, but the
    jitter used to factor rank-deficient ones blurs genuinely tied
    coordinates by O(sqrt(jitter)); coordinates within that blur of the
    maximum are counted as tied.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    tol = 0.0 if model.jitter == 0.0 else 10.0 * math.sqrt(2.0 * model.jitter)

    def per_shard(tiles, size):
        counts, ties = np.zeros(model.n, dtype=np.int64), 0
        for _, x in tiles:
            tied = (x.max(axis=0) - x) <= tol
            idx = tied.argmax(axis=0)  # first index within tolerance of the max
            counts += np.bincount(idx, minlength=model.n)
            ties += int(np.sum(tied.sum(axis=0) > 1))
        return counts, ties

    parts = _map_shards(model, n_samples, seed, threads, per_shard)
    counts = np.sum([p[0] for p in parts], axis=0)
    ties = sum(p[1] for p in parts)
    return ArgmaxDistribution(
        measure=ProbabilityMeasure(model.space, counts / n_samples),
        tie_count=ties)


def estimate_modulus(model: GaussianModel, delta: float, n_samples: int, seed: int,
                     threads: int = 1) -> Estimate:
    """S(delta): mean of max |X_s - X_t| over pairs with d(s, t) <= delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    D = model.space.dist
    ii, jj = np.triu_indices(model.n, k=1)
    keep = D[ii, jj] <= delta
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        warnings.warn("no admissible pair at this delta; modulus is trivially 0")
        return Estimate(0.0, 0.0)

    # each point's partners among the admissible pairs, which triu_indices
    # lists by their first point
    firsts = np.flatnonzero(np.r_[True, ii[1:] != ii[:-1]])
    anchors = list(zip(ii[firsts].tolist(), np.split(jj, firsts[1:])))

    def all_pairs(x, out):
        # rounding is monotone, so the largest exactly rounded |x_a - x_b| is
        # the rounded range; abs keeps a zero range +0.0, as |x_a - x_b| is
        np.subtract(x.max(axis=0), x.min(axis=0), out=out)
        np.abs(out, out=out)

    def pair_fold(x, out):
        # by the same monotonicity, the largest |x_a - x_b| over a's partners
        # b is the larger of x_a - min_b x_b and max_b x_b - x_a; one running
        # max over the points, never a (tile x pairs) block, and a max is the
        # same in any point or tile order
        out[:] = 0.0
        lo, hi = np.empty_like(out), np.empty_like(out)
        for a, partners in anchors:
            rows = x[partners]
            rows.min(axis=0, out=lo)
            rows.max(axis=0, out=hi)
            np.subtract(x[a], lo, out=lo)
            np.subtract(hi, x[a], out=hi)
            np.maximum(lo, hi, out=lo)
            np.maximum(out, lo, out=out)

    return _estimate(model, n_samples, seed, threads, all_pairs if keep.all() else pair_fold)


# ---------------------------------------------------------------------------
# structural bounds


def sudakov_bound(space: FiniteMetricSpace):
    """max over separations a of a * sqrt(log2 m(a)), without the constant.

    m(a) is the greedy packing size at pairwise distance >= a.  At the k-th
    distinct distance a = breaks[k + 1] that is the strict packing at the
    break before it, ``packs[k]``, so the scale table holds every m(a).
    Returns (value, (a, m)) with the maximizing witness (the smallest such
    a), or (0.0, (0.0, 1)) when fewer than two points are distinct.
    """
    seps = space.breaks[1:]
    if seps.size == 0:
        return 0.0, (0.0, 1)
    sizes = space.packs[:-1]
    vals = seps * sqrt_log2(sizes)
    i = int(np.argmax(vals))
    return float(vals[i]), (float(seps[i]), int(sizes[i]))


# ---------------------------------------------------------------------------
# summary reports


def supremum_report(model: GaussianModel, n_samples: int, seed: int, delta_grid,
                    threads: int = 1):
    """Empirical ratio E sup / M(mu_F, mu_F) and the two-sided S(delta) proxy.

    For each delta the report carries the Monte Carlo S(delta), the upper
    proxy M(mu^, mu^, 2 delta) at the best measure found by simplex search,
    and the lower expression max_c (M(mu^, mu^, c) - c sqrt(log2 N^(delta))).
    Each truncation is searched once, from uniform, mu_F and two Dirichlet
    draws, and the searches run as the lanes (one per truncation and start)
    of one batched ascent over one evaluator: one batch for all of them on
    the default grid up to n = 57.
    All comparison constants are universal and unknown; only ratios are
    reported here.
    """
    # deferred: search imports estimate_sup and argmax_distribution from this
    # module at load time, so a top-level import here would be circular
    from . import search

    est = estimate_sup(model, n_samples, seed, threads)
    amd = argmax_distribution(model, n_samples, seed + 1, threads)
    space = model.space
    report = {"esup": est.mean, "esup_stderr": est.stderr, "degenerate": space.n < 2}
    if space.n < 2 or space.diam == 0:
        report.update({"m_self_muF": 0.0, "ratio": 0.0, "flag": "degenerate", "modulus": []})
        return report
    # finite: every charged point carries its own mass in each ball around it
    m_mu_f = functional_M(amd.measure, amd.measure)
    report.update({"m_self_muF": m_mu_f, "ratio": est.mean / m_mu_f if m_mu_f > 0 else 0.0,
                   "flag": None})
    report["mu_F"] = [float(v) for v in amd.measure.weights]
    report["tie_count"] = amd.tie_count

    delta_grid = [float(d) for d in delta_grid]
    c_grid = sorted(set(delta_grid) | {space.diam})
    # M(mu, mu, c) is the same function of mu at every c >= diam, so the
    # truncations searched are the grid's deltas and their doubles cut at
    # the diameter; every search starts from the same seeded starts, and
    # they run as the lanes of one batched ascent
    searched = sorted({min(c, space.diam) for c in c_grid}
                      | {min(2.0 * d, space.diam) for d in delta_grid})
    found = search.maximize_M_self_per_delta(space, searched, [amd.measure], restarts=2,
                                             max_iter=150, seed=seed)
    best_m_self = dict(zip(searched, (res.objective for res in found)))

    rows = []
    for i, (d, nhat) in enumerate(zip(delta_grid, cover_sizes(space, delta_grid).tolist())):
        mod = estimate_modulus(model, d, n_samples, seed + 2 + i, threads)
        log_n = math.sqrt(math.log2(nhat)) if nhat > 1 else 0.0
        upper = best_m_self[min(2.0 * d, space.diam)] + d * log_n
        lower = max(best_m_self[min(c, space.diam)] - c * log_n for c in c_grid)
        rows.append({"delta": d, "s_delta": mod.mean, "s_stderr": mod.stderr,
                     "cover_size": nhat, "upper_proxy": upper, "lower_expression": lower})
    report["modulus"] = rows
    return report

