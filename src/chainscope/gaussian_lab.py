"""Gaussian models, reproducible Monte Carlo, and summary reports.

Sampling uses a counter-based generator (Philox) keyed by (seed, sample
index): sample i always occupies the same slice of the word stream.  Every
estimator reduces, tile by tile, the paths ``sample_paths(model, 0,
n_samples, seed)`` draws: under single-threaded OpenBLAS, those of the
whole-range product ``z @ factor.T``; from n of about 190 their bits
depend on the OpenBLAS thread count.  Tile results are added in tile
order, so estimates are bit-reproducible at any number of worker threads.

Paths are laid out coordinates by samples: row t of ``sample_paths`` is
X(t) over the samples, so every estimator reduces across coordinates
along axis 0, reading whole contiguous rows.  An estimator holds a tile's
draws, product and paths per worker thread and a few numbers per tile.
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
# Samples per tile up to n = 168.  Beyond, a tile is the largest multiple of
# 1536 samples whose draws fit in 2^20 words, and at least 1536: at n = 512
# a 6144-sample tile would take 50 MB of buffers per worker, 1536 take 13.
# Under single-threaded OpenBLAS, the product of a tile that starts a
# multiple of 1536 samples into a range is bit for bit those rows of the
# whole range's product (2048 or 4096 is not, at n >= 194 with n mod 8 !=
# 0).  Each tile costs a fixed number of numpy calls, and worker threads
# hand the GIL over at each one: 3072-sample tiles ran a two-thread modulus
# at n = 16 about 12% slower.
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


def _tile_length(n: int) -> int:
    """Samples per tile at n coordinates (see ``SAMPLE_TILE``)."""
    fit = (1 << 20) // _words_per_sample(n) // 1536 * 1536
    return max(1536, min(SAMPLE_TILE, fit))


def _tiles(n, start, stop):
    """Bounds of the tiles of samples ``start..stop-1`` at n coordinates:
    ``_tile_length(n)`` samples each from ``start``, the last one also taking
    a remainder shorter than a tile, whose short product would round
    differently."""
    size = _tile_length(n)
    cuts = list(range(start, stop, size))
    if len(cuts) > 1 and stop - cuts[-1] < size:
        cuts.pop()
    return list(zip(cuts, cuts[1:] + [stop]))


def _tile_buffers(model, tiles):
    """The draw and product buffers for ``tiles``, as long as the longest
    one, made once and reused by every tile, so that no tile faults in
    fresh pages for its temporaries."""
    rows = max((b - a for a, b in tiles), default=0)
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
    tiles = _tiles(model.n, start, stop)
    buffers = _tile_buffers(model, tiles)
    for a, b in tiles:
        _draw_tile(model, a, b, seed, out[:, a - start:b - start], *buffers)
    return out


def _map_tiles(model, n_samples, seed, threads, per_tile):
    """``per_tile(x)`` of each tile of ``sample_paths(model, 0, n_samples,
    seed)``, in tile order.  Up to ``threads`` workers take the tiles in
    turn (worker k takes tiles k, k + workers, ...), each through its own
    ``_tile_buffers``; worker 0 is the calling thread, the others a pool.
    The paths ``x`` (n x tile, C-contiguous) live in the draw buffer, which
    ``_draw_tile`` writes after the product has read it and the worker's
    next tile overwrites: ``per_tile`` returns what it keeps."""
    tiles = _tiles(model.n, 0, n_samples)
    workers = min(threads, len(tiles))
    results = [None] * len(tiles)

    def work(first):
        words, prod = _tile_buffers(model, tiles)
        for i in range(first, len(tiles), workers):
            a, b = tiles[i]
            x = words.reshape(-1)[:model.n * (b - a)].reshape(model.n, b - a)
            _draw_tile(model, a, b, seed, x, words, prod)
            results[i] = per_tile(x)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers - 1) as ex:
            rest = ex.map(work, range(1, workers))
            work(0)
        list(rest)  # raises a worker's exception, once the pool has joined
    else:
        work(0)
    return results


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float


def sample_estimate(x) -> Estimate:
    """Mean and standard error of one value per sample (0 for one sample)."""
    se = float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return Estimate(float(x.mean()), se)


def _estimate(model, n_samples, seed, threads, stat) -> Estimate:
    """Mean and standard error of a per-sample statistic.

    ``stat(x)`` returns the statistic of each column of the path tile ``x``;
    the tiles' sums of the statistic and of its square are added in tile
    order.
    """
    def sums(x):
        m = stat(x)
        return m.sum(), np.square(m).sum()

    s, sq = map(sum, zip(*_map_tiles(model, n_samples, seed, threads, sums)))
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
    return _estimate(model, n_samples, seed, threads, lambda x: x.max(axis=0))


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

    def per_tile(x):
        tied = (x.max(axis=0) - x) <= tol
        idx = tied.argmax(axis=0)  # first index within tolerance of the max
        return np.bincount(idx, minlength=model.n), int(np.sum(tied.sum(axis=0) > 1))

    counts, ties = map(sum, zip(*_map_tiles(model, n_samples, seed, threads, per_tile)))
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

    def all_pairs(x):
        # rounding is monotone, so the largest exactly rounded |x_a - x_b| is
        # the rounded range; abs keeps a zero range +0.0, as |x_a - x_b| is
        out = x.max(axis=0)
        out -= x.min(axis=0)
        return np.abs(out, out=out)

    def pair_fold(x):
        # by the same monotonicity, the largest |x_a - x_b| over a's partners
        # b is the larger of x_a - min_b x_b and max_b x_b - x_a; one running
        # max over the points, never a (tile x pairs) block, and a max is the
        # same in any point or tile order
        out = np.zeros(x.shape[1])
        lo, hi = np.empty_like(out), np.empty_like(out)
        for a, partners in anchors:
            rows = x[partners]
            rows.min(axis=0, out=lo)
            rows.max(axis=0, out=hi)
            np.subtract(x[a], lo, out=lo)
            np.subtract(hi, x[a], out=hi)
            np.maximum(lo, hi, out=lo)
            np.maximum(out, lo, out=out)
        return out

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

