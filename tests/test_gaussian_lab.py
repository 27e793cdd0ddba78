import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscope import functional_M, gaussian_lab
from chainscope.cli import data_instance_path
from chainscope.gaussian_lab import (FactorizationError, _map_tiles, _tile_length,
                                     argmax_distribution, build_model, estimate_modulus,
                                     estimate_sup, sample_estimate, sample_paths,
                                     standard_normal_block, sudakov_bound, supremum_report)
from chainscope.io import covariance_from_instance, load_instance

from conftest import random_covariance
from oracles import modulus_reference

# two points at distance 1 realized as correlated unit-variance Gaussians
COV_PAIR_D1 = np.array([[1.0, 0.5], [0.5, 1.0]])


def concentration_check(model, u_grid, n_samples, seed, threads=1):
    """Rows (u, empirical, bound, stderr, flagged) of the tails of |sup - mean
    sup| against 2 exp(-u^2 / 2 sigma^2), sigma the largest pointwise standard
    deviation; zero-variance models yield an empty table with a warning."""
    sigma = math.sqrt(float(np.max(np.diag(model.covariance))))
    if sigma <= 0:
        warnings.warn("degenerate model: zero variance, concentration check skipped")
        return []
    u_grid = [float(u) for u in u_grid]

    tiles = _map_tiles(model, n_samples, seed, threads, lambda x: x.max(axis=0))
    mean = sum(t.sum() for t in tiles) / n_samples
    sups = np.concatenate(tiles)
    rows = []
    for u in u_grid:
        emp = float(np.mean(np.abs(sups - mean) >= u))
        bound = 2.0 * math.exp(-u * u / (2.0 * sigma * sigma))
        se = math.sqrt(max(emp * (1 - emp), 1.0 / n_samples) / n_samples)
        rows.append({"u": u, "empirical": emp, "bound": bound,
                     "stderr": se, "flagged": emp > bound + 3.0 * se})
    return rows


class TestModel:
    def test_psd_uses_zero_jitter(self):
        m = build_model(np.eye(3))
        assert m.jitter == 0.0
        assert np.allclose(m.factor @ m.factor.T, np.eye(3), atol=1e-12)

    def test_rank_deficient_ladder(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = build_model(C)
        assert np.allclose(m.factor @ m.factor.T, C, atol=1e-6)

    def test_not_psd_raises(self):
        from chainscope import MetricValidationError

        with pytest.raises((MetricValidationError, FactorizationError)):
            build_model([[1.0, 3.0], [3.0, 1.0]])

    def test_random_reconstruction(self, session_rng):
        C = random_covariance(session_rng, 10)
        m = build_model(C)
        scale = 1e-6 * (1.0 + np.abs(C).max())
        assert np.abs(m.factor @ m.factor.T - C).max() <= scale


class TestCounterSampling:
    def test_block_splits_agree(self):
        whole = standard_normal_block(5, 0, 100, 7)
        parts = np.vstack([standard_normal_block(5, 0, 37, 7),
                           standard_normal_block(5, 37, 100, 7)])
        assert np.array_equal(whole, parts)

    def test_seeds_differ(self):
        a = standard_normal_block(1, 0, 10, 3)
        b = standard_normal_block(2, 0, 10, 3)
        assert not np.array_equal(a, b)

    def test_marginals_standard_normal(self):
        z = standard_normal_block(11, 0, 200000, 2)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_sample_paths_covariance(self):
        m = build_model(COV_PAIR_D1)
        x = sample_paths(m, 0, 100000, 3)
        emp = np.cov(x)  # row t is X(t)
        assert np.abs(emp - COV_PAIR_D1).max() < 0.02

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_sample_paths_transpose_the_row_product(self, n):
        # coordinates by samples, bit for bit the transpose of the
        # sample-major product z @ factor.T, on one-row, empty, odd-length
        # and long ragged ranges and a jittered rank-deficient factor
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, max(n // 2, 1)))
        A[-1] = 0.0  # a zero-variance coordinate: the factor needs jitter
        jittered = build_model(A @ A.T)
        assert jittered.jitter > 0
        for m in (jittered, build_model(random_covariance(rng, n))):
            for start, stop in [(0, 1), (5, 6), (4, 4), (3, 26), (5, 70), (7, 1001),
                                (100, 355), (1, 4098), (0, 20000)]:
                x = sample_paths(m, start, stop, 9)
                want = (standard_normal_block(9, start, stop, n) @ m.factor.T).T
                assert x.shape == (n, stop - start) and x.flags.c_contiguous
                assert np.array_equal(x, want)
                assert np.array_equal(np.signbit(x), np.signbit(want))

    def test_diagonal_factor_samples_exactly(self):
        # z @ factor.T adds only exact zeros to z * diag(factor), so the
        # matrix product keeps every value and sign bit of a scaling
        rng = np.random.default_rng(12)
        iid = covariance_from_instance(load_instance(data_instance_path("iid_16.json")))
        covs = [iid, np.diag(rng.uniform(0.1, 5.0, 7)), np.diag(rng.uniform(1e-3, 1e3, 12)),
                np.diag([1.0, 0.0, 2.0])]
        for cov in covs:
            m = build_model(cov)
            assert np.count_nonzero(m.factor - np.diag(np.diag(m.factor))) == 0
            x = sample_paths(m, 0, 50000, 5)
            want = (standard_normal_block(5, 0, 50000, m.n) * np.diag(m.factor)).T
            assert np.array_equal(x, want)
            assert np.array_equal(np.signbit(x), np.signbit(want))
        assert m.jitter > 0  # the zero variance needs jitter


class TestEstimates:
    def test_two_point_esup_closed_form(self):
        m = build_model(COV_PAIR_D1)
        est = estimate_sup(m, 100000, 7)
        expected = 1.0 / math.sqrt(2.0 * math.pi)
        assert abs(est.mean - expected) <= 3.0 * est.stderr

    def test_iid_pair_esup_closed_form(self):
        m = build_model(np.eye(2))
        est = estimate_sup(m, 100000, 7)
        expected = 1.0 / math.sqrt(math.pi)
        assert abs(est.mean - expected) <= 3.0 * est.stderr

    def test_threads_reduction_identical(self):
        m = build_model(random_covariance(np.random.default_rng(0), 8))
        a = estimate_sup(m, 40000, 3, threads=1)
        b = estimate_sup(m, 40000, 3, threads=8)
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_worker_zero_is_the_calling_thread(self):
        # three tiles on two workers: tiles 0 and 2 on the calling thread,
        # tile 1 in the pool, whose exception is raised once it has joined
        m = build_model(random_covariance(np.random.default_rng(0), 8))
        n_samples = 3 * _tile_length(8)
        idents = _map_tiles(m, n_samples, 3, 2, lambda x: threading.get_ident())
        assert idents[0] == idents[2] == threading.get_ident() != idents[1]

        def fail_in_the_pool(x):
            if threading.get_ident() != idents[0]:
                raise RuntimeError("pool worker")
            return x.shape

        with pytest.raises(RuntimeError, match="pool worker"):
            _map_tiles(m, n_samples, 3, 2, fail_in_the_pool)

    def test_modulus_two_point(self):
        m = build_model(COV_PAIR_D1)
        est = estimate_modulus(m, 1.0, 100000, 5)
        expected = math.sqrt(2.0 / math.pi)  # E|X - Y| at distance 1
        assert abs(est.mean - expected) <= 3.0 * est.stderr

    def test_modulus_empty_pairs_warns(self):
        m = build_model(COV_PAIR_D1)
        with pytest.warns(UserWarning):
            est = estimate_modulus(m, 0.5, 1000, 5)
        assert est.mean == 0.0

    # the smallest truncation lies below every distance
    @pytest.mark.filterwarnings("ignore:no admissible pair at this delta:UserWarning")
    def test_modulus_monotone_in_delta(self):
        m = build_model(random_covariance(np.random.default_rng(4), 10))
        deltas = np.linspace(0.2, 1.0, 5) * m.space.diam
        vals = [estimate_modulus(m, float(d), 20000, 9).mean for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _pair_distances(model):
    ii, jj = np.triu_indices(model.n, k=1)
    return np.sort(model.space.dist[ii, jj])


def _modulus_both(model, delta, n_samples, seed, threads):
    """(estimate_modulus, reference, warnings of each) at one delta."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        est = estimate_modulus(model, delta, n_samples, seed, threads)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        ref = modulus_reference(model, delta, n_samples, seed)
    return ((est.mean, est.stderr), ref,
            [str(w.message) for w in got], [str(w.message) for w in want])


# rank < n gives a singular covariance, which build_model factors with jitter
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=16),
       st.sampled_from(["none", "some", "all"]), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=3000), st.sampled_from([1, 2]),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60, deadline=None)
def test_modulus_bit_identical_to_reference(n, rank, kept, frac, n_samples, threads, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, n)
    A = rng.standard_normal((n, rank))
    model = build_model(A @ A.T / rank)
    d = _pair_distances(model)
    if kept == "none":
        assume(d[0] > 0)
        delta = d[0] / 2
    elif kept == "all":
        delta = d[-1]
    else:
        assume(d.size >= 2)
        k = 1 + min(int(frac * (d.size - 1)), d.size - 2)  # keep k of the pairs, 0 < k < all
        assume(d[0] > 0 and d[k - 1] < d[k])
        delta = (d[k - 1] + d[k]) / 2
    got, ref, got_warn, ref_warn = _modulus_both(model, delta, n_samples, seed, threads)
    assert got == ref
    assert got_warn == ref_warn
    assert (got == (0.0, 0.0)) is (kept == "none")


def _tile_counts(n):
    """Sample counts at tile boundaries: one short of a tile, one tile, one
    past it (which the tile takes), and a tile then one with 37 more."""
    t = _tile_length(n)
    return (t - 1, t, t + 1, 2 * t + 37)


@pytest.mark.parametrize("threads", [1, 2])
def test_modulus_three_shards_bit_identical_to_reference(threads):
    # n = 64: three tiles of work (the shards of the name), the last one 37
    # samples longer than a tile; the delta keeps the closest ~5% of the
    # pairs to bound the reference's block
    model = build_model(random_covariance(np.random.default_rng(64), 64))
    n_samples = 3 * _tile_length(64) + 37
    assert len(gaussian_lab._tiles(64, 0, n_samples)) == 3
    d = _pair_distances(model)
    delta = (d[99] + d[100]) / 2
    got, ref, got_warn, ref_warn = _modulus_both(model, delta, n_samples, 17, threads)
    assert got == ref
    assert got_warn == ref_warn == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_modulus_all_pairs_bit_identical_to_reference(threads, scale):
    # delta >= diam keeps all 2016 pairs of n = 64, which takes the range
    # max - min per sample, on a whole tile and a ragged last one
    model = build_model(random_covariance(np.random.default_rng(65), 64))
    n_samples = _tile_counts(64)[-1]
    got, ref, got_warn, ref_warn = _modulus_both(model, scale * model.space.diam, n_samples,
                                                 29, threads)
    assert got == ref
    assert got_warn == ref_warn == []


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_modulus_ragged_blocks_bit_identical_to_reference(threads):
    # n = 16 with the closest 10 pairs and n = 64 with the closest 100 (about
    # 5%), at every tile-boundary sample count
    for n, k, seed in [(16, 10, 23), (64, 100, 17)]:
        model = build_model(random_covariance(np.random.default_rng(n), n))
        d = _pair_distances(model)
        delta = (d[k - 1] + d[k]) / 2
        for n_samples in _tile_counts(n):
            got, ref, got_warn, ref_warn = _modulus_both(model, delta, n_samples, seed,
                                                         threads)
            assert got == ref, (n, n_samples)
            assert got_warn == ref_warn == []


@pytest.mark.parametrize("threads", [1, 2])
def test_memory_bounded_by_the_tiles(threads):
    # 20 tiles at n = 32, and every pair admissible for the modulus: a
    # (tile x pairs) block would need about 15 tiles of path bytes, and the
    # whole run's paths 20; a worker's draw and product buffers take two,
    # and the reductions of its tile about one more
    n = 32
    model = build_model(random_covariance(np.random.default_rng(32), n))
    estimate_sup(model, 2, 3)  # the first draw imports scipy.special
    n_samples = 20 * _tile_length(n) + 37
    tile_bytes = (_tile_length(n) + 37) * n * 8
    runs = {
        "sup": lambda: estimate_sup(model, n_samples, 3, threads).mean,
        "argmax": lambda: argmax_distribution(model, n_samples, 3,
                                              threads).measure.weights.max(),
        "modulus": lambda: estimate_modulus(model, model.space.diam, n_samples, 3,
                                            threads).mean,
        "pairs": lambda: estimate_modulus(model, float(np.median(model.space.dist)),
                                          n_samples, 3, threads).mean,
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            value = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value > 0, name
        assert peak < 4 * threads * tile_bytes, (name, peak / tile_bytes)


# Draws and checks sample_paths in a fresh interpreter with one OpenBLAS
# thread, on ranges of several tiles whose last tile has 1, 37 and
# tile - 1 samples past its whole tiles, and one of whole tiles only.
TILE_RULE_CHECK = """
import numpy as np
from chainscope.gaussian_lab import _tile_length, build_model, sample_paths, standard_normal_block
bad = []
for n in (16, 64, 201, 257, 300, 512):
    A = np.random.default_rng(n).standard_normal((n, n))
    model = build_model(A @ A.T / n)
    T = _tile_length(n)
    for start, stop in [(0, 2 * T), (5, 5 + 2 * T + 1), (0, 2 * T + 37), (3, 3 + 3 * T - 1)]:
        x = sample_paths(model, start, stop, 11)
        want = (standard_normal_block(11, start, stop, n) @ model.factor.T).T
        if not (x.flags.c_contiguous and np.array_equal(x, want)
                and np.array_equal(np.signbit(x), np.signbit(want))):
            bad.append((n, start, stop))
print(bad)
"""

# The estimators' tiles, concatenated, against sample_paths over the same
# samples, at one and two worker threads and one OpenBLAS thread.
ESTIMATOR_PATHS_CHECK = """
import numpy as np
from chainscope.gaussian_lab import _map_tiles, _tile_length, build_model, sample_paths
bad = []
for n in (16, 64, 201, 257, 300, 512):
    A = np.random.default_rng(n).standard_normal((n, n))
    model = build_model(A @ A.T / n)
    for n_samples in (_tile_length(n) - 1, 2 * _tile_length(n) + 37, 20000):
        want = sample_paths(model, 0, n_samples, 7)
        for threads in (1, 2):
            got = np.hstack(_map_tiles(model, n_samples, 7, threads, lambda x: x.copy()))
            if not np.array_equal(got, want):
                bad.append((n, n_samples, threads))
print(bad)
"""


def _one_blas_thread(code):
    src = os.path.dirname(os.path.dirname(gaussian_lab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=600)
    return out.stdout.strip()


def test_tiles_keep_the_whole_range_product():
    # the tile rule: each tile's product is bit for bit those rows of the
    # whole range's product, at sizes (n >= 194, n mod 8 != 0) where
    # OpenBLAS rounds tiles that are not a multiple of 1536 samples long
    # differently; the BLAS thread count is pinned because at 2 threads the
    # whole-range product itself rounds differently at such n
    assert [_tile_length(n) for n in (16, 168, 169, 201, 257, 512, 700)] == \
        [6144, 6144, 4608, 4608, 3072, 1536, 1536]
    assert _one_blas_thread(TILE_RULE_CHECK) == "[]"


def test_estimators_draw_the_paths_sample_paths_draws():
    # tiles counted from sample 0: at n = 201, 257 and 300 ranges cut at any
    # other multiple of the tile would round differently
    assert _one_blas_thread(ESTIMATOR_PATHS_CHECK) == "[]"


def _rank_deficient_model():
    # coordinates 0 and 7 coincide: argmax ties, and the factor needs jitter
    A = np.random.default_rng(8).standard_normal((8, 6))
    A[7] = A[0]
    return build_model(A @ A.T / 6)


def _argmax_law(model, n_samples, threads):
    amd = argmax_distribution(model, n_samples, 5, threads)
    return amd.measure.weights.tolist(), amd.tie_count


ESTIMATORS = {
    "sup": lambda m, n, th: estimate_sup(m, n, 5, th),
    "argmax": _argmax_law,
    "concentration": lambda m, n, th: concentration_check(m, [0.25, 0.5, 1.0, 2.0], n, 5, th),
    "modulus": lambda m, n, th: estimate_modulus(m, m.space.diam / 2, n, 5, th),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_thread_invariance_across_a_shard_boundary(name):
    # one, two and three tiles' worth of work (the tiles are the shards of
    # work), which threads > 1 share out
    model = _rank_deficient_model()
    assert model.jitter > 0
    for n_samples in _tile_counts(model.n):
        results = [ESTIMATORS[name](model, n_samples, th) for th in (1, 2, 8)]
        assert results[0] == results[1] == results[2], n_samples


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_thread_invariance_at_small_shards(name, monkeypatch):
    # 256-sample tiles: sample counts one short of, at and one past a tile
    # boundary, and three tiles, the last one ragged, at every thread count
    model = _rank_deficient_model()
    monkeypatch.setattr(gaussian_lab, "_tile_length", lambda n: 256)
    assert len(gaussian_lab._tiles(model.n, 0, 1000)) == 3
    for n_samples in (255, 256, 257, 1000):
        results = [ESTIMATORS[name](model, n_samples, th) for th in (1, 2, 8)]
        assert results[0] == results[1] == results[2], n_samples


def test_estimators_reduce_the_sample_paths():
    # the estimators reduce the paths sample_paths draws: counts match
    # exactly and sums, added tile by tile instead of in one pass, to a few
    # ulps (the stderr's variance loses digits to cancellation)
    model = _rank_deficient_model()
    n_samples = _tile_counts(model.n)[-1]
    x = sample_paths(model, 0, n_samples, 5)
    sup = sample_estimate(x.max(axis=0))
    got = estimate_sup(model, n_samples, 5, 2)
    assert got.mean == pytest.approx(sup.mean, rel=1e-12)
    assert got.stderr == pytest.approx(sup.stderr, rel=1e-9)
    tied = (x.max(axis=0) - x) <= 10.0 * math.sqrt(2.0 * model.jitter)
    weights, ties = _argmax_law(model, n_samples, 2)
    assert weights == (np.bincount(tied.argmax(axis=0), minlength=8) / n_samples).tolist()
    assert ties == int(np.sum(tied.sum(axis=0) > 1)) > 0
    ii, jj = np.triu_indices(model.n, k=1)
    keep = model.space.dist[ii, jj] <= model.space.diam / 2
    pairs = sample_estimate(np.abs(x[ii[keep]] - x[jj[keep]]).max(axis=0))
    got = estimate_modulus(model, model.space.diam / 2, n_samples, 5, 2)
    assert got.mean == pytest.approx(pairs.mean, rel=1e-12)
    assert got.stderr == pytest.approx(pairs.stderr, rel=1e-9)


class TestArgmax:
    def test_iid_uniform(self):
        m = build_model(np.eye(8))
        amd = argmax_distribution(m, 200000, 1)
        assert np.abs(amd.measure.weights - 0.125).max() < 0.005
        assert amd.tie_count == 0

    def test_rank_one_ties_to_lowest_index(self):
        m = build_model([[1.0, 1.0], [1.0, 1.0]])
        amd = argmax_distribution(m, 1000, 2)
        assert amd.tie_count == 1000
        assert np.array_equal(amd.measure.weights, [1.0, 0.0])


class TestBounds:
    def test_sudakov_collinear(self):
        from chainscope.metric_core import build_from_points

        sp = build_from_points([[0.0], [1.0], [3.0]])
        value, (radius, m) = sudakov_bound(sp)
        assert value == pytest.approx(3.0, rel=1e-12)
        assert (radius, m) == (3.0, 2)

    def test_sudakov_below_esup_envelope(self, session_rng):
        # Sudakov minoration: a sqrt(log2 m) <= K E sup; artifact envelope K = 3
        for _ in range(5):
            C = random_covariance(session_rng, 12)
            m = build_model(C)
            value, _ = sudakov_bound(m.space)
            est = estimate_sup(m, 30000, 11)
            assert value <= 3.0 * (est.mean + 3 * est.stderr)

    def test_concentration_two_point(self):
        m = build_model(COV_PAIR_D1)
        rows = concentration_check(m, [0.5, 1.0, 2.0, 3.0], 50000, 13)
        assert len(rows) == 4
        assert not any(r["flagged"] for r in rows)

    def test_concentration_degenerate_warns(self):
        m = build_model([[0.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            assert concentration_check(m, [1.0], 100, 1) == []

    def test_concentration_correlated_scale(self):
        # X2 = 2 X1: canonical diameter is 1 but the sup fluctuates at
        # scale 2, so the bound must use the pointwise deviation
        m = build_model([[1.0, 2.0], [2.0, 4.0]])
        rows = concentration_check(m, [1.0, 2.0, 4.0], 50000, 29)
        assert not any(r["flagged"] for r in rows)

    def test_supremum_report_two_point(self):
        m = build_model(COV_PAIR_D1)
        # delta = 0.5 is below the one distance: no pair, a modulus of 0
        with pytest.warns(UserWarning, match="no admissible pair at this delta"):
            rep = supremum_report(m, 100000, 7, [0.5, 1.0])
        assert rep["modulus"][0]["s_delta"] == 0.0
        assert abs(rep["esup"] - 1.0 / math.sqrt(2 * math.pi)) <= 3 * rep["esup_stderr"]
        assert rep["m_self_muF"] == pytest.approx(1.0, abs=0.02)
        for row in rep["modulus"]:
            assert row["s_delta"] <= row["upper_proxy"] * 50 + 1e-9

    def test_cluster_gap_dominates_entropy_term(self):
        # m far clusters of small spread: the supremum gain over a single
        # cluster must carry the sqrt(log2 m) factor (floor 0.2)
        rng = np.random.default_rng(42)
        m_clusters, per, sigma_c = 4, 3, 0.05
        a = 8.0 * sigma_c * 10  # well past the separation requirement
        centers = np.eye(m_clusters) * a / math.sqrt(2.0)
        pts = np.vstack([
            centers[i] + sigma_c * rng.standard_normal((per, m_clusters))
            for i in range(m_clusters)])
        model = build_model(pts @ pts.T)
        whole = estimate_sup(model, 40000, 3).mean
        blocks = [np.arange(i * per, (i + 1) * per) for i in range(m_clusters)]
        cluster_sups = [estimate_sup(build_model(model.covariance[np.ix_(b, b)]), 40000, 3).mean
                        for b in blocks]
        gain = whole - min(cluster_sups)
        assert gain >= 0.2 * a * math.sqrt(math.log2(m_clusters))


class TestNestedNets:
    def test_nested_table_shape(self):
        # M(mu_F, mu_F) along the nested subsets {0, 1} of {0, 1, 2, 3} of an
        # iid model: equidistant at distance sqrt(2), so M = sqrt(2) sqrt(log2 m)
        model = build_model(np.eye(4))
        m_self = []
        for subset in ([0, 1], [0, 1, 2, 3]):
            sub = build_model(model.covariance[np.ix_(subset, subset)])
            mu_f = argmax_distribution(sub, 50000, 5).measure
            m_self.append(functional_M(mu_f, mu_f))
        assert m_self[0] == pytest.approx(math.sqrt(2.0), abs=0.02)
        assert m_self[1] == pytest.approx(2.0, abs=0.03)
