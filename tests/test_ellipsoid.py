import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from chainscope import ellipsoid, ellipsoid_report, esup_check, gap_lower_bound_check, make_spec
from chainscope.ellipsoid import _argmax_cloud, _snap_to_net, empirical_measure
from chainscope.gaussian_lab import standard_normal_block
from chainscope.measures import SigmaEvaluator, functional_M
from chainscope.metric_core import euclidean_distances

from oracles import nu_average_reference, sigma_profile_reference, snap_to_net_reference

# (axes, samples) of the ellipsoid op and probe of the monte-carlo benchmark
BENCH_ELLIPSOIDS = [((1.0, 0.5, 0.25, 0.125), 3000), ((1.0, 0.5, 0.25), 2000)]


def tail_profile(spec, x):
    """a_0 = t_1, then a_i = ||x(i)|| = sqrt(sum_{j >= i} x_j^2), 1-based i."""
    return np.r_[spec.semi_axes[0], np.sqrt(np.cumsum(x[::-1] ** 2)[::-1])]


def smallball_check(spec, anchor, i, eps_grid, n_samples, seed):
    """Argmax-law mass of balls of radius eps in [a_{i+1}/sqrt2, a_i/sqrt2]
    around an argmax point, and the c implied by the bound mass <=
    exp(-c ||t^2(i)||^2 / t_i^4) (a lower bound when no sample lands)."""
    a = tail_profile(spec, anchor)
    lo, hi = a[i + 1] / math.sqrt(2.0), a[i] / math.sqrt(2.0)
    eps_grid = [float(e) for e in eps_grid]
    for e in eps_grid:
        if not (lo - 1e-12 <= e <= hi + 1e-12):
            raise ValueError(f"eps {e} outside [{lo}, {hi}]")
    cloud = _argmax_cloud(spec, n_samples, seed)
    dist = np.linalg.norm(cloud - anchor, axis=1)
    scale = spec.tail_sq_norms[i - 1] ** 2 / spec.semi_axes[i - 1] ** 4
    rows = []
    for e in eps_grid:
        mass = float(np.mean(dist <= e))
        rows.append({"eps": e, "mass": mass, "kind": "estimate" if mass > 0 else "lower-bound",
                     "implied_c": -math.log(mass if mass > 0 else 1.0 / n_samples) / scale})
    return rows


class TestSpec:
    def test_tail_norms(self):
        spec = make_spec([2.0, 1.0, 1.0])
        assert spec.norm_t == pytest.approx(math.sqrt(6.0))
        assert spec.tail_norms[0] == pytest.approx(math.sqrt(6.0))  # ||t(1)||
        assert spec.tail_norms[2] == pytest.approx(1.0)  # ||t(3)||
        assert spec.tail_sq_norms[1] == pytest.approx(math.sqrt(2.0))  # ||t^2(2)||

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            make_spec([1.0, 0.0])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            make_spec([1.0, 2.0])


def _cloud_of(spec, draws):
    """``_argmax_cloud`` rows for the given draws in place of the sampler's."""
    with mock.patch.object(ellipsoid, "standard_normal_block",
                           lambda seed, start, stop, n: np.asarray(draws, dtype=float)):
        return _argmax_cloud(spec, len(draws), 0)


class TestArgmax:
    def test_boundary_identity(self):
        spec = make_spec([1.0, 0.5, 0.25])
        g = standard_normal_block(3, 0, 500, 3)
        for x, row in zip(_argmax_cloud(spec, 500, 3), g):
            assert np.sum(x ** 2 / spec.semi_axes ** 2) == pytest.approx(1.0, abs=1e-9)
            # the supremum <x, g> is ||gt||
            assert np.linalg.norm(row * spec.semi_axes) == pytest.approx(float(x @ row),
                                                                         rel=1e-9)

    def test_sup_value_is_norm_gt(self):
        spec = make_spec([2.0, 1.0])
        g = np.array([3.0, 4.0])
        x = _cloud_of(spec, [g])[0]
        assert float(x @ g) == pytest.approx(math.hypot(6.0, 4.0))

    def test_tail_profile_prefixed(self):
        spec = make_spec([1.0, 1.0])
        a = tail_profile(spec, _cloud_of(spec, [[1.0, 1.0]])[0])
        assert a[0] == 1.0  # a_0 = t_1
        assert a[1] == pytest.approx(1.0)  # whole point on boundary
        assert a[2] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_draw_gives_the_origin(self):
        # a zero draw, which has no argmax, becomes the origin without a 0/0
        cloud = _cloud_of(make_spec([1.0, 0.5]), [[0.0, 0.0], [1.0, 0.0]])
        assert cloud.tolist() == [[0.0, 0.0], [1.0, 0.0]]


class TestEsup:
    def test_single_axis_half_normal(self):
        chk = esup_check(make_spec([1.0]), 200000, 11)
        assert abs(chk["mc_mean"] - math.sqrt(2.0 / math.pi)) <= 3 * chk["mc_stderr"]

    def test_two_axis_chi(self):
        chk = esup_check(make_spec([1.0, 1.0]), 200000, 7)
        assert abs(chk["mc_mean"] - math.sqrt(math.pi / 2.0)) <= 3 * chk["mc_stderr"]

    def test_jensen_ratio_below_one(self):
        chk = esup_check(make_spec([1.0 / (i + 1) for i in range(16)]), 100000, 17)
        assert 0.0 < chk["closed_ratio"] <= 1.0


class TestGapBound:
    def test_two_axis_polar_oracle(self):
        spec = make_spec([1.0, 1.0])
        chk = gap_lower_bound_check(spec, 1, 200000, 5)
        # E(||x(1)|| - ||x(2)||) = 1 - E|sin theta| = 1 - 2/pi
        assert abs(chk["lhs_mc"] - (1.0 - 2.0 / math.pi)) <= 3 * chk["lhs_stderr"]
        assert chk["rhs"] == pytest.approx(0.5)
        assert chk["ratio"] == pytest.approx((1 - 2 / math.pi) / 0.5, abs=0.01)

    def test_ratio_floor_harmonic_axes(self):
        spec = make_spec([1.0 / (i + 1) for i in range(8)])
        for i in range(1, 8):
            chk = gap_lower_bound_check(spec, i, 50000, 9 + i)
            assert chk["ratio"] >= 0.1

    def test_bad_index_rejected(self):
        spec = make_spec([1.0, 0.5])
        with pytest.raises(ValueError):
            gap_lower_bound_check(spec, 2, 100, 0)


class TestEmpiricalMeasure:
    def test_net_collapse_at_large_h(self):
        spec = make_spec([1.0, 0.5])
        emp = empirical_measure(spec, 500, 3, net_resolution=2.0)
        assert emp.space.n == 1
        assert emp.measure.weights[0] == 1.0

    def test_centers_separated_and_weights_sum(self):
        spec = make_spec([1.0, 0.5, 0.25])
        emp = empirical_measure(spec, 2000, 3, net_resolution=0.2)
        d = emp.space.dist[np.triu_indices(emp.space.n, k=1)]
        assert np.all(d > 0.2)
        assert emp.measure.weights.sum() == pytest.approx(1.0)
        assert emp.counts.sum() == 2000

    def test_net_beyond_physical_memory_is_refused_before_its_matrix(self):
        spec = make_spec([1.0, 0.5])
        n = len(_snap_to_net(_argmax_cloud(spec, 300, 3), 0.05)[0])
        need = ellipsoid.NET_BYTES_PER_PAIR * n * n
        with mock.patch.object(ellipsoid, "_physical_memory", lambda: need):
            assert empirical_measure(spec, 300, 3).space.n == n
        with mock.patch.object(ellipsoid, "_physical_memory", lambda: need - 1), \
                mock.patch.object(ellipsoid, "build_from_points", side_effect=AssertionError):
            with pytest.raises(MemoryError, match=f"the net has {n} centers.* {need} bytes"):
                empirical_measure(spec, 300, 3)

    def test_nonpositive_resolution_rejected(self):
        spec = make_spec([1.0])
        with pytest.raises(ValueError):
            empirical_measure(spec, 100, 0, net_resolution=0.0)

    @pytest.mark.parametrize("axes,samples", BENCH_ELLIPSOIDS)
    @pytest.mark.parametrize("seed", range(1000, 1008))
    def test_bench_ops_match_row_by_row_reference(self, axes, samples, seed):
        spec = make_spec(axes)
        emp = empirical_measure(spec, samples, seed)
        points, counts = snap_to_net_reference(_argmax_cloud(spec, samples, seed),
                                               0.05 * axes[0])
        assert emp.points.tobytes() == points.tobytes()
        assert emp.counts.tobytes() == counts.tobytes()
        assert emp.space.dist.tobytes() == cdist(points, points).tobytes()

    def test_bench_net_functional_matches_the_reference_profile(self):
        axes, samples = BENCH_ELLIPSOIDS[0]
        emp = empirical_measure(make_spec(axes), samples, 1000)
        w = emp.measure.weights
        want = nu_average_reference(sigma_profile_reference(SigmaEvaluator(emp.space), w), w)
        assert functional_M(emp.measure, emp.measure) == want


class TestSnapToNet:
    def test_resolution_equal_to_a_distance_of_the_cloud(self):
        cloud = _argmax_cloud(make_spec([1.0, 0.5, 0.25, 0.125]), 3000, 1000)
        for j in (1, 5, 2500):  # a row of the first chunk and one of the second
            h = float(np.linalg.norm(cloud[j] - cloud[0]))
            got, want = _snap_to_net(cloud, h), snap_to_net_reference(cloud, h)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_ties_go_to_the_earliest_center(self):
        # the last row is at distance exactly h = 1 from two new centers
        cloud = np.array([[0.0], [5.0], [3.0], [4.0]])
        centers, counts = _snap_to_net(cloud, 1.0)
        assert centers.tolist() == [[0.0], [5.0], [3.0]]
        assert counts.tolist() == [1.0, 2.0, 1.0]
        assert snap_to_net_reference(cloud, 1.0)[1].tolist() == counts.tolist()

    @pytest.mark.parametrize("block", [2, ellipsoid.SNAP_BLOCK])
    def test_ties_across_blocks_go_to_the_earlier_block(self, block):
        # in blocks of 2 the last row is at distance exactly h = 1 from 10,
        # a center of the first block, and from 12, a center of its own
        # block made before it; in one block both are new centers
        cloud = np.array([[0.0], [10.0], [30.0], [12.0], [11.0]])
        with mock.patch.object(ellipsoid, "SNAP_BLOCK", block):
            centers, counts = _snap_to_net(cloud, 1.0)
        assert centers.tolist() == [[0.0], [10.0], [30.0], [12.0]]
        assert counts.tolist() == [1.0, 2.0, 1.0, 1.0]
        assert snap_to_net_reference(cloud, 1.0)[1].tolist() == counts.tolist()

    @pytest.mark.parametrize("block", [2, ellipsoid.SNAP_BLOCK])
    def test_row_at_exactly_h_from_an_earlier_block_snaps(self, block):
        # the last row, alone in the second block of 2, is at distance
        # exactly h = 1 from the center 10 of the first block
        cloud = np.array([[0.0], [10.0], [30.0], [11.0]])
        with mock.patch.object(ellipsoid, "SNAP_BLOCK", block):
            centers, counts = _snap_to_net(cloud, 1.0)
        assert centers.tolist() == [[0.0], [10.0], [30.0]]
        assert counts.tolist() == [1.0, 2.0, 1.0]
        assert snap_to_net_reference(cloud, 1.0)[1].tolist() == counts.tolist()

    def test_distances_add_squares_in_coordinate_order(self):
        # the net's bytes rest on euclidean_distances adding the squared
        # differences one coordinate at a time, in order, in either direction
        rng = np.random.default_rng(3)
        for dim in [*range(1, 140), *range(200, 514)]:
            points = rng.standard_normal((40, dim)) * rng.uniform(0.1, 10.0, dim)
            x = rng.standard_normal(dim)
            acc = np.zeros(40)
            for j in range(dim):
                acc += (points[:, j] - x[j]) ** 2
            want = np.sqrt(acc).tobytes()
            assert euclidean_distances(points, x[None])[:, 0].tobytes() == want, dim
            assert euclidean_distances(x[None], points)[0].tobytes() == want, dim

    def test_distances_sum_squares_as_the_norm_does(self):
        # np.linalg.norm sums fewer than 8 squares in order, so ellipsoid
        # reports below 8 axes keep the bytes of a norm-based net
        rng = np.random.default_rng(4)
        for dim in range(1, 8):
            for _ in range(50):
                points = rng.standard_normal((40, dim)) * rng.uniform(0.1, 10.0, dim)
                x = rng.standard_normal(dim)
                got = euclidean_distances(points, x[None])[:, 0]
                assert got.tobytes() == np.linalg.norm(points - x, axis=1).tobytes(), dim

    @pytest.mark.parametrize("dim", [8, 9, 16, 130, 139, 300])
    @pytest.mark.parametrize("chunk", [50, 2048])
    @pytest.mark.parametrize("block", [1, 3, ellipsoid.SNAP_BLOCK])
    def test_wide_clouds_match_row_by_row_reference(self, dim, chunk, block):
        # the property below stops at 16 axes
        rng = np.random.default_rng(dim)
        # h is the in-order distance of a difference x whose pairwise norm
        # rounds above h: rows 1 and 2, far from row 0, make a new center and
        # a row that snaps to it at distance exactly h
        scale = 0.3 * math.sqrt(2.0 / dim)
        while True:
            x = scale * rng.standard_normal(dim)
            h = float(euclidean_distances(x[None], np.zeros((1, dim)))[0, 0])
            if np.linalg.norm(x[None], axis=1)[0] > h:
                break
        # then 30 clusters whose members lie up to about h apart, so that rows
        # snap to centers of earlier chunks, to new centers, and make new ones
        sites = rng.standard_normal((30, dim))
        spread = rng.uniform(0.2, 1.0, (400, 1)) * scale
        clusters = sites[rng.integers(30, size=400)] + spread * rng.standard_normal((400, dim))
        cloud = np.vstack([np.full((1, dim), 100.0), np.zeros((1, dim)), x[None], clusters])
        with mock.patch.multiple(ellipsoid, SNAP_CHUNK=chunk, SNAP_BLOCK=block):
            got = _snap_to_net(cloud, h)
        want = snap_to_net_reference(cloud, h, chunk)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert got[1][1] >= 2 and 30 < len(got[0]) < 300

    @given(axes=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=16),
           samples=st.integers(min_value=1, max_value=600),
           h_frac=st.floats(min_value=0.01, max_value=1.5),
           chunk=st.sampled_from([1, 7, 64, 2048]),
           block=st.sampled_from([1, 3, ellipsoid.SNAP_BLOCK]),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_by_row_reference(self, axes, samples, h_frac, chunk, block, seed):
        spec = make_spec(sorted(axes, reverse=True))
        cloud = _argmax_cloud(spec, samples, seed)
        h = h_frac * spec.semi_axes[0]
        with mock.patch.multiple(ellipsoid, SNAP_CHUNK=chunk, SNAP_BLOCK=block):
            got = _snap_to_net(cloud, h)
        want = snap_to_net_reference(cloud, h, chunk)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestSmallBall:
    def test_rows_and_grid_validation(self):
        spec = make_spec([1.0 / (i + 1) for i in range(8)])
        anchor = _argmax_cloud(spec, 1, 99)[0]
        a = tail_profile(spec, anchor)
        i = 2
        grid = np.linspace(a[i + 1] / math.sqrt(2), a[i] / math.sqrt(2), 3)
        rows = smallball_check(spec, anchor, i, grid, 20000, 21)
        assert len(rows) == 3
        masses = [r["mass"] for r in rows]
        assert all(b >= a_ for a_, b in zip(masses, masses[1:]))  # monotone in eps
        for r in rows:
            assert r["kind"] in ("estimate", "lower-bound")
            assert r["implied_c"] > 0

    def test_out_of_range_eps_rejected(self):
        spec = make_spec([1.0, 0.5, 0.25])
        anchor = _cloud_of(spec, [[1.0, 1.0, 1.0]])[0]
        with pytest.raises(ValueError, match="outside"):
            smallball_check(spec, anchor, 1, [10.0], 100, 0)


class TestReport:
    def test_single_axis_ratio_two(self):
        # the argmax law is uniform on {-t1, +t1}: M = 2 t1 against ||t|| = t1
        rep = ellipsoid_report(make_spec([1.0]), 20000, 3)
        assert rep["support_size"] == 2
        assert rep["ratio"] == pytest.approx(2.0, abs=0.01)

    def test_keys_and_positive_ratio(self):
        rep = ellipsoid_report(make_spec([1.0, 0.5, 0.25]), 3000, 5, net_resolution=0.1)
        assert set(rep) == {"m_self", "norm_t", "ratio", "support_size", "empirical"}
        assert rep["ratio"] > 0
