import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

from chainscope import (MetricValidationError, build_from_distance_matrix, build_from_points,
                        entropy_integral, modulus_entropy_diagnostic, sudakov_bound)
from chainscope import metric_core
from chainscope.metric_core import (build_from_covariance, cover_sizes, covering_number,
                                    covering_table, greedy_packing, greedy_permutation)

from conftest import integer_l1_space, random_covariance, random_space
from oracles import (cover_size_reference, distinct_distances_reference,
                     entropy_integral_reference, exact_covering_number,
                     greedy_packing_reference, modulus_entropy_diagnostic_reference,
                     sudakov_bound_reference)


@st.composite
def integer_metrics(draw):
    """Shortest-path closure of small integer edge weights: many tied distances."""
    n = draw(st.integers(min_value=1, max_value=12))
    w = np.array(draw(st.lists(st.integers(min_value=0, max_value=4),
                               min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    w = np.triu(w, 1) + np.triu(w, 1).T
    w[w == 0] = 5.0  # a zero weight would mean "no edge" to csgraph
    np.fill_diagonal(w, 0.0)
    return build_from_distance_matrix(shortest_path(w, directed=False))


@st.composite
def l1_metrics(draw):
    """l1 distances of small point clouds on a coarse grid."""
    n = draw(st.integers(min_value=1, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=3))
    coords = draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=n * dim, max_size=n * dim))
    pts = 0.5 * np.array(coords, dtype=float).reshape(n, dim)
    return build_from_distance_matrix(cdist(pts, pts, "cityblock"))


@st.composite
def bound_spaces(draw):
    """Tied integer-l1 grids, l1 clouds (coincident points allowed) and PSD covariances."""
    kind = draw(st.sampled_from(["grid", "l1", "covariance"]))
    if kind == "l1":
        return draw(l1_metrics())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    n = draw(st.integers(min_value=1, max_value=16))
    if kind == "grid":
        return integer_l1_space(rng, n)
    return build_from_covariance(random_covariance(rng, n))


class TestValidation:
    def test_two_point(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        assert sp.n == 2
        assert sp.diam == 1.0

    def test_asymmetric(self):
        with pytest.raises(MetricValidationError, match=r"asymmetric at \(0,1\)"):
            build_from_distance_matrix([[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(MetricValidationError, match="diagonal"):
            build_from_distance_matrix([[0.5, 1], [1, 0]])

    def test_nonzero_diagonal_names_first_index(self):
        D = np.ones((4, 4)) - np.eye(4)
        D[2, 2], D[3, 3] = 0.25, 0.5
        with pytest.raises(MetricValidationError,
                           match=r"^nonzero diagonal at \(2, 2\): 0\.25$"):
            build_from_distance_matrix(D)

    def test_negative_entry(self):
        with pytest.raises(MetricValidationError, match="negative"):
            build_from_distance_matrix([[0, -1], [-1, 0]])

    def test_triangle_violation(self):
        for D in ([[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                  # 1e-6 relative at 1e150: far above one rounding, still a violation
                  1e150 * np.array([[0, 1, 3 + 3e-6], [1, 0, 2], [3 + 3e-6, 2, 0]])):
            with pytest.raises(MetricValidationError, match=r"triangle violated \(0,2\) via 1"):
                build_from_distance_matrix(D)

    @pytest.mark.parametrize("big", [1.5e308, np.finfo(float).max])
    def test_entries_whose_sum_overflows(self, big):
        # d(i, j) + d(j, i), which the symmetrization adds, would overflow
        with pytest.raises(MetricValidationError, match="finite"):
            build_from_distance_matrix([[0, big], [big, 0]])

    def test_largest_entry_accepted(self):
        big = metric_core.ENTRY_LIMIT
        sp = build_from_distance_matrix([[0, big], [big, 0]])
        assert sp.dist[0, 1] == sp.diam == big

    def test_non_square(self):
        with pytest.raises(MetricValidationError, match="square"):
            build_from_distance_matrix([[0, 1, 2], [1, 0, 1]])

    def test_covariance_identity(self):
        sp = build_from_covariance(np.eye(2))
        assert sp.dist[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_covariance_not_psd(self):
        with pytest.raises(MetricValidationError, match="PSD"):
            build_from_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_covariance_roundtrip_revalidates(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        sp = build_from_covariance(A @ A.T)
        again = build_from_distance_matrix(sp.dist)
        assert np.array_equal(again.dist, sp.dist)

    def test_points_collinear(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        assert sp.diam == 3.0
        assert sp.dist[1, 2] == 2.0


class TestCovering:
    def test_radius_at_diam_is_one(self, session_rng):
        sp = random_space(session_rng, 9)
        assert cover_sizes(sp, [sp.diam])[0] == 1

    def test_radius_below_min_distance_is_n(self, session_rng):
        sp = random_space(session_rng, 9)
        d_min = float(sp.breaks[1])
        assert cover_sizes(sp, [d_min * 0.49])[0] == sp.n

    def test_cover_size_monotone_in_radius(self, session_rng):
        for _ in range(10):
            sp = random_space(session_rng, 12)
            radii = np.linspace(0, sp.diam, 13)
            sizes = cover_sizes(sp, radii).tolist()
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_certified_sandwich_contains_exact(self, session_rng):
        for _ in range(10):
            sp = random_space(session_rng, 10)
            for frac in (0.1, 0.3, 0.6):
                rad = frac * sp.diam
                rep = covering_number(sp, rad)
                exact = exact_covering_number(sp, rad)
                assert rep["lower_bound"] <= exact <= rep["upper_bound"]

    def test_greedy_tie_break_lowest_index(self):
        # square: after center 0 the farthest points 1 and 2 tie at distance 1
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        sp = build_from_points(pts)
        order, _ = greedy_permutation(sp)
        assert order[0] == 0
        assert order[1] == 3  # unique farthest
        assert order[2] == 1  # 1 and 2 tie; lowest index wins

    def test_packing_strict_vs_nonstrict(self):
        # the >= packing at a distance is the strict packing at the break before it
        sp = build_from_points([[0.0], [1.0], [2.0]])
        assert greedy_packing(sp, 1.0) == [0, 2]
        assert greedy_packing_reference(sp, 1.0, strict=False) == [0, 1, 2]
        assert greedy_packing(sp, 0.0) == [0, 1, 2]


class TestEntropyIntegral:
    def test_two_point_value(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        # cover size is 2 on (0, 1), 1 at 1: integral of sqrt(log2 2) over (0,1]
        assert float(entropy_integral(sp, sp.diam)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_equidistant_closed_form(self, m):
        a = 1.7
        D = a * (np.ones((m, m)) - np.eye(m))
        sp = build_from_distance_matrix(D)
        expected = a * math.sqrt(math.log2(m))
        assert float(entropy_integral(sp, sp.diam)) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_saturates_at_diam(self, session_rng):
        sp = random_space(session_rng, 14)
        deltas = np.linspace(0.05, 2.0, 12) * sp.diam
        vals = [float(entropy_integral(sp, d)) for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        top = float(entropy_integral(sp, sp.diam))
        assert float(entropy_integral(sp, 10 * sp.diam)) == pytest.approx(top, rel=1e-12)

    def test_riemann_bracket(self, session_rng):
        # left/right endpoint sums bracket the exact step-function integral
        for _ in range(5):
            sp = random_space(session_rng, 10)
            exact = float(entropy_integral(sp, sp.diam))
            grid = np.linspace(0.0, sp.diam, 20001)
            h = grid[1] - grid[0]
            sizes = cover_sizes(sp, grid).astype(float)
            f = np.sqrt(np.log2(np.maximum(sizes, 1.0)))
            left = h * f[:-1].sum()
            right = h * f[1:].sum()
            assert right - 1e-9 <= exact <= left + 1e-9

    def test_diagnostic_rows(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        assert _diagnostic_rows(sp) == [(1.0, 1.0)]

    def test_singleton_all_trivial(self):
        sp = build_from_distance_matrix([[0.0]])
        assert sp.diam == 0.0
        assert float(entropy_integral(sp, 1.0)) == 0.0
        assert _diagnostic_rows(sp) == []


def _diagnostic_rows(sp):
    """The rows of :func:`modulus_entropy_diagnostic`'s columns."""
    columns = modulus_entropy_diagnostic(sp)
    return list(zip(columns["delta"].tolist(), columns["delta_sqrt_log_cover"].tolist()))


def _same(got, want):
    """Equal values with equal reprs: the same types and the same float bits."""
    assert got == want
    assert repr(got) == repr(want)


class TestArrayBoundsMatchLoops:
    """Entropy integral, modulus diagnostic and Sudakov bound against their loops."""

    @staticmethod
    def _check(sp):
        ds = sp.breaks[1:]
        deltas = [1.0] if ds.size == 0 else [ds[0] / 2.0, *ds, sp.diam, 10.0 * sp.diam]
        for delta in deltas:
            _same(entropy_integral(sp, delta), entropy_integral_reference(sp, delta))
        _same(_diagnostic_rows(sp), modulus_entropy_diagnostic_reference(sp))
        _same(sudakov_bound(sp), sudakov_bound_reference(sp))

    @given(bound_spaces())
    @settings(max_examples=150, deadline=None)
    def test_match_reference_loops(self, sp):
        self._check(sp)

    def test_tied_sudakov_values_keep_first_witness(self):
        # 16 points at distance 1, one pair at 2: 1 * sqrt(log2 16) = 2 * sqrt(log2 2)
        D = np.ones((16, 16)) - np.eye(16)
        D[0, 1] = D[1, 0] = 2.0
        sp = build_from_distance_matrix(D)
        self._check(sp)
        assert sudakov_bound(sp) == (2.0, (1.0, 16))

    @pytest.mark.parametrize("D", [[[0.0]], np.zeros((3, 3))], ids=["singleton", "coincident"])
    def test_degenerate_spaces(self, D):
        sp = build_from_distance_matrix(D)
        self._check(sp)
        assert entropy_integral(sp, 1.0) == 0.0
        assert _diagnostic_rows(sp) == []
        assert sudakov_bound(sp) == (0.0, (0.0, 1))


# scale-table cases: a 3 x 2 grid under l1 (many tied distances), coincident
# points, and points on a line where point 7 enters and leaves the packing
# five times as the separation grows
GRID = np.array([[x, y] for x in range(3) for y in range(2)], dtype=float)
TIED = build_from_distance_matrix(cdist(GRID, GRID, "cityblock"))
COINCIDENT = build_from_points([[0.0], [1.0], [0.0], [1.0], [3.0], [0.0]])
TOGGLING = build_from_points([[6.0], [33.0], [48.0], [52.0], [39.0], [1.0], [55.0], [56.0]])


class TestBatchedKernels:
    @given(st.one_of(integer_metrics(), l1_metrics()))
    @settings(max_examples=150, deadline=None)
    def test_match_sequential_scans(self, sp):
        ds = sp.breaks[1:]
        radii = np.concatenate([[0.0], ds, ds / 2.0, 2.0 * ds])
        for r in radii:
            assert greedy_packing(sp, r) == greedy_packing_reference(sp, r)
        assert cover_sizes(sp, radii).tolist() == [cover_size_reference(sp, r) for r in radii]

    def test_toggling_case_toggles(self):
        point, _, _ = TOGGLING.packing_intervals
        assert np.count_nonzero(point == 7) == 5

    @given(st.one_of(integer_metrics(), l1_metrics()))
    @example(TIED)
    @example(COINCIDENT)
    @example(TOGGLING)
    @settings(max_examples=100, deadline=None)
    def test_scale_table_matches_sequential_scans(self, sp):
        # each column is constant on [breaks[k], breaks[k+1]): check it at
        # every break and at the midpoint of every gap
        b = sp.breaks
        assert b[0] == 0.0 and np.all(np.diff(b) > 0)
        assert b[1:].tolist() == distinct_distances_reference(sp)
        assert sp.covers.shape == sp.packs.shape == b.shape
        mids = (b[:-1] + b[1:]) / 2.0
        for k, a in enumerate(b):
            probes = [a] if k == len(mids) else [a, mids[k]]
            for r in probes:
                assert sp.covers[k] == cover_size_reference(sp, r)
                assert sp.packs[k] == len(greedy_packing_reference(sp, r))
            assert cover_sizes(sp, probes).tolist() == [sp.covers[k]] * len(probes)

    def test_scale_table_is_read_only_and_built_once(self, monkeypatch):
        calls = []
        real = metric_core.greedy_permutation
        monkeypatch.setattr(metric_core, "greedy_permutation",
                            lambda space: calls.append(space) or real(space))
        sp = build_from_points([[0.0], [1.0], [3.0]])
        covering_table(sp, [0.5, 1.0])
        entropy_integral(sp, sp.diam)
        modulus_entropy_diagnostic(sp)
        assert sudakov_bound(sp) == (3.0, (3.0, 2))
        assert len(calls) == 1
        assert sp.breaks.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert sp.covers.tolist() == [3, 2, 2, 1]
        assert sp.packs.tolist() == [3, 2, 2, 1]
        for column in (sp.breaks, sp.covers, sp.packs, *sp.packing_intervals):
            assert not column.flags.writeable

    def test_lookup_rejects_negative_radius(self):
        sp = build_from_points([[0.0], [1.0]])
        for bad in (-1e-300, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                cover_sizes(sp, [0.5, bad])

    def test_covering_table_matches_sequential_scans(self):
        sp = random_space(np.random.default_rng(11), 11)
        radii = [0.0, 0.1 * sp.diam, 0.25 * sp.diam, 0.5 * sp.diam]
        table = covering_table(sp, radii)
        assert list(table) == ["radius", "greedy_cover_size", "packing_size", "lower_bound",
                               "upper_bound"]
        assert table["radius"].tolist() == radii
        assert table["packing_size"].tolist() == [len(greedy_packing_reference(sp, r))
                                                  for r in radii]
        assert table["lower_bound"].tolist() == [len(greedy_packing_reference(sp, 2.0 * r))
                                                 for r in radii]
        covers = [cover_size_reference(sp, r) for r in radii]
        assert table["greedy_cover_size"].tolist() == table["upper_bound"].tolist() == covers

    def test_covering_table_rejects_negative_radius(self):
        sp = build_from_points([[0.0], [1.0]])
        for bad in (-1e-300, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                covering_table(sp, [0.5, bad])


@st.composite
def point_pairs(draw):
    """Two point sets (or one set twice) with duplicate rows, signed zeros and
    coordinates scaled near 1e-150, 1 or 1e150."""
    dim = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    scale = 10.0 ** (draw(st.sampled_from([-150, 0, 150])) + rng.uniform(-3, 3))
    A = scale * rng.standard_normal((n, dim))
    if n and dim and draw(st.booleans()):  # signed zeros in some coordinates
        A[rng.random((n, dim)) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    if n > 1 and draw(st.booleans()):  # duplicate rows
        A[rng.integers(n, size=n // 2)] = A[rng.integers(n, size=n // 2)]
    if draw(st.booleans()):
        return A, A
    m = draw(st.integers(min_value=0, max_value=60))
    return A, scale * rng.standard_normal((m, dim))


class TestEuclideanKernel:
    @given(point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_cdist(self, pair):
        A, B = pair
        got = metric_core.euclidean_distances(A, B)
        want = cdist(A, B)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_blocks_do_not_change_the_bits(self, monkeypatch):
        rng = np.random.default_rng(5)
        A, B = rng.standard_normal((70, 5)), rng.standard_normal((9, 5))
        monkeypatch.setattr(metric_core, "DISTANCE_BLOCK", 20)  # two rows per block
        assert metric_core.euclidean_distances(A, B).tobytes() == cdist(A, B).tobytes()

    def test_rejects_unequal_widths(self):
        with pytest.raises(ValueError, match="equal width"):
            metric_core.euclidean_distances(np.zeros((2, 3)), np.zeros((2, 2)))


@st.composite
def built_spaces(draw):
    """A builder and its input: a metric matrix, or points or a PSD covariance
    of any rank with one point or several, some coincident, at scales
    1e-150 to 1e150, or a full-rank random covariance at scales 1e-6 to
    1e6."""
    kind = draw(st.sampled_from(["points", "covariance", "matrix"]))
    if kind == "matrix":
        return build_from_distance_matrix, draw(st.one_of(integer_metrics(), l1_metrics())).dist
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    n, e = draw(st.integers(min_value=1, max_value=24)), draw(st.integers(-150, 150))
    if kind == "covariance" and abs(e) <= 6 and draw(st.booleans()):
        return build_from_covariance, random_covariance(rng, n, 10.0 ** e)
    A = rng.standard_normal((n, draw(st.integers(min_value=1, max_value=12))))
    copies = rng.integers(n, size=(draw(st.integers(min_value=0, max_value=n - 1)), 2))
    if kind == "points":
        for k, i in copies:
            A[k] = A[i]
        return build_from_points, 10.0 ** e * A
    C = 10.0 ** e * (A @ A.T)
    for k, i in copies:  # equal rows and columns of C: coincident points
        C[k, :], C[:, k] = C[i, :], C[:, i]
    return build_from_covariance, C


# collinear points at 1e150: one rounding of d(i, k) + d(k, j) is far above
# 1e-9, so only a tolerance relative to d(i, j) accepts them
_LINE = 1e150 * np.random.default_rng(0).standard_normal((12, 1))


@given(built_spaces())
@example((build_from_points, np.array([[0.0], [1e200]])))  # distances overflow
@example((build_from_points, _LINE))
@example((build_from_covariance, _LINE @ _LINE.T / 1e150))  # rank 1 at 1e150
@settings(max_examples=200, deadline=None)
def test_every_builder_returns_a_metric(case):
    build, data = case
    with np.errstate(over="ignore"):
        try:
            sp = build(data)
        except MetricValidationError as exc:  # only points whose distances overflow
            assert build is build_from_points and "finite" in str(exc)
            with pytest.raises(MetricValidationError, match="finite"):
                build_from_distance_matrix(metric_core.euclidean_distances(data, data))
            return
    D = sp.dist
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert np.all(D >= 0.0)
    # d(i, j) <= d(i, k) + d(k, j) for every k, all triples at once, within
    # the tolerance relative to d(i, j)
    tol = metric_core.TRIANGLE_TOL * np.maximum(D, 1.0)
    assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :] + tol[:, None, :])
    # the validator, run with all its checks on the matrix that the points and
    # covariance builders wrap without it, returns that matrix unchanged
    full = build_from_distance_matrix(D)
    assert full.dist.tobytes() == D.tobytes()
    assert full.diam == sp.diam
