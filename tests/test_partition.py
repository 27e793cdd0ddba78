import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscope import (ProbabilityMeasure, audit_cell, build_from_points, build_model,
                        build_partition, chained_functional, common_sample_oracle,
                        functional_M, lower_bound_report, sigma_profile, uniform_measure)
from chainscope.partition import _cell_mass, _grouping_level, _log_ratio_term

from conftest import integer_l1_space, random_covariance, random_weights
from oracles import build_partition_reference, common_sample_oracle_reference

COV_PAIR_D1 = np.array([[1.0, 0.5], [0.5, 1.0]])


def verify_tree_translation(tree, mu, t, delta):
    """(sigma(mu, t, delta), the tree sum over the cells A_k(t) holding t, and
    whether sigma <= sum + 1e-9); a zero-mass cell makes the sum infinite."""
    lhs = float(sigma_profile(mu, delta)[t])
    chain = [next(c for c in cells if t in c.members) for cells in tree.levels]
    D = tree.space.diam
    rhs = 0.0
    for k in range(1, len(chain)):
        term = _log_ratio_term(_cell_mass(mu, chain[k - 1]), _cell_mass(mu, chain[k]))
        if math.isinf(term):
            rhs = math.inf
            break
        rhs += tree.r * D * tree.r ** (-k) * term
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def pair_tree(n_samples=20000, seed=0):
    model = build_model(COV_PAIR_D1)
    oracle = common_sample_oracle(model, n_samples, seed)
    return model, build_partition(model.space, oracle, r=4.0)


def random_tree(rng, n, n_samples=4000):
    C = random_covariance(rng, n)
    model = build_model(C)
    oracle = common_sample_oracle(model, n_samples, int(rng.integers(2 ** 31)))
    return model, build_partition(model.space, oracle, r=4.0)


class TestConstruction:
    def test_two_point_shape(self):
        _, tree = pair_tree()
        assert tree.depth == 1
        assert [len(level) for level in tree.levels] == [1, 2]

    def test_singleton_depth_zero(self):
        model = build_model([[1.0]])
        oracle = common_sample_oracle(model, 100, 0)
        tree = build_partition(model.space, oracle)
        assert tree.depth == 0

    def test_r_must_exceed_one(self):
        model = build_model(np.eye(2))
        oracle = common_sample_oracle(model, 100, 0)
        with pytest.raises(ValueError):
            build_partition(model.space, oracle, r=1.0)

    def test_depth_cut_off_warns(self):
        # coincident points are never carved apart, so carving runs into the
        # depth bound: ceil(log_4(diam / smallest distance)) + 4 = 4 levels
        size_oracle = lambda subset: (float(len(subset)), 0.0)  # noqa: E731
        space = build_from_points([[0.0], [0.0], [1.0]])
        with pytest.warns(UserWarning, match="cut-off at level 4: largest leaf has 2 points"):
            tree = build_partition(space, size_oracle, r=4.0)
        assert tree.depth == 4
        assert sorted(len(c.members) for c in tree.levels[-1]) == [1, 2]
        # a close pair is carved apart before the bound, with no warning
        pts = np.r_[np.arange(15.0), 14.001][:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_partition(build_from_points(pts), size_oracle, r=4.0).depth > 2

    def test_levels_partition_space(self, session_rng):
        _, tree = random_tree(session_rng, 10)
        n = tree.space.n
        for cells in tree.levels:
            members = sorted(m for c in cells for m in c.members)
            assert members == list(range(n))

    def test_children_partition_parent(self, session_rng):
        _, tree = random_tree(session_rng, 10)
        for cells in tree.levels[:-1]:
            for parent in cells:
                got = sorted(m for c in parent.children for m in c.members)
                assert got == sorted(parent.members)

    def test_cells_inside_center_ball(self, session_rng):
        _, tree = random_tree(session_rng, 12)
        D = tree.space.dist
        for k, cells in enumerate(tree.levels):
            if k == 0:
                continue  # the root is the whole space by construction
            rad = tree.space.diam * tree.r ** (-k) / 2.0  # the carving radius
            for c in cells:
                assert all(D[c.center, m] <= rad + 1e-12 for m in c.members)

    def test_leaf_level_singletons(self, session_rng):
        _, tree = random_tree(session_rng, 8)
        assert all(len(c.members) == 1 for c in tree.levels[-1])


def _counted(oracle):
    calls = []

    def counted(subset):
        calls.append(len(subset))
        return oracle(subset)
    return counted, calls


def _carve_both(space, oracle, r):
    """(tree levels, reference levels, oracle calls of each)."""
    F, calls = _counted(oracle)
    F_ref, ref_calls = _counted(oracle)
    levels = build_partition(space, F, r=r).levels
    return levels, build_partition_reference(space, F_ref, r=r), len(calls), len(ref_calls)


def _assert_same_levels(levels, want):
    assert len(levels) == len(want)
    for cells, want_cells in zip(levels, want):
        assert len(cells) == len(want_cells)
        for c, w in zip(cells, want_cells):
            assert (c.members, c.center, c.level) == (w.members, w.center, w.level)
            assert all(type(m) is int for m in c.members) and type(c.center) is int
            assert (c.F_estimate, c.F_stderr) == (w.F_estimate, w.F_stderr)
            assert [a.members for a in c.children] == [a.members for a in w.children]


@given(st.booleans(), st.integers(min_value=2, max_value=16), st.sampled_from([1.5, 2.0, 4.0]),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60, deadline=None)
def test_carving_matches_reference(tied, n, r, seed):
    rng = np.random.default_rng(seed)
    if tied:
        # integer l1 grid with a size oracle: ties everywhere, so the first
        # maximum in member order decides most centers
        space = integer_l1_space(rng, n)
        assume(space.n >= 2)
        oracle = lambda subset: (float(len(subset) // 2), float(sum(subset)))  # noqa: E731
    else:
        model = build_model(random_covariance(rng, n))
        space, oracle = model.space, common_sample_oracle(model, 200, seed)
    levels, want, calls, ref_calls = _carve_both(space, oracle, r)
    _assert_same_levels(levels, want)
    assert calls <= ref_calls


def test_carving_rescores_touched_probe_balls():
    # on 0..9 at r = 1.5 the first carve takes 0..5 around 2; the probe ball
    # of 6 loses 4 and 5, so its stale score would beat 7 for the next center
    space = build_from_points(np.arange(10.0)[:, None])
    size_oracle = lambda subset: (float(len(subset)), 0.0)  # noqa: E731
    levels, want, _, _ = _carve_both(space, size_oracle, 1.5)
    _assert_same_levels(levels, want)
    assert [c.center for c in levels[1]] == [2, 7]


def test_carving_reuses_untouched_scores():
    model = build_model(random_covariance(np.random.default_rng(64), 64))
    levels, want, calls, ref_calls = _carve_both(
        model.space, common_sample_oracle(model, 2000, 5), 4.0)
    _assert_same_levels(levels, want)
    assert 4 * calls < ref_calls
    # r = 4 carves this covariance into single points at level 1: each point's
    # probe ball is the point itself, so the carved cell takes its stored F
    # and F runs once at the root and once per probe ball
    assert [len(cells) for cells in levels] == [1, 64]
    assert calls == 1 + 64


class TestOracle:
    def test_monotone_under_inclusion(self):
        model = build_model(random_covariance(np.random.default_rng(3), 8))
        oracle = common_sample_oracle(model, 5000, 1)
        full, _ = oracle(range(8))
        sub, _ = oracle(range(4))
        assert sub <= full + 1e-12  # common draws make this exact, not just in mean

    @pytest.mark.parametrize("n, n_samples", [(2, 1), (24, 3001), (64, 25000)])
    def test_matches_row_layout_reference(self, n, n_samples):
        rng = np.random.default_rng(n)
        model = build_model(random_covariance(rng, n))
        oracle = common_sample_oracle(model, n_samples, 7)
        reference = common_sample_oracle_reference(model, n_samples, 7)
        for _ in range(20):
            subset = tuple(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            assert oracle(subset) == reference(subset)


class TestChainedFunctional:
    def test_two_point_value(self):
        _, tree = pair_tree()
        mu = uniform_measure(tree.space)
        # one split at level 1: r * diam r^-1 * 2 * (1/2) * sqrt(log2 2) = 1
        assert chained_functional(tree, mu, mu) == pytest.approx(1.0, abs=1e-12)

    def test_translation_two_point(self):
        _, tree = pair_tree()
        mu = uniform_measure(tree.space)
        lhs, rhs, ok = verify_tree_translation(tree, mu, 0, tree.space.diam)
        assert ok
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_charged_cell_infinite(self):
        _, tree = pair_tree()
        mu = ProbabilityMeasure(tree.space, [1.0, 0.0])
        nu = uniform_measure(tree.space)
        assert chained_functional(tree, mu, nu) == math.inf

    def test_translation_and_domination_random(self, session_rng):
        for _ in range(20):
            n = int(session_rng.integers(3, 10))
            _, tree = random_tree(session_rng, n)
            mu = ProbabilityMeasure(tree.space, random_weights(session_rng, n))
            nu = ProbabilityMeasure(tree.space, random_weights(session_rng, n))
            t = int(session_rng.integers(n))
            delta = float(session_rng.uniform(0.3, 1.0)) * tree.space.diam
            lhs, rhs, ok = verify_tree_translation(tree, mu, t, delta)
            assert ok, (lhs, rhs)
            chained = chained_functional(tree, mu, nu)
            assert functional_M(mu, nu) <= chained + 1e-9


class TestGrouping:
    def test_block_sizes_pattern(self):
        # cumulative block cuts 2, 4, 16, 256: 10 cells need blocks up to l0 = 2
        assert _grouping_level(10) == 2
        assert [_grouping_level(m) for m in (0, 1, 2, 3, 4, 5, 16, 17, 256, 257)] == \
            [0, 0, 0, 1, 1, 2, 2, 3, 3, 4]

    def test_block_sizes_cover_count(self):
        # the blocks up to l0 cover the cells, the blocks before it do not
        for m in range(1, 40):
            l0 = _grouping_level(m)
            assert 2 ** (2 ** l0) >= m
            assert l0 == 0 or 2 ** (2 ** (l0 - 1)) < m

    def test_bound_stays_below_four(self):
        # the grouping bound 1 + sum_{l<=l0} (2^(l/2)+1)/2^(2^l)
        for l0 in range(8):
            assert 1.0 + sum((2.0 ** (l / 2.0) + 1.0) / 2.0 ** (2 ** l)
                             for l in range(l0 + 1)) < 4.0


class TestAudits:
    def test_two_point_audit_values(self):
        _, tree = pair_tree(n_samples=100000, seed=7)
        mu = uniform_measure(tree.space)
        audit = audit_cell(tree, mu, tree.levels[0][0])
        esup = tree.levels[0][0].F_estimate
        assert audit.lhs == pytest.approx(esup + 4 * 0.25, abs=1e-9)
        assert audit.rhs_core == pytest.approx(0.25, abs=1e-12)
        assert audit.children_term == 0.0
        assert audit.empirical_L == pytest.approx(
            0.25 / (2 * (esup + 1.0)), rel=1e-9)
        assert not audit.low_confidence

    def test_lower_bound_report_two_point(self):
        _, tree = pair_tree(n_samples=100000, seed=7)
        mu = uniform_measure(tree.space)
        esup = tree.levels[0][0].F_estimate
        rep = lower_bound_report(tree, mu, esup)
        assert rep["induction_sum"] == pytest.approx(0.25, abs=1e-12)
        expected = 0.25 / (2 * (esup + 4 * 0.25))
        assert rep["empirical_constant"] == pytest.approx(expected, rel=1e-9)

    def test_audit_finite_on_random(self, session_rng):
        _, tree = random_tree(session_rng, 9)
        mu = uniform_measure(tree.space)
        for cells in tree.levels[:-1]:
            for cell in cells:
                if cell.children:
                    audit = audit_cell(tree, mu, cell)
                    assert math.isfinite(audit.empirical_L)
                    assert audit.rhs_core >= 0.0
