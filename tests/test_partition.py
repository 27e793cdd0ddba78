import math
import warnings

import numpy as np
import pytest

from chainscope import (ProbabilityMeasure, build_from_distance_matrix, build_from_points,
                        build_model, build_partition, chained_functional,
                        common_sample_oracle, functional_M, lower_bound_report,
                        audit_cell, uniform_measure, verify_tree_translation)
from chainscope.partition import grouping_block_sizes, grouping_bound

from conftest import random_covariance, random_weights

COV_PAIR_D1 = np.array([[1.0, 0.5], [0.5, 1.0]])


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
        assert tree.radius(1) == 0.125  # diam r^-1 / 2

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
        # a close pair survives two levels of carving at r = 4
        pts = np.r_[np.arange(15.0), 14.001][:, None]
        space = build_from_points(pts)
        size_oracle = lambda subset: (float(len(subset)), 0.0)  # noqa: E731
        with pytest.warns(UserWarning, match="cut-off at level 2: largest leaf has 2 points"):
            tree = build_partition(space, size_oracle, r=4.0, max_levels=0)
        assert tree.depth == 2
        assert max(len(c.members) for c in tree.levels[-1]) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_partition(space, size_oracle, r=4.0).depth > 2

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
            rad = tree.radius(k)
            for c in cells:
                assert all(D[c.center, m] <= rad + 1e-12 for m in c.members)

    def test_leaf_level_singletons(self, session_rng):
        _, tree = random_tree(session_rng, 8)
        assert all(len(c.members) == 1 for c in tree.levels[-1])


class TestOracle:
    def test_monotone_under_inclusion(self):
        model = build_model(random_covariance(np.random.default_rng(3), 8))
        oracle = common_sample_oracle(model, 5000, 1)
        full, _ = oracle(range(8))
        sub, _ = oracle(range(4))
        assert sub <= full + 1e-12  # common draws make this exact, not just in mean


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
            assert functional_M(tree.space, mu, nu) <= chained + 1e-9


class TestGrouping:
    def test_block_sizes_pattern(self):
        sizes, l0 = grouping_block_sizes(10)
        # cumulative cuts at 2, 4, 16 capped at 10
        assert sizes == [2, 2, 6]
        assert l0 == 2

    def test_block_sizes_cover_count(self):
        for m in range(1, 40):
            sizes, _ = grouping_block_sizes(m)
            assert sum(sizes) == m

    def test_bound_stays_below_four(self):
        for l0 in range(8):
            assert grouping_bound(l0) < 4.0


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
