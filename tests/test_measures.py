import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscope import (GAUSSIAN_LOG, YOUNG_INVERSE, ProbabilityMeasure,
                        build_from_covariance, build_from_distance_matrix, build_from_points,
                        functional_M, point_mass, sigma, sigma_profile,
                        subadditivity_check, uniform_measure, young_power)
from chainscope.measures import MeasureError, SigmaEvaluator

from conftest import random_covariance, random_space, random_weights
from oracles import SigmaReference


def riemann_bracket(space, weights, t, delta, mode=GAUSSIAN_LOG, young=None,
                    step_frac=1e-5):
    """Left/right endpoint Riemann sums bracketing sigma (nonincreasing
    integrand)."""
    delta = min(delta, space.diam)
    h = space.diam * step_frac
    k = int(math.ceil(delta / h))
    grid = np.linspace(0.0, delta, k + 1)
    order = np.argsort(space.dist[t], kind="stable")
    ends = space.dist[t][order]
    cumw = np.cumsum(np.asarray(weights)[order])
    mass = cumw[np.searchsorted(ends, grid, side="right") - 1]
    if np.any(mass <= 0):
        return math.inf, math.inf
    if mode == GAUSSIAN_LOG:
        f = np.sqrt(np.log2(np.maximum(1.0 / mass, 1.0)))
    else:
        f = young.inverse(1.0 / mass)
    widths = np.diff(grid)
    left = float(np.sum(widths * f[:-1]))
    right = float(np.sum(widths * f[1:]))
    return right, left


class TestProbabilityMeasure:
    def test_renormalizes_small_drift(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        mu = ProbabilityMeasure(sp, [0.5 + 4e-10, 0.5])
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(MeasureError, match="sum"):
            ProbabilityMeasure(sp, [0.7, 0.5])

    def test_rejects_negative(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(MeasureError, match="negative"):
            ProbabilityMeasure(sp, [1.2, -0.2])

    def test_ball_mass_closed_ball(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        mu = uniform_measure(sp)
        assert mu.mass(0, 1.0) == pytest.approx(2.0 / 3.0)
        assert mu.mass(0, 0.999) == pytest.approx(1.0 / 3.0)


class TestYoungFamily:
    def test_zero_and_one(self):
        phi = young_power(2.0)
        assert phi.evaluate(0.0) == 0.0
        assert phi.evaluate(1.0) == 1.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_inverse_roundtrip(self, q):
        phi = young_power(q)
        xs = np.linspace(0.01, 3.0, 40)
        assert np.allclose(phi.inverse(phi.evaluate(xs)), xs, atol=1e-10)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_midpoint_convexity(self, q):
        phi = young_power(q)
        xs = np.linspace(0.0, 2.5, 26)
        for a in xs:
            for b in xs:
                mid = phi.evaluate((a + b) / 2.0)
                assert mid <= (phi.evaluate(a) + phi.evaluate(b)) / 2.0 + 1e-9

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_growth_constant_on_range(self, q):
        # phi(2x) >= 2 C phi(x) on the declared range
        phi = young_power(q)
        lo, hi = phi.doubling_range
        xs = np.linspace(lo + 1e-6, hi, 50)
        lhs = phi.evaluate(2 * xs)
        rhs = 2.0 * phi.doubling_constant * phi.evaluate(xs)
        assert np.all(lhs >= rhs * (1 - 1e-9))

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            young_power(0.5)


class TestSigmaClosedForms:
    def test_two_point_uniform_gaussian(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        mu = uniform_measure(sp)
        assert sigma(sp, mu, 0, sp.diam) == pytest.approx(1.0, abs=1e-12)
        assert functional_M(sp, mu, mu) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_scales_with_distance(self):
        d = 2.75
        sp = build_from_distance_matrix([[0, d], [d, 0]])
        mu = uniform_measure(sp)
        assert functional_M(sp, mu, mu) == pytest.approx(d, abs=1e-12)

    def test_measures_on_different_spaces_rejected(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        other = build_from_distance_matrix([[0, 2], [2, 0]])
        twin = build_from_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(MeasureError, match="same space"):
            functional_M(sp, uniform_measure(sp), uniform_measure(other))
        # an equal distance matrix is the same space
        assert functional_M(sp, uniform_measure(sp), uniform_measure(twin)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_equidistant_matches_entropy_value(self, m):
        a = 1.3
        D = a * (np.ones((m, m)) - np.eye(m))
        sp = build_from_distance_matrix(D)
        mu = uniform_measure(sp)
        assert functional_M(sp, mu, mu) == pytest.approx(a * math.sqrt(math.log2(m)), rel=1e-12)

    def test_two_point_young_inverse(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        mu = uniform_measure(sp)
        phi = young_power(2.0)
        # integrand is phi^-1(2) = sqrt(log2 3) on (0, 1)
        expected = math.sqrt(math.log2(3.0))
        assert functional_M(sp, mu, mu, mode=YOUNG_INVERSE, young=phi) == \
            pytest.approx(expected, rel=1e-12)

    def test_point_mass_sigma_at_owner(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        mu = point_mass(sp, 0)
        # ball around 0 has mass 1 at every radius: integrand 0
        assert sigma(sp, mu, 0, sp.diam) == 0.0
        # ball around 2 (point 3.0) has mass 0 until eps = 3
        assert sigma(sp, mu, 2, sp.diam) == math.inf

    def test_infinity_propagates_only_when_charged(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        mu = point_mass(sp, 0)
        # sigma is infinite away from the atom, but nu there carries no mass
        assert math.isfinite(functional_M(sp, mu, point_mass(sp, 0)))
        nu = ProbabilityMeasure(sp, [0.5, 0.5, 0.0])
        assert functional_M(sp, mu, nu) == math.inf

    def test_delta_beyond_diam_saturates(self, session_rng):
        sp = random_space(session_rng, 8)
        mu = ProbabilityMeasure(sp, random_weights(session_rng, 8))
        a = functional_M(sp, mu, mu, delta=sp.diam)
        b = functional_M(sp, mu, mu, delta=5 * sp.diam)
        assert a == pytest.approx(b, rel=1e-12)

    def test_riemann_bracket_random(self, session_rng):
        for _ in range(8):
            sp = random_space(session_rng, 12)
            w = random_weights(session_rng, 12)
            mu = ProbabilityMeasure(sp, w)
            t = int(session_rng.integers(12))
            delta = float(session_rng.uniform(0.2, 1.2)) * sp.diam
            val = sigma(sp, mu, t, delta)
            lo, hi = riemann_bracket(sp, w, t, delta)
            assert lo - 1e-9 <= val <= hi + 1e-9
            assert hi - lo <= 1e-4 * (1.0 + val)


class TestGradients:
    # the jacobian holds full-mass blocks constant, which is exact only along
    # simplex-tangent directions, so finite differences use e_u - e_v moves

    def test_jacobian_matches_finite_differences(self, session_rng):
        for mode in (GAUSSIAN_LOG, YOUNG_INVERSE):
            sp = random_space(session_rng, 7)
            young = young_power(2.0) if mode == YOUNG_INVERSE else None
            ev = SigmaEvaluator(sp, None, mode, young)
            w = random_weights(session_rng, 7)
            w = np.maximum(w, 1e-3)
            w /= w.sum()
            J = ev.jacobian(w)
            h = 1e-5
            for u in range(sp.n):
                v = (u + 1) % sp.n
                d = np.zeros(sp.n)
                d[u], d[v] = 1.0, -1.0
                fd = (ev.profile(w + h * d) - ev.profile(w - h * d)) / (2 * h)
                assert np.allclose(J @ d, fd, atol=1e-3), (mode, u)

    def test_m_self_grad_matches_finite_differences(self, session_rng):
        sp = random_space(session_rng, 6)
        ev = SigmaEvaluator(sp)
        w = random_weights(session_rng, 6)
        w = np.maximum(w, 1e-3)
        w /= w.sum()
        g = ev.m_self_grad(w)
        h = 1e-5
        for u in range(sp.n):
            v = (u + 1) % sp.n
            d = np.zeros(sp.n)
            d[u], d[v] = 1.0, -1.0
            fd = (ev.m_self(w + h * d) - ev.m_self(w - h * d)) / (2 * h)
            assert float(g @ d) == pytest.approx(fd, abs=1e-3)


class TestSubadditivity:
    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_holds_above_one(self, x, y):
        assert subadditivity_check(x, y)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            subadditivity_check(0.5, 2.0)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_sigma_monotone_in_delta(n, seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, n)
    w = random_weights(rng, n)
    mu = ProbabilityMeasure(sp, w)
    deltas = np.sort(rng.uniform(0, 1.5 * sp.diam, size=4))
    t = int(rng.integers(n))
    vals = [sigma(sp, mu, t, float(d)) for d in deltas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_functional_linear_in_nu(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, 6)
    mu = ProbabilityMeasure(sp, random_weights(rng, 6))
    nu1 = ProbabilityMeasure(sp, random_weights(rng, 6))
    nu2 = ProbabilityMeasure(sp, random_weights(rng, 6))
    lam = float(rng.uniform())
    mix = ProbabilityMeasure(sp, lam * nu1.weights + (1 - lam) * nu2.weights)
    lhs = functional_M(sp, mu, mix)
    rhs = lam * functional_M(sp, mu, nu1) + (1 - lam) * functional_M(sp, mu, nu2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_profile_matches_pointwise(session_rng):
    sp = random_space(session_rng, 9)
    mu = ProbabilityMeasure(sp, random_weights(session_rng, 9))
    prof = sigma_profile(sp, mu, sp.diam)
    for t in range(sp.n):
        assert prof[t] == pytest.approx(sigma(sp, mu, t, sp.diam), rel=1e-12)


def _evaluator_pair(space, mode, delta):
    young = young_power(2.0) if mode == YOUNG_INVERSE else None
    ev = SigmaEvaluator(space, delta, mode, young)
    return ev, SigmaReference(ev), young


def _integer_l1_space(rng, n):
    """Distinct points of a 4 x 4 grid under l1: many tied distances."""
    X = np.unique(rng.integers(0, 4, size=(n, 2)), axis=0)
    return build_from_distance_matrix(np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2))


_delta_fracs = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=0.95))


@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), _delta_fracs)
@settings(max_examples=40, deadline=None)
def test_dense_evaluator_bit_identical_on_distinct_distances(n, seed, mode, delta_frac):
    rng = np.random.default_rng(seed)
    space = build_from_covariance(random_covariance(rng, n))
    off = space.dist[np.triu_indices(n, k=1)]
    assert np.unique(off).size == off.size
    delta = delta_frac * space.diam
    ev, ref, young = _evaluator_pair(space, mode, delta)
    mu = ProbabilityMeasure(space, random_weights(rng, n))
    nu = ProbabilityMeasure(space, random_weights(rng, n))
    assert np.array_equal(ev.profile(mu.weights), ref.profile(mu.weights))
    assert np.array_equal(ev.jacobian(mu.weights), ref.jacobian(mu.weights))
    assert ev.m_self(mu.weights) == ref.m_self(mu.weights)
    assert functional_M(space, mu, nu, delta, mode, young) == \
        ref.nu_average(mu.weights, nu.weights)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), _delta_fracs)
@settings(max_examples=40, deadline=None)
def test_dense_evaluator_matches_reference_on_tied_distances(n, seed, mode, delta_frac):
    rng = np.random.default_rng(seed)
    space = _integer_l1_space(rng, n)
    assume(space.n >= 2)
    ev, ref, _ = _evaluator_pair(space, mode, delta_frac * space.diam)
    w = random_weights(rng, space.n)
    # zero gaps inside tied blocks change the dot product's partial sums
    np.testing.assert_allclose(ev.profile(w), ref.profile(w), rtol=1e-15, atol=0)
    assert np.array_equal(ev.jacobian(w), ref.jacobian(w))


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), _delta_fracs)
@settings(max_examples=30, deadline=None)
def test_infinity_only_where_nu_charges_a_zero_mass_ball(n, seed, mode, delta_frac):
    rng = np.random.default_rng(seed)
    space = build_from_covariance(random_covariance(rng, n))
    delta = delta_frac * space.diam
    ev, ref, young = _evaluator_pair(space, mode, delta)
    w = random_weights(rng, n)
    empty = int(rng.integers(n))
    w[empty] = 0.0
    mu = ProbabilityMeasure(space, w / w.sum())
    # the ball around the uncharged point is empty below its nearest distance
    assert ev.profile(mu.weights)[empty] == math.inf
    assert math.isfinite(functional_M(space, mu, mu, delta, mode, young))
    nu = random_weights(rng, n)
    nu[empty] = max(nu[empty], 0.1)
    nu = ProbabilityMeasure(space, nu / nu.sum())
    assert functional_M(space, mu, nu, delta, mode, young) == math.inf
    assert ref.nu_average(mu.weights, nu.weights) == math.inf


@pytest.mark.parametrize("mode", [GAUSSIAN_LOG, YOUNG_INVERSE])
def test_zero_mass_ball_raises_no_floating_point_warning(mode):
    sp = build_from_points([[0.0], [1.0], [3.0], [3.5]])
    young = young_power(2.0) if mode == YOUNG_INVERSE else None
    mu = ProbabilityMeasure(sp, [0.5, 0.5, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = SigmaEvaluator(sp, None, mode, young)
        prof = ev.profile(mu.weights)
        assert np.isinf(prof[2:]).all() and np.isfinite(prof[:2]).all()
        assert np.isfinite(ev.jacobian(mu.weights)).all()
        assert functional_M(sp, mu, mu, mode=mode, young=young) < math.inf
        assert functional_M(sp, mu, uniform_measure(sp), mode=mode, young=young) == math.inf
