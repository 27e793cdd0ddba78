import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscope import (GAUSSIAN_LOG, YOUNG_INVERSE, MeasureError, ProbabilityMeasure,
                        build_from_distance_matrix, build_from_points, functional_M,
                        sigma_profile, uniform_measure)
from chainscope.measures import SigmaEvaluator, nu_average
from chainscope.metric_core import build_from_covariance

from conftest import integer_l1_space, random_covariance, random_space, random_weights
from oracles import (SigmaReference, _rows_reference, jacobian_reference, nu_average_reference,
                     sigma_profile_reference)


def phi(x, q):
    """The Young function phi_q(x) = 2^(x^q) - 1; expm1 keeps precision near
    0, where the difference cancels."""
    return np.expm1(math.log(2.0) * np.power(x, q))


def phi_inverse(y, q):
    return np.power(np.log2(1.0 + y), 1.0 / q)


def riemann_bracket(space, weights, t, delta, step_frac=1e-5):
    """Left/right endpoint Riemann sums bracketing sigma in gaussian-log mode
    (nonincreasing integrand)."""
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
    f = np.sqrt(np.log2(np.maximum(1.0 / mass, 1.0)))
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


class TestYoungFamily:
    def test_zero_and_one(self):
        assert phi(0.0, 2.0) == 0.0
        assert phi(1.0, 2.0) == 1.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_inverse_roundtrip(self, q):
        xs = np.linspace(0.01, 3.0, 40)
        assert np.allclose(phi_inverse(phi(xs, q), q), xs, atol=1e-10)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_integrand_is_the_inverse_at_one_over_p(self, q):
        p = np.linspace(0.01, 1.0, 40)
        f = SigmaEvaluator(build_from_points([[0.0], [1.0]]), None, YOUNG_INVERSE, q).f
        assert np.allclose(f(p), np.log2(1.0 + 1.0 / p) ** (1.0 / q), rtol=1e-14, atol=0)
        assert f(np.array([1.0]))[0] == 1.0  # phi_q(1) = 1

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_midpoint_convexity(self, q):
        xs = np.linspace(0.0, 2.5, 26)
        for a in xs:
            for b in xs:
                mid = phi((a + b) / 2.0, q)
                assert mid <= (phi(a, q) + phi(b, q)) / 2.0 + 1e-9

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_growth_constant_on_range(self, q):
        # phi(2x) >= 2 C phi(x) on (0, 1] with C = 2^(q - 1)
        xs = np.linspace(1e-6, 1.0, 50)
        assert np.all(phi(2 * xs, q) >= 2.0 * 2.0 ** (q - 1.0) * phi(xs, q) * (1 - 1e-9))

    def test_q_below_one_rejected(self):
        sp = build_from_points([[0.0], [1.0]])
        with pytest.raises(ValueError, match="q must be >= 1"):
            SigmaEvaluator(sp, None, YOUNG_INVERSE, 0.5)
        with pytest.raises(ValueError, match="q must be >= 1"):
            sigma_profile(uniform_measure(sp), sp.diam, YOUNG_INVERSE, 0.5)


class TestSigmaClosedForms:
    def test_two_point_uniform_gaussian(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        mu = uniform_measure(sp)
        assert sigma_profile(mu, sp.diam)[0] == pytest.approx(1.0, abs=1e-12)
        assert functional_M(mu, mu) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_scales_with_distance(self):
        d = 2.75
        sp = build_from_distance_matrix([[0, d], [d, 0]])
        mu = uniform_measure(sp)
        assert functional_M(mu, mu) == pytest.approx(d, abs=1e-12)

    def test_measures_on_different_spaces_rejected(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        other = build_from_distance_matrix([[0, 2], [2, 0]])
        twin = build_from_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(MeasureError, match="same space"):
            functional_M(uniform_measure(sp), uniform_measure(other))
        # an equal distance matrix is the same space
        assert functional_M(uniform_measure(sp), uniform_measure(twin)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_equidistant_matches_entropy_value(self, m):
        a = 1.3
        D = a * (np.ones((m, m)) - np.eye(m))
        sp = build_from_distance_matrix(D)
        mu = uniform_measure(sp)
        assert functional_M(mu, mu) == pytest.approx(a * math.sqrt(math.log2(m)), rel=1e-12)

    def test_two_point_young_inverse(self):
        sp = build_from_distance_matrix([[0, 1], [1, 0]])
        mu = uniform_measure(sp)
        # integrand is phi^-1(2) = sqrt(log2 3) on (0, 1)
        expected = math.sqrt(math.log2(3.0))
        prof = SigmaEvaluator(sp, None, YOUNG_INVERSE).profile(mu.weights)
        assert nu_average(prof, mu.weights) == pytest.approx(expected, rel=1e-12)

    def test_point_mass_sigma_at_owner(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        mu = ProbabilityMeasure(sp, [1.0, 0.0, 0.0])  # the point mass at 0
        prof = sigma_profile(mu, sp.diam)
        # ball around 0 has mass 1 at every radius: integrand 0
        assert prof[0] == 0.0
        # ball around 2 (point 3.0) has mass 0 until eps = 3
        assert prof[2] == math.inf

    def test_infinity_propagates_only_when_charged(self):
        sp = build_from_points([[0.0], [1.0], [3.0]])
        mu = ProbabilityMeasure(sp, [1.0, 0.0, 0.0])  # the point mass at 0
        # sigma is infinite away from the atom, but nu there carries no mass
        assert math.isfinite(functional_M(mu, mu))
        nu = ProbabilityMeasure(sp, [0.5, 0.5, 0.0])
        assert functional_M(mu, nu) == math.inf

    def test_delta_beyond_diam_saturates(self, session_rng):
        sp = random_space(session_rng, 8)
        mu = ProbabilityMeasure(sp, random_weights(session_rng, 8))
        a = nu_average(sigma_profile(mu, sp.diam), mu.weights)
        b = nu_average(sigma_profile(mu, 5 * sp.diam), mu.weights)
        assert a == b == functional_M(mu, mu)

    def test_riemann_bracket_random(self, session_rng):
        for _ in range(8):
            sp = random_space(session_rng, 12)
            w = random_weights(session_rng, 12)
            mu = ProbabilityMeasure(sp, w)
            t = int(session_rng.integers(12))
            delta = float(session_rng.uniform(0.2, 1.2)) * sp.diam
            val = sigma_profile(mu, delta)[t]
            lo, hi = riemann_bracket(sp, w, t, delta)
            assert lo - 1e-9 <= val <= hi + 1e-9
            assert hi - lo <= 1e-4 * (1.0 + val)


class TestGradients:
    # the jacobian holds full-mass blocks constant, which is exact only along
    # simplex-tangent directions, so finite differences use e_u - e_v moves

    def test_jacobian_matches_finite_differences(self, session_rng):
        sp = random_space(session_rng, 7)
        ev = SigmaEvaluator(sp)
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
            assert np.allclose(J @ d, fd, atol=1e-3), u
        # no search differentiates a young-inverse evaluator
        with pytest.raises(ValueError, match="gaussian-log mode only"):
            SigmaEvaluator(sp, None, YOUNG_INVERSE).jacobian(w)

    def test_m_self_grad_matches_finite_differences(self, session_rng):
        sp = random_space(session_rng, 6)
        ev = SigmaEvaluator(sp)
        w = random_weights(session_rng, 6)
        w = np.maximum(w, 1e-3)
        w /= w.sum()
        g = ev.m_self_grad(w, ev.profile(w))
        h = 1e-5
        for u in range(sp.n):
            v = (u + 1) % sp.n
            d = np.zeros(sp.n)
            d[u], d[v] = 1.0, -1.0
            fd = (ev.m_self(w + h * d) - ev.m_self(w - h * d)) / (2 * h)
            assert float(g @ d) == pytest.approx(fd, abs=1e-3)


def subadditivity_check(x, y):
    """sqrt(log2(x*y)) <= sqrt(log2 x) + sqrt(log2 y) for x, y >= 1."""
    if x < 1 or y < 1:
        raise ValueError("subadditivity_check requires x, y >= 1")
    lhs = math.sqrt(math.log2(x * y))
    rhs = math.sqrt(math.log2(x)) + math.sqrt(math.log2(y))
    return lhs <= rhs + 1e-12


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
    vals = [sigma_profile(mu, float(d))[t] for d in deltas]
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
    lhs = functional_M(mu, mix)
    rhs = lam * functional_M(mu, nu1) + (1 - lam) * functional_M(mu, nu2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_profile_matches_pointwise(session_rng):
    sp = random_space(session_rng, 9)
    mu = ProbabilityMeasure(sp, random_weights(session_rng, 9))
    prof = sigma_profile(mu, sp.diam)
    for t in range(sp.n):
        one_point = SigmaReference(SigmaEvaluator(sp, sp.diam)).sigma_one(mu.weights, t)
        assert prof[t] == pytest.approx(one_point, rel=1e-12)


def _evaluator_pair(space, mode, delta):
    ev = SigmaEvaluator(space, delta, mode)
    return ev, SigmaReference(ev)


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
    ev, ref = _evaluator_pair(space, mode, delta)
    mu = ProbabilityMeasure(space, random_weights(rng, n))
    nu = ProbabilityMeasure(space, random_weights(rng, n))
    assert np.array_equal(ev.profile(mu.weights), ref.profile(mu.weights))
    if mode == GAUSSIAN_LOG:
        assert np.array_equal(ev.jacobian(mu.weights), ref.jacobian(mu.weights))
    assert ev.m_self(mu.weights) == ref.m_self(mu.weights)
    assert nu_average(ev.profile(mu.weights), nu.weights) == \
        ref.nu_average(mu.weights, nu.weights)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), _delta_fracs)
@settings(max_examples=40, deadline=None)
def test_dense_evaluator_matches_reference_on_tied_distances(n, seed, mode, delta_frac):
    rng = np.random.default_rng(seed)
    space = integer_l1_space(rng, n)
    assume(space.n >= 2)
    ev, ref = _evaluator_pair(space, mode, delta_frac * space.diam)
    w = random_weights(rng, space.n)
    # zero gaps inside tied blocks change the dot product's partial sums
    np.testing.assert_allclose(ev.profile(w), ref.profile(w), rtol=1e-15, atol=0)
    if mode == GAUSSIAN_LOG:
        assert np.array_equal(ev.jacobian(w), ref.jacobian(w))


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), _delta_fracs)
@settings(max_examples=30, deadline=None)
def test_infinity_only_where_nu_charges_a_zero_mass_ball(n, seed, mode, delta_frac):
    rng = np.random.default_rng(seed)
    space = build_from_covariance(random_covariance(rng, n))
    delta = delta_frac * space.diam
    ev, ref = _evaluator_pair(space, mode, delta)
    w = random_weights(rng, n)
    empty = int(rng.integers(n))
    w[empty] = 0.0
    mu = ProbabilityMeasure(space, w / w.sum())
    # the ball around the uncharged point is empty below its nearest distance
    prof = ev.profile(mu.weights)
    assert prof[empty] == math.inf
    assert math.isfinite(nu_average(prof, mu.weights))
    nu = random_weights(rng, n)
    nu[empty] = max(nu[empty], 0.1)
    nu = ProbabilityMeasure(space, nu / nu.sum())
    assert nu_average(prof, nu.weights) == math.inf
    assert ref.nu_average(mu.weights, nu.weights) == math.inf


def _deltas(space):
    """A delta below the smallest distance, inside the range, or at or
    beyond the diameter of ``space``."""
    off = space.dist[np.triu_indices(space.n, k=1)]
    return st.one_of(
        st.floats(min_value=0.05, max_value=0.95).map(lambda f: f * off[off > 0].min()),
        st.floats(min_value=0.05, max_value=0.95).map(lambda f: f * space.diam),
        st.sampled_from([1.0, 2.0]).map(lambda f: f * space.diam))


@st.composite
def _kernel_cases(draw):
    """A space with or without tied distances, a delta below the smallest
    distance, inside the range or at and beyond the diameter, and weights
    with some zeros, so that empty balls of positive length occur."""
    n = draw(st.integers(min_value=2, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    kind = draw(st.sampled_from(["covariance", "integer", "equilateral"]))
    if kind == "covariance":
        space = build_from_covariance(random_covariance(rng, n))
    elif kind == "integer":
        space = integer_l1_space(rng, n)
    else:
        space = build_from_distance_matrix(rng.uniform(0.5, 2.0) * (1.0 - np.eye(n)))
    assume(space.n >= 2)
    delta = draw(_deltas(space))
    w = random_weights(rng, space.n)
    w[rng.permutation(space.n)[:draw(st.integers(min_value=0, max_value=space.n - 1))]] = 0.0
    mu = ProbabilityMeasure(space, w / w.sum())
    nu = ProbabilityMeasure(space, random_weights(rng, space.n))
    return space, delta, mu, nu


@given(_kernel_cases(), st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_dense_kernels_bit_identical_to_their_first_form(case, mode, jacobian_first):
    space, delta, mu, nu = case
    ev = SigmaEvaluator(space, delta, mode)
    w = mu.weights
    # the gather index is built by the first jacobian call, either before or
    # after a profile; array_equal also requires +inf in the same places
    calls = ["jacobian", "profile", "jacobian"] if jacobian_first else ["profile", "jacobian"]
    refs = {"profile": sigma_profile_reference(ev, w)}
    if mode == GAUSSIAN_LOG:
        refs["jacobian"] = jacobian_reference(ev, w)
    else:  # the jacobian is analytic in gaussian-log mode only
        calls = ["profile"]
    for name in calls:
        assert np.array_equal(getattr(ev, name)(w), refs[name])
    prof = refs["profile"]
    if mode == GAUSSIAN_LOG:
        assert np.array_equal(ev.m_self_grad(w, prof), prof + refs["jacobian"].T @ w)
    for nu_w in (w, nu.weights, np.zeros(space.n)):
        assert nu_average(prof, nu_w) == nu_average_reference(prof, nu_w)


@st.composite
def _lane_cases(draw):
    """A space with or without tied distances, a delta, and a (lanes x n)
    weight matrix whose lanes may hold zero weights or be all zero, laid out
    C-contiguous, Fortran-ordered or as a strided view.  The weights are
    Dirichlet draws or zero, never subnormal: in young-inverse mode 1/p
    overflows at a subnormal p."""
    space, delta, _, _ = draw(_kernel_cases())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    lanes = draw(st.integers(min_value=1, max_value=5))
    w = np.array([random_weights(rng, space.n) for _ in range(lanes)])
    zeros = draw(st.sampled_from(["none", "some", "lane"]))
    if zeros == "some":
        w[rng.random(w.shape) < 0.3] = 0.0
    elif zeros == "lane":
        w[rng.integers(lanes)] = 0.0
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        w = np.asfortranarray(w)
    elif layout == "strided":
        w = np.repeat(w, 2, axis=1)[:, ::2]
    return space, delta, w


@given(_lane_cases(), st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]))
@settings(max_examples=150, deadline=None)
def test_every_lane_of_a_batched_call_is_its_one_lane_call(case, mode):
    # each row of a batched profile, jacobian and m_self_grad is bit for bit
    # (tobytes, so also the sign of a zero) the 1-D call on that row and the
    # dense kernels' first form; SigmaReference's per-row dot adds the zero
    # gaps inside tied blocks, so on tied distances it is within 1e-15
    space, delta, w = case
    ev = SigmaEvaluator(space, delta, mode)
    ref = SigmaReference(ev)
    sd = np.sort(space.dist, axis=1)
    tied = (sd[:, 1:] == sd[:, :-1]).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masses = ev.masses(w)
        prof = ev.profile(w)
        assert prof.tobytes() == ev.profile(w, masses).tobytes()
        if mode == GAUSSIAN_LOG:
            jac = ev.jacobian(w, masses)
            assert jac.tobytes() == ev.jacobian(w).tobytes()
            grad = ev.m_self_grad(w, prof, masses)
        for lane, row in enumerate(w):
            assert prof[lane].tobytes() == ev.profile(row).tobytes()
            assert prof[lane].tobytes() == sigma_profile_reference(ev, row).tobytes()
            if tied:
                np.testing.assert_allclose(prof[lane], ref.profile(row), rtol=1e-15, atol=0)
            else:
                assert np.array_equal(prof[lane], ref.profile(row))
            if not row.any():  # a lane with no mass: +inf wherever an interval is live
                assert np.isinf(prof[lane][~ev.dead.all(axis=1)]).all()
            if mode != GAUSSIAN_LOG:
                continue
            one = ev.jacobian(row)
            assert jac[lane].tobytes() == one.tobytes()
            assert jac[lane].tobytes() == jacobian_reference(ev, row).tobytes()
            if row.min() > 0:  # the per-row reference differentiates every block
                assert np.array_equal(jac[lane], ref.jacobian(row))
            assert grad[lane].tobytes() == (ev.profile(row) + one.T @ row).tobytes()
            assert grad[lane].tobytes() == ev.m_self_grad(row, ev.profile(row)).tobytes()


@given(_lane_cases(), st.data(), st.sampled_from([GAUSSIAN_LOG, YOUNG_INVERSE]))
@settings(max_examples=150, deadline=None)
def test_every_lane_reads_the_table_of_its_delta(case, data, mode):
    # an evaluator of several deltas gives each lane, at its delta index,
    # the bits of a one-delta evaluator at that delta, whether the lanes of
    # a call share one delta (a view of its table) or not (a gathered copy)
    space, delta, w = case
    deltas = [delta] + data.draw(st.lists(_deltas(space), min_size=0, max_size=3))
    ev = SigmaEvaluator(space, deltas, mode)
    ones = [SigmaEvaluator(space, x, mode) for x in deltas]
    assert ev.deltas == [one.delta for one in ones]
    assert all(one.order is ev.order for one in ones)
    shared = data.draw(st.integers(min_value=0, max_value=len(deltas) - 1))
    spread = data.draw(st.lists(st.integers(min_value=0, max_value=len(deltas) - 1),
                                min_size=len(w), max_size=len(w)))
    for d in (np.zeros(len(w), int), np.full(len(w), shared), np.array(spread)):
        lanes = ev.at(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masses = lanes.masses(w)
            prof = lanes.profile(w, masses)
            assert prof.tobytes() == lanes.profile(w).tobytes()
            if mode == GAUSSIAN_LOG:
                jac = lanes.jacobian(w, masses)
                grad = lanes.m_self_grad(w, prof, masses)
            for lane, row in enumerate(w):
                one = ones[d[lane]]
                assert masses[1][lane].tobytes() == one.masses(row)[1].tobytes()
                assert prof[lane].tobytes() == one.profile(row).tobytes()
                if mode == GAUSSIAN_LOG:
                    assert jac[lane].tobytes() == one.jacobian(row).tobytes()
                    assert grad[lane].tobytes() == one.m_self_grad(
                        row, one.profile(row)).tobytes()


@pytest.mark.parametrize("mode", [GAUSSIAN_LOG, YOUNG_INVERSE])
def test_zero_mass_ball_raises_no_floating_point_warning(mode):
    sp = build_from_points([[0.0], [1.0], [3.0], [3.5]])
    mu = ProbabilityMeasure(sp, [0.5, 0.5, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = SigmaEvaluator(sp, None, mode)
        prof = ev.profile(mu.weights)
        assert np.isinf(prof[2:]).all() and np.isfinite(prof[:2]).all()
        if mode == GAUSSIAN_LOG:
            assert np.isfinite(ev.jacobian(mu.weights)).all()
        assert nu_average(prof, mu.weights) < math.inf
        assert nu_average(prof, uniform_measure(sp).weights) == math.inf


def _ordering_spaces():
    """Spaces of 40 and 300 points (SIMD sorts may treat rows longer than
    256 entries another way) with no tied distances, with ties in some rows
    only, with ties in every row, and with coincident points."""
    rng = np.random.default_rng(7)
    spaces = {}
    for n in (40, 300):
        grid = np.arange(1.0, n + 1)  # integer times: Brownian distances tie exactly
        spaces[f"distinct-{n}"] = build_from_points(rng.standard_normal((n, 3)))
        spaces[f"brownian-{n}"] = build_from_covariance(np.minimum.outer(grid, grid))
        spaces[f"equilateral-{n}"] = build_from_distance_matrix(1.0 - np.eye(n))
        pts = rng.standard_normal((n, 2))
        pts[n // 2:] = pts[rng.integers(n // 2, size=n - n // 2)]
        spaces[f"coincident-{n}"] = build_from_points(pts)
    spaces["integer-l1"] = integer_l1_space(rng, 16)
    # coincident points at -0.0 and 0.0, which compare equal
    spaces["signed-zeros"] = build_from_distance_matrix(
        [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return spaces


ORDERING_SPACES = _ordering_spaces()


def test_ordering_spaces_cover_untied_partly_tied_and_tied_rows():
    def tied_rows(space):
        sd = np.sort(space.dist, axis=1)
        return int((sd[:, 1:] == sd[:, :-1]).any(axis=1).sum())

    counts = {name: tied_rows(sp) for name, sp in ORDERING_SPACES.items()}
    for n in (40, 300):
        assert counts[f"distinct-{n}"] == 0
        assert 0 < counts[f"brownian-{n}"] < n
        assert counts[f"equilateral-{n}"] == counts[f"coincident-{n}"] == n
    assert 0 < counts["integer-l1"] and counts["signed-zeros"] == 3
    assert np.signbit(ORDERING_SPACES["signed-zeros"].dist).any()


@pytest.mark.parametrize("name", sorted(ORDERING_SPACES))
@pytest.mark.parametrize("delta_frac", [None, 0.5, 1e-9])
def test_evaluator_rows_are_the_stable_order(name, delta_frac):
    space = ORDERING_SPACES[name]
    ev = SigmaEvaluator(space, None if delta_frac is None else delta_frac * space.diam)
    order, gaps = _rows_reference(ev)  # the stable argsort and the gaps it gives
    assert ev.order.tobytes() == order.tobytes()
    assert ev.gaps.tobytes() == gaps.tobytes()
    assert np.array_equal(ev.dead, gaps <= 0)


def test_every_evaluator_of_a_space_reads_its_one_cached_order():
    space = ORDERING_SPACES["brownian-40"]
    evs = [SigmaEvaluator(space), SigmaEvaluator(space, 0.5 * space.diam, YOUNG_INVERSE),
           SigmaEvaluator(space, [0.1 * space.diam, 2.0 * space.diam])]
    assert all(ev.order is space.row_order(np.sort(space.dist, axis=1)) for ev in evs)
    assert not evs[0].order.flags.writeable
    # the first delta's table of a several-delta evaluator is its own
    assert evs[2].gaps.tobytes() == SigmaEvaluator(space, 0.1 * space.diam).gaps.tobytes()
    assert evs[2].deltas == [0.1 * space.diam, space.diam]


def test_lanes_at_one_delta_read_views_of_its_tables(monkeypatch):
    space = ORDERING_SPACES["brownian-40"]
    ev = SigmaEvaluator(space, [0.1 * space.diam, 0.5 * space.diam, space.diam])
    w = np.random.default_rng(3).dirichlet(np.ones(space.n), size=4)

    def no_init(self, *args, **kwargs):
        raise AssertionError("at() ran __init__")

    monkeypatch.setattr(SigmaEvaluator, "__init__", no_init)
    shared, mixed = ev.at(np.full(4, 1)), ev.at(np.array([0, 2, 1, 2]))
    assert shared.gaps.shape == shared.dead.shape == (space.n, space.n)
    for table, own in ((shared.gaps, ev._gaps), (shared.dead, ev._dead)):
        assert np.shares_memory(table, own)
        assert table.tobytes() == own[1].tobytes()
    assert mixed.gaps.shape == mixed.dead.shape == (4, space.n, space.n)
    assert not np.shares_memory(mixed.gaps, ev._gaps)
    assert mixed.gaps.tobytes() == ev._gaps[[0, 2, 1, 2]].tobytes()
    assert mixed.dead.tobytes() == ev._dead[[0, 2, 1, 2]].tobytes()
    # a batch differentiates with the evaluator's one order and Jacobian index
    mixed.jacobian(w)
    for lanes in (shared, mixed, ev.at(np.zeros(4, int))):
        assert lanes.order is ev.order
        assert lanes._gather is ev._gather is not None
    # the evaluator's own tables stay those of its first delta
    assert ev.gaps.tobytes() == ev._gaps[0].tobytes() and ev.delta == ev.deltas[0]
