import contextlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscope import (ProbabilityMeasure, build_from_distance_matrix, build_from_points,
                        build_model, cli, duality_report, maximize_M_self, search)
from chainscope.gaussian_lab import argmax_distribution, estimate_sup, supremum_report
from chainscope.measures import YOUNG_INVERSE, SigmaEvaluator
from chainscope.metric_core import build_from_covariance
from chainscope.search import balanced_measure, maximize_inf_M, minimize_sup_M

from conftest import integer_l1_space, random_covariance, random_space
from oracles import (balanced_oracle_013, csv_reference, inf_sup_oracle_013, search_reference,
                     soft_value_reference, sup_inf_oracle_013, sup_self_oracle_013,
                     supremum_report_reference)

TWO_POINT = build_from_distance_matrix([[0, 1], [1, 0]])
COLLINEAR = build_from_points([[0.0], [1.0], [3.0]])


class TestSupSelf:
    def test_two_point(self):
        res = maximize_M_self(TWO_POINT, restarts=4)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.measure.weights, 0.5, atol=1e-6)

    @pytest.mark.parametrize("m", [4, 8])
    def test_equidistant_uniform_optimal(self, m):
        D = np.ones((m, m)) - np.eye(m)
        sp = build_from_distance_matrix(D)
        res = maximize_M_self(sp, restarts=4)
        assert res.objective == pytest.approx(math.sqrt(math.log2(m)), rel=1e-9)
        assert np.abs(res.measure.weights - 1.0 / m).max() < 1e-3

    def test_collinear_matches_grid_oracle(self):
        obj, w = sup_self_oracle_013()
        res = maximize_M_self(COLLINEAR, restarts=8)
        assert res.objective >= obj - 1e-3
        # returned value is exact at the returned point, so it cannot beat
        # the true optimum by more than the oracle's grid gap
        assert res.objective <= obj + 2e-2

    def test_trace_rows(self):
        res = maximize_M_self(TWO_POINT, restarts=3)
        assert len(res.starts) == 4  # uniform + 3 dirichlet restarts
        assert res.iterations == sum(it for _, it, _ in res.starts)


class TestMinSupAndSupInf:
    def test_two_point_all_one(self):
        for find in (minimize_sup_M, maximize_inf_M):
            res = find(TWO_POINT, restarts=4, max_iter=400, seed=0)
            assert res.objective == pytest.approx(1.0, abs=1e-6)

    def test_collinear_inf_sup_grid_oracle(self):
        obj, _ = inf_sup_oracle_013()
        res = minimize_sup_M(COLLINEAR, restarts=8, max_iter=400, seed=0)
        # feasible-point semantics: reported value upper-bounds the true inf
        assert res.objective >= obj - 2e-2
        assert res.objective <= obj + 2e-2

    def test_collinear_sup_inf_grid_oracle(self):
        obj, _ = sup_inf_oracle_013()
        res = maximize_inf_M(COLLINEAR, restarts=8, max_iter=400, seed=0)
        assert res.objective <= obj + 2e-2
        assert res.objective >= obj - 2e-2

    def test_ordering_on_random_instances(self, session_rng):
        for _ in range(5):
            sp = random_space(session_rng, 8)
            sup_inf = maximize_inf_M(sp, restarts=4, max_iter=400, seed=0)
            sup_self = maximize_M_self(sp, restarts=4,
                                       init_measures=[sup_inf.measure])
            assert sup_inf.objective <= sup_self.objective + 1e-6

    def test_coincident_points_warn_and_skip_balanced_init(self):
        sp = build_from_distance_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.warns(UserWarning, match="without the balanced initializer.*distinct"):
            res = maximize_inf_M(sp, restarts=1, max_iter=20, seed=0)
        assert len(res.starts) == 2  # uniform + 1 dirichlet restart
        assert np.isfinite(res.objective)

    def test_coincident_points_warn_in_the_joint_search(self):
        # the joint search still warns and runs sup_inf without the
        # balanced measure, each search as it runs alone
        sp = build_from_distance_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.warns(UserWarning, match="sup_inf search without the balanced initializer"):
            sup_inf, inf_sup = search.soft_searches(sp, ["sup_inf", "inf_sup"], 1, 20, 0)
        with pytest.warns(UserWarning, match="sup_inf search without the balanced initializer"):
            alone = [maximize_inf_M(sp, restarts=1, max_iter=20, seed=0)]
        alone.append(minimize_sup_M(sp, restarts=1, max_iter=20, seed=0))
        for res, ref in zip((sup_inf, inf_sup), alone):
            assert np.array_equal(res.measure.weights, ref.measure.weights)
            assert (res.objective, res.converged, res.starts) == (
                ref.objective, ref.converged, ref.starts)
        assert len(sup_inf.starts) == len(inf_sup.starts) == 2  # uniform + 1 dirichlet
        assert np.isfinite(sup_inf.objective) and np.isfinite(inf_sup.objective)

    def test_distinct_points_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maximize_inf_M(COLLINEAR, restarts=0, max_iter=20, seed=0)


SEARCHES = {"sup_self": maximize_M_self, "inf_sup": minimize_sup_M,
            "sup_inf": maximize_inf_M}


class TestConverged:
    @pytest.mark.parametrize("problem", sorted(SEARCHES))
    def test_one_iteration_is_not_converged(self, problem):
        sp = build_from_covariance(random_covariance(np.random.default_rng(5), 6))
        res = SEARCHES[problem](sp, restarts=1, max_iter=1, seed=0)
        assert res.converged is False
        # one iteration per initializer; sup_inf adds the balanced measure
        assert res.iterations == (3 if problem == "sup_inf" else 2)

    def test_two_point_stops_early(self):
        # uniform is optimal: no ascent direction at the first iterate
        for search in SEARCHES.values():
            res = search(TWO_POINT, restarts=0, max_iter=400, seed=0)
            assert res.converged is True
            assert res.iterations < 50


def _run_both(problem, space, init, **kwargs):
    """The public search result and the reference-driven run."""
    if problem == "sup_self":
        res = maximize_M_self(space, init_measures=init, **kwargs)
    else:
        init = []  # the soft searches take no initializers from the caller
        res = SEARCHES[problem](space, **kwargs)
    return res, search_reference(problem, space, init_measures=init, **kwargs)


def _starts(rows):
    """The start records of reference rows."""
    return [(r["objective"], r["iterations"], r["converged"]) for r in rows]


def _assert_bit_identical(res, ref):
    w, obj, iters, conv, rows = ref
    assert np.array_equal(res.measure.weights, ProbabilityMeasure(res.measure.space, w).weights)
    assert res.objective == obj
    assert res.iterations == iters
    assert res.converged is conv
    assert res.starts == _starts(rows)
    # the totals are read off the start records: the iterations of every
    # start, and converged of the first start that reached the objective
    assert res.iterations == sum(it for _, it, _ in res.starts)
    assert res.converged is [c for o, _, c in res.starts if o == res.objective][0]


# 60 iterations cross the 50-iteration cooling of the soft problems
@given(st.sampled_from(sorted(SEARCHES)), st.booleans(), st.integers(min_value=3, max_value=16),
       st.integers(min_value=0, max_value=8), st.sampled_from([1, 7, 60]),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_searches_bit_identical_to_reference_loops(problem, tied, n, restarts, max_iter, seed):
    rng = np.random.default_rng(seed)
    if tied:
        space = integer_l1_space(rng, n)
        assume(space.n >= 3)
    else:
        space = build_from_covariance(random_covariance(rng, n))
    init = [ProbabilityMeasure(space, rng.dirichlet(np.ones(space.n)))]
    _assert_bit_identical(*_run_both(problem, space, init, restarts=restarts,
                                     max_iter=max_iter, seed=seed))


@pytest.mark.parametrize("problem, tied, n", [("inf_sup", False, 4), ("sup_inf", False, 4),
                                              ("sup_inf", True, 3)])
def test_soft_searches_to_the_temperature_floor_match_reference_loops(problem, tied, n):
    # long enough that some restarts stall at the floor temperature and
    # stop while others run out of iterations; on the tied instance a late
    # step gains less than the tolerance the best iterate is kept by
    rng = np.random.default_rng(0)
    space = integer_l1_space(rng, n) if tied else build_from_covariance(random_covariance(rng, n))
    res, ref = _run_both(problem, space, [], restarts=1, max_iter=1000, seed=0)
    _assert_bit_identical(res, ref)
    assert {it < 1000 for _, it, _ in res.starts} == {True, False}


@pytest.mark.parametrize("lanes_per_batch", [None, 1, 2])
@pytest.mark.parametrize("restarts", [0, 2])
@pytest.mark.parametrize("order", [("sup_inf", "inf_sup"), ("inf_sup", "sup_inf")])
@pytest.mark.parametrize("tied, n, max_iter, seed",
                         [(False, 5, 60, 0), (False, 8, 300, 1), (True, 6, 300, 2),
                          (False, 4, 1000, 0)])
def test_mixed_sign_lanes_bit_identical_to_one_reference_each(lanes_per_batch, restarts, order,
                                                              tied, n, max_iter, seed):
    # sup_inf's lanes at sign +1 and inf_sup's at -1 share one ascent; a
    # budget of 1 or 2 lanes per batch splits them across batches, one
    # batch may hold lanes of both signs, and lanes leave at different
    # rounds: after backtracks, and at n = 4 with 2 restarts some stall at
    # the floor temperature while others run out of iterations
    rng = np.random.default_rng(seed)
    space = integer_l1_space(rng, n) if tied else build_from_covariance(random_covariance(rng, n))
    with _lane_budget(lanes_per_batch, space.n):
        found = search.soft_searches(space, order, restarts, max_iter, seed)
    assert len(found) == 2
    for problem, res in zip(order, found):
        _assert_bit_identical(res, search_reference(problem, space, restarts, max_iter, seed))
    if max_iter == 1000 and restarts == 2:
        assert {it < 1000 for res in found for _, it, _ in res.starts} == {True, False}


def test_soft_value_of_a_mixed_sign_batch_is_the_reference_lane_by_lane():
    rng = np.random.default_rng(4)
    space = build_from_covariance(random_covariance(rng, 7))
    ev = SigmaEvaluator(space)
    w = rng.dirichlet(np.ones(7), size=6)
    prof = ev.profile(w)
    sign = [1.0, -1.0, -1.0, 1.0, -1.0, 1.0]
    tau = rng.uniform(1e-6, 0.5, size=6).tolist()
    problem = search._Soft(ev, sign)
    problem.tau = dict(enumerate(tau))
    vals, exact, _ = problem.value(prof, w, list(range(6)))
    for i, s in enumerate(sign):
        assert vals[i] == soft_value_reference(prof[i], tau[i], want_min_of_max=s < 0)
        assert exact[i] == (prof[i].min() if s > 0 else prof[i].max())


@pytest.mark.parametrize("n, restarts, seed, lanes_per_batch",
                         [(3, 0, 0, None), (5, 1, 1, None), (6, 2, 2, None), (8, 0, 3, None),
                          (6, 3, 4, 2), (7, 2, 5, 1)])
def test_duality_report_matches_the_serial_reference_searches(n, restarts, seed,
                                                              lanes_per_batch, monkeypatch,
                                                              tmp_path):
    # each search runs its starts as lanes of one batch; each must be the
    # reference loop's run alone, and the start records keep the serial
    # order: sup_inf, inf_sup, then sup_self, as do the duality_trace.csv
    # rows.  A small lane budget splits the lanes into several batches per
    # round.
    if lanes_per_batch is not None:
        monkeypatch.setattr(search, "LANE_BUDGET", lanes_per_batch * n * n)
    rng = np.random.default_rng(seed)
    cov = random_covariance(rng, n)
    space = build_from_covariance(cov)
    model = build_model(cov, space)
    rep = duality_report(space, model, n_samples=2000, seed=seed, restarts=restarts)
    refs, rows = {}, []
    for problem in ("sup_inf", "inf_sup", "sup_self"):
        inits = []
        if problem == "sup_self":
            inits = [argmax_distribution(model, 2000, seed + 1).measure,
                     ProbabilityMeasure(space, refs["sup_inf"][0])]
        refs[problem] = search_reference(problem, space, restarts, 300, seed, init_measures=inits)
        rows += refs[problem][4]
        w, obj = refs[problem][:2]
        assert getattr(rep, problem) == obj
        assert np.array_equal(rep.measures[problem], ProbabilityMeasure(space, w).weights)
    assert list(rep.starts.items()) == [(p, _starts(refs[p][4])) for p in refs]
    assert rep.esup == estimate_sup(model, 2000, seed).mean
    instance = tmp_path / "cov.json"
    instance.write_text(json.dumps({"name": "cov", "metric": {"type": "covariance",
                                                              "data": cov.tolist()}}))
    out = tmp_path / "out"
    assert cli.main(["duality", "--instance", str(instance), "--samples", "2000",
                     "--seed", str(seed), "--restarts", str(restarts), "--out", str(out)]) == 0
    assert (out / "duality_trace.csv").read_text() == csv_reference(
        ["problem", "restart", "objective", "iterations"], rows)


def _lane_budget(lanes_per_batch, n):
    """``LANE_BUDGET`` patched to ``lanes_per_batch`` lanes per batch on n
    points, or left as it is for None."""
    if lanes_per_batch is None:
        return contextlib.nullcontext()
    return mock.patch.object(search, "LANE_BUDGET", lanes_per_batch * n * n)


# below the smallest distance, halfway between two distances, at the
# diameter and beyond it
TRUNCATIONS = ("below", "between", "diam", "beyond")


@pytest.mark.parametrize("lanes_per_batch", [None, 1, 3])
@given(st.booleans(), st.integers(min_value=3, max_value=10),
       st.lists(st.sampled_from(TRUNCATIONS), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2), st.sampled_from([1, 7, 60]),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=20, deadline=None)
def test_searches_at_several_deltas_bit_identical_to_one_reference_each(
        lanes_per_batch, tied, n, picks, restarts, max_iter, seed):
    # every (delta, start) pair is a lane of one ascent; the default budget
    # runs them as one batch that mixes deltas, a small one splits them into
    # batches of 1 lane or of 3, which may mix deltas
    rng = np.random.default_rng(seed)
    if tied:
        space = integer_l1_space(rng, n)
        assume(space.n >= 3)
    else:
        space = build_from_covariance(random_covariance(rng, n))
    dists = np.unique(space.dist[space.dist > 0])
    assume(dists.size > 1 or "between" not in picks)
    k = int(rng.integers(max(dists.size - 1, 1)))
    at = {"below": 0.5 * dists[0], "between": dists[k:k + 2].mean(), "diam": space.diam,
          "beyond": 1.5 * space.diam}
    deltas = [at[p] for p in picks]
    init = [ProbabilityMeasure(space, rng.dirichlet(np.ones(space.n)))]
    with _lane_budget(lanes_per_batch, space.n):
        found = search.maximize_M_self_per_delta(space, deltas, init, restarts, max_iter, seed)
    assert len(found) == len(deltas)
    for delta, res in zip(deltas, found):
        _assert_bit_identical(res, search_reference("sup_self", space, restarts, max_iter, seed,
                                                    init_measures=init, delta=delta))


# 0.2 and 0.3 times the diameter lie below every distance of some of these
@pytest.mark.filterwarnings("ignore:no admissible pair at this delta:UserWarning")
@pytest.mark.parametrize("n, seed, fractions, lanes_per_batch",
                         [(5, 0, (0.2, 0.4, 0.6, 0.8, 1.0), None), (8, 1, (0.3, 0.7), 3),
                          (6, 2, (0.5, 1.5, 2.0), 1), (16, 3, (0.2, 0.4, 0.6, 0.8, 1.0), None)])
def test_supremum_report_matches_one_search_per_truncation(n, seed, fractions, lanes_per_batch):
    rng = np.random.default_rng(seed)
    cov = random_covariance(rng, n)
    space = build_from_covariance(cov)
    model = build_model(cov, space)
    grid = [f * space.diam for f in fractions]
    with _lane_budget(lanes_per_batch, n):
        rep = supremum_report(model, 2000, seed, grid)
    assert rep == supremum_report_reference(model, 2000, seed, grid)


def test_bounds_searches_the_deltas_beyond_the_diameter_once(tmp_path, monkeypatch):
    # 1.5 and 2 times the diameter are the diameter's search, which the
    # report runs once: 2 truncations of 4 starts, against 4 searches when
    # each delta ran its own
    rng = np.random.default_rng(11)
    cov = random_covariance(rng, 7)
    space = build_from_covariance(cov)
    model = build_model(cov, space)
    grid = [f * space.diam for f in (0.5, 1.5, 2.0)]
    lanes, ascent = [], search._mirror_ascent

    def counted(problem, w0, d, max_iter):
        lanes.append(len(w0))
        return ascent(problem, w0, d, max_iter)

    monkeypatch.setattr(search, "_mirror_ascent", counted)
    instance = tmp_path / "cov.json"
    instance.write_text(json.dumps({"name": "cov", "metric": {"type": "covariance",
                                                              "data": cov.tolist()}}))
    out = tmp_path / "out"
    assert cli.main(["bounds", "--instance", str(instance), "--samples", "2000", "--seed", "5",
                     "--delta-grid", ",".join(repr(d) for d in grid), "--out", str(out)]) == 0
    assert lanes == [2 * 4]
    ref = supremum_report_reference(model, 2000, 5, grid)
    assert lanes[1:] == [4] * 4
    payload = json.loads((out / "bounds_report.json").read_text())["payload"]
    assert {k: payload[k] for k in ref if k != "modulus"} == {
        k: v for k, v in ref.items() if k != "modulus"}
    assert (out / "bounds_delta.csv").read_text() == csv_reference(
        ["delta", "s_delta", "s_stderr", "cover_size", "upper_proxy", "lower_expression"],
        ref["modulus"])


class TestBalancedMeasure:
    def test_two_point_symmetric(self):
        bal = balanced_measure(TWO_POINT)
        assert np.allclose(bal.measure.weights, 0.5, atol=1e-12)
        assert bal.objective <= 1e-12
        assert bal.converged

    def test_collinear_matches_grid_oracle(self):
        _, w_star = balanced_oracle_013()
        bal = balanced_measure(COLLINEAR)
        assert bal.converged
        assert np.abs(bal.measure.weights - w_star).max() <= 1e-3

    def test_random_instances_converge(self, session_rng):
        for _ in range(10):
            n = int(session_rng.integers(3, 16))
            sp = random_space(session_rng, n)
            bal = balanced_measure(sp)
            assert bal.converged
            phi = SigmaEvaluator(sp, None, YOUNG_INVERSE).profile(bal.measure.weights)
            assert bal.objective <= 1e-8 * float(phi.mean())

    def test_init_independence(self, session_rng):
        sp = random_space(session_rng, 6)
        base = balanced_measure(sp).measure.weights
        for _ in range(5):
            w0 = session_rng.dirichlet(np.ones(6))
            bal = balanced_measure(sp, init=ProbabilityMeasure(sp, w0))
            assert np.abs(bal.measure.weights - base).max() <= 1e-4

    def test_coincident_points_rejected(self):
        sp = build_from_distance_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError, match="distinct"):
            balanced_measure(sp)


class TestDualityReport:
    def test_two_point_triple(self):
        model = build_model([[1.0, 0.5], [0.5, 1.0]])
        rep = duality_report(TWO_POINT, model, n_samples=50000, seed=3, restarts=4)
        assert rep.sup_self == pytest.approx(1.0, abs=1e-6)
        assert rep.inf_sup == pytest.approx(1.0, abs=1e-6)
        assert rep.sup_inf == pytest.approx(1.0, abs=1e-6)
        assert abs(rep.esup - 1.0 / math.sqrt(2 * math.pi)) <= 3 * rep.esup_stderr
        assert rep.flags == []
        assert "sup_inf/sup_self" in rep.ratios

    def test_degenerate_flagged(self):
        sp = build_from_distance_matrix([[0.0]])
        rep = duality_report(sp)
        assert "degenerate" in rep.flags

    def test_averaging_sandwich(self, session_rng):
        # min_t sigma <= M(mu, mu) <= max_t sigma at the sup_inf candidate
        sp = random_space(session_rng, 7)
        rep = duality_report(sp, restarts=4)
        ev = SigmaEvaluator(sp)
        w = rep.measures["sup_inf"]
        prof = ev.profile(w)
        m = ev.m_self(w)
        assert prof.min() <= m + 1e-9
        assert m <= prof.max() + 1e-9
