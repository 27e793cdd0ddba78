"""End-to-end acceptance suite: one test per headline guarantee.

Each test owns exactly one property at its stated tolerance; shared Monte
Carlo sweeps live in module-scoped fixtures so the suite stays within a
desk-scale runtime budget.
"""

import json
import math

import numpy as np
import pytest

from chainscope import (ProbabilityMeasure, build_from_points, build_model, build_partition,
                        chained_functional, common_sample_oracle, duality_report,
                        functional_M, maximize_M_self, sigma_profile, uniform_measure)
from chainscope.cli import data_instance_path, main, replay_manifest
from chainscope.ellipsoid import _argmax_cloud, esup_check, gap_lower_bound_check, make_spec
from chainscope.gaussian_lab import (argmax_distribution, estimate_sup, sample_paths,
                                     supremum_report)
from chainscope.measures import YOUNG_INVERSE, SigmaEvaluator, nu_average
from chainscope.search import balanced_measure

from conftest import random_covariance, random_space, random_weights
from oracles import balanced_oracle_013
from test_gaussian_lab import concentration_check
from test_measures import riemann_bracket
from test_partition import verify_tree_translation

THREADS = 4


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="module")
def model_family():
    """E sup and argmax law across the i.i.d. ladder plus random PSD models."""
    rng = np.random.default_rng(20260824)
    entries = []
    for m in [2 ** k for k in range(1, 11)]:
        entries.append(("iid_%d" % m, build_model(np.eye(m))))
    for i in range(20):
        n = int(rng.integers(2, 65))
        entries.append(("psd_%d" % i, build_model(random_covariance(rng, n))))
    out = []
    for i, (name, model) in enumerate(entries):
        est = estimate_sup(model, 100000, 100 + i, threads=THREADS)
        amd = argmax_distribution(model, 100000, 200 + i, threads=THREADS)
        out.append({"name": name, "model": model, "esup": est.mean,
                    "mu_F": amd.measure})
    return out


@pytest.fixture(scope="module")
def partition_suite():
    """100 random (instance, mu, t, delta) tuples with r=4 trees."""
    rng = np.random.default_rng(4242)
    cases = []
    for _ in range(100):
        n = int(rng.integers(3, 11))
        model = build_model(random_covariance(rng, n))
        oracle = common_sample_oracle(model, 2000, int(rng.integers(2 ** 31)))
        tree = build_partition(model.space, oracle, r=4.0)
        mu = ProbabilityMeasure(model.space, random_weights(rng, n))
        nu = ProbabilityMeasure(model.space, random_weights(rng, n))
        t = int(rng.integers(n))
        delta = float(rng.uniform(0.2, 1.2)) * model.space.diam
        cases.append((tree, mu, nu, t, delta))
    return cases


# ---------------------------------------------------------------------------
# 1. functional exactness against the Riemann oracle


def test_functional_matches_riemann_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 33))
        sp = random_space(rng, n)
        w = random_weights(rng, n)
        mu = ProbabilityMeasure(sp, w)
        nu_w = random_weights(rng, n)
        nu = ProbabilityMeasure(sp, nu_w)
        delta = float(rng.uniform(0.3, 1.1)) * sp.diam
        t = int(rng.integers(n))
        val = sigma_profile(mu, delta)[t]
        lo, hi = riemann_bracket(sp, w, t, delta)
        assert abs(val - (lo + hi) / 2.0) <= 1e-4 * (1.0 + val)
        m_val = nu_average(sigma_profile(mu, delta), nu.weights)
        brackets = [riemann_bracket(sp, w, s, delta) for s in range(n)]
        m_oracle = sum(nu_w[s] * (b[0] + b[1]) / 2.0 for s, b in enumerate(brackets))
        assert abs(m_val - m_oracle) <= 1e-4 * (1.0 + m_val)


# ---------------------------------------------------------------------------
# 2. two-point closed forms


def test_two_point_closed_forms():
    d = 1.0
    model = build_model([[1.0, 0.5], [0.5, 1.0]])  # canonical distance 1
    n = 100000
    est = estimate_sup(model, n, 7)
    assert abs(est.mean - d / math.sqrt(2 * math.pi)) <= 3 * est.stderr

    x = sample_paths(model, 0, n, 7)
    diffs = np.abs(x[0] - x[1])
    se = diffs.std(ddof=1) / math.sqrt(n)
    assert abs(diffs.mean() - d * math.sqrt(2 / math.pi)) <= 3 * se

    mu = uniform_measure(model.space)
    assert functional_M(mu, mu) == pytest.approx(d, abs=1e-12)


# ---------------------------------------------------------------------------
# 3 + 4. tree translation and domination on the random suite


def test_tree_translation_holds_on_full_suite(partition_suite):
    failures = []
    for tree, mu, _, t, delta in partition_suite:
        lhs, rhs, ok = verify_tree_translation(tree, mu, t, delta)
        if not ok:
            failures.append((lhs, rhs))
    assert failures == []


def test_chained_domination_holds_on_full_suite(partition_suite):
    for tree, mu, nu, _, _ in partition_suite:
        chained = chained_functional(tree, mu, nu)
        assert functional_M(mu, nu) <= chained + 1e-9


# ---------------------------------------------------------------------------
# 5. E sup against the argmax-measure functional


def test_esup_over_argmax_functional_in_envelope(model_family):
    for entry in model_family:
        m_self = functional_M(entry["mu_F"], entry["mu_F"])
        ratio = entry["esup"] / m_self
        assert 0.05 <= ratio <= 1.5, (entry["name"], ratio)


# ---------------------------------------------------------------------------
# 6. E sup against the best-found self functional


def test_esup_over_best_measure_in_envelope(model_family):
    for entry in model_family:
        space = entry["model"].space
        res = maximize_M_self(space, init_measures=[entry["mu_F"]],
                              restarts=2, max_iter=150)
        ratio = entry["esup"] / res.objective
        assert 0.05 <= ratio <= 5.0, (entry["name"], ratio)
        if entry["name"].startswith("iid_"):
            n = space.n
            assert np.abs(res.measure.weights - 1.0 / n).max() <= 1e-3


# ---------------------------------------------------------------------------
# 7. balanced measure: convergence, uniqueness, oracle


def test_balanced_measure_converges_everywhere():
    rng = np.random.default_rng(777)
    for _ in range(50):
        n = int(rng.integers(3, 33))
        sp = random_space(rng, n)
        bal = balanced_measure(sp)
        assert bal.converged
        phi = SigmaEvaluator(sp, None, YOUNG_INVERSE).profile(bal.measure.weights)
        assert bal.objective <= 1e-8 * float(phi.mean())


def test_balanced_measure_unique_across_restarts():
    rng = np.random.default_rng(778)
    for _ in range(5):
        n = int(rng.integers(3, 12))
        sp = random_space(rng, n)
        base = balanced_measure(sp).measure.weights
        for _ in range(10):
            init = ProbabilityMeasure(sp, rng.dirichlet(np.ones(n)))
            bal = balanced_measure(sp, init=init)
            assert np.abs(bal.measure.weights - base).max() <= 1e-4


def test_balanced_measure_matches_grid_oracle():
    sp = build_from_points([[0.0], [1.0], [3.0]])
    _, w_star = balanced_oracle_013(resolution=1e-3)
    bal = balanced_measure(sp)
    assert np.abs(bal.measure.weights - w_star).max() <= 1e-3


# ---------------------------------------------------------------------------
# 8. duality orderings (exact assertions)


def test_duality_orderings_exact():
    rng = np.random.default_rng(808)
    spaces = [random_space(rng, int(rng.integers(3, 10))) for _ in range(5)]
    spaces.append(build_from_points([[0.0], [1.0], [3.0]]))
    for sp in spaces:
        rep = duality_report(sp, restarts=4)
        ev = SigmaEvaluator(sp)
        for w in rep.measures.values():
            prof = ev.profile(np.asarray(w))
            m = ev.m_self(np.asarray(w))
            assert prof.min() <= m + 1e-9
            assert m <= prof.max() + 1e-9
        assert rep.sup_inf <= rep.sup_self + 1e-6


# ---------------------------------------------------------------------------
# 9. modulus sandwich


def test_modulus_sandwich():
    rng = np.random.default_rng(909)
    for i in range(10):
        n = int(rng.integers(3, 13))
        model = build_model(random_covariance(rng, n))
        grid = [model.space.diam * f for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
        rep = supremum_report(model, 20000, 900 + i, grid, threads=THREADS)
        for row in rep["modulus"]:
            assert row["s_delta"] >= row["lower_expression"] / 50.0 - 1e-9
            assert row["s_delta"] <= 50.0 * row["upper_proxy"] + 1e-9


# ---------------------------------------------------------------------------
# 10. ellipsoid suite


def test_ellipsoid_boundary_identity():
    spec = make_spec([1.0 / (i + 1) for i in range(16)])
    for x in _argmax_cloud(spec, 2000, 1010):
        assert abs(float(np.sum(x ** 2 / spec.semi_axes ** 2)) - 1.0) <= 1e-9


def test_ellipsoid_esup_ratio():
    spec = make_spec([1.0 / (i + 1) for i in range(16)])
    chk = esup_check(spec, 100000, 1011)
    assert 0.7 < chk["closed_ratio"] <= 1.0


def test_ellipsoid_gap_ratio_floor():
    spec = make_spec([1.0 / (i + 1) for i in range(16)])
    for i in range(1, 16):
        chk = gap_lower_bound_check(spec, i, 100000, 1012 + i)
        assert chk["ratio"] >= 0.1, (i, chk["ratio"])


def test_ellipsoid_two_axis_gap_oracle():
    chk = gap_lower_bound_check(make_spec([1.0, 1.0]), 1, 200000, 1030)
    assert abs(chk["lhs_mc"] - (1.0 - 2.0 / math.pi)) <= 3 * chk["lhs_stderr"]


# ---------------------------------------------------------------------------
# 11. concentration tails


def test_concentration_tails_within_bound():
    rng = np.random.default_rng(1111)
    for i in range(10):
        n = int(rng.integers(2, 17))
        model = build_model(random_covariance(rng, n))
        sigma_max = math.sqrt(float(np.max(np.diag(model.covariance))))
        u_grid = [f * sigma_max for f in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        rows = concentration_check(model, u_grid, 50000, 1100 + i,
                                   threads=THREADS)
        assert rows and not any(r["flagged"] for r in rows)


# ---------------------------------------------------------------------------
# 12. determinism across thread counts


COMMAND_ARGS = [
    ["analyze", "--instance", data_instance_path("collinear_013.json")],
    ["bounds", "--instance", data_instance_path("two_point.json"),
     "--samples", "3000"],
    ["partition", "--instance", data_instance_path("two_point.json"),
     "--samples", "3000"],
    ["duality", "--instance", data_instance_path("two_point.json"),
     "--samples", "3000", "--restarts", "2"],
    ["ellipsoid", "--axes", "1.0,0.5,0.25", "--samples", "3000"],
    ["modulus", "--instance", data_instance_path("two_point.json"),
     "--samples", "3000"],
]


@pytest.mark.parametrize("argv", COMMAND_ARGS, ids=[a[0] for a in COMMAND_ARGS])
def test_replay_byte_identical_across_threads(argv, tmp_path):
    command = argv[0]
    out1 = tmp_path / "run1"
    assert main(argv + ["--out", str(out1), "--threads", "1"]) == 0
    out8 = tmp_path / "run8"
    assert replay_manifest(str(out1 / f"{command}_manifest.json"),
                           str(out8), threads=8) == 0
    manifest = json.loads((out1 / f"{command}_manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
