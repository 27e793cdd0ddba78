"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    a = W.write_instances("monte-carlo", str(tmp_path / "a"))
    b = W.write_instances("monte-carlo", str(tmp_path / "b"))
    assert {k: v.sha256 for k, v in a.items()} == {k: v.sha256 for k, v in b.items()}
    main = {op.instance for op in W.MAIN_OPS["monte-carlo"] if op.instance}
    probes = {op.instance for op in W.all_probes() if op.instance}
    for key in main:  # every instance set differs
        assert len({a[(pool, key)].sha256 for pool in range(W.POOL_SIZE)}) == W.POOL_SIZE
    assert {k for k in a if k[1] in probes - main} == {(W.PROBE_POOL, k) for k in probes - main}
    for (_, key), (path, _, _) in a.items():
        with open(path) as fh:
            inst = json.load(fh)
        assert inst["name"] == key and len(inst["weights"]) == int(key.split("_")[1])


def test_seed_picks_where_the_instance_rotation_starts():
    assert [W.pool_of(3, c) for c in range(3)] == [3, 4, 5]
    assert W.pool_of(3 + W.POOL_SIZE, 1) == W.pool_of(3, 1)
    probe = W.all_probes()[0]
    assert W.op_pool(probe, W.pool_of(5, 2)) == W.PROBE_POOL


def test_every_op_has_an_instance_or_none_and_a_known_metric():
    names = dict(run.END_TO_END)
    for workload in W.WORKLOADS:
        main, probes = W.workload_ops(workload)
        assert {op.metric for op in main + probes} == \
            {n for n in names if n not in ("setup_s", "workload_s", "peak_rss_mb")}
        assert len({op.name for op in W.all_ops(workload)}) == len(W.all_ops(workload))


def test_self_time_on_nested_and_threaded_spans():
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 1),
        Span(2, "metric_core.a", 1.0, 4.0, 1, 1),
        Span(3, "metric_core.b", 3.0, 6.0, 1, 1),  # overlaps its sibling
        Span(4, "measures.c", 2.0, 3.0, 2, 1),
        Span(5, "gaussian_lab.sample", 0.5, 5.5, None, 2),  # worker thread
        Span(6, "gaussian_lab.sample", 1.0, 2.0, 5, 2),
    ]
    got = self_times(spans)
    assert got == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0, 6: 1.0}


def test_tracer_parents_and_threads():
    tracer = Tracer()

    def leaf(x):
        return x

    traced_leaf = tracer.wrap("measures.leaf", leaf)

    def outer():
        traced_leaf(1)
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(traced_leaf, range(4)))

    tracer.call("cli.main", tracer.wrap("search.outer", outer))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (main,), (out,) = by_name["cli.main"], by_name["search.outer"]
    assert out.parent == main.id and main.parent is None
    leaves = by_name["measures.leaf"]
    assert len(leaves) == 5
    here = [s for s in leaves if s.thread == threading.get_ident()]
    assert len(here) == 1 and here[0].parent == out.id
    assert all(s.parent is None for s in leaves if s.thread != threading.get_ident())
    assert layer_metrics(tracer.spans)["search.self_s"] >= 0.0


def test_output_check_flags_perturbed_payloads():
    ref = {"n": 3, "dudley": 1.25, "rows": [{"delta": 0.5, "s": 2.0}], "flag": None}
    same = json.loads(json.dumps(ref))
    same["dudley"] *= 1 + 1e-14
    same["extra"] = "new fields are allowed"
    assert check.compare(ref, same, "analyze") == []
    bad = json.loads(json.dumps(ref))
    bad["rows"][0]["s"] *= 1 + 1e-9
    assert check.compare(ref, bad, "analyze")
    assert check.compare(ref, {**ref, "n": 4}, "analyze")
    assert check.compare(ref, {k: v for k, v in ref.items() if k != "flag"}, "analyze")


def test_output_check_is_one_sided_on_searched_objectives():
    ref = {"sup_self": 2.0, "inf_sup": 3.0, "measures": {"sup_self": [0.5, 0.5]}}
    better = {"sup_self": 2.5, "inf_sup": 2.5, "measures": {"sup_self": [1.0, 0.0]}}
    assert check.compare(ref, better, "duality") == []
    assert check.compare(ref, {**ref, "sup_self": 1.9}, "duality")
    assert check.compare(ref, {**ref, "inf_sup": 3.1}, "duality")


def test_output_check_on_long_tables():
    rows = [{"radius": 1.0 + i / 7.0, "size": 300 - i} for i in range(300)]
    ref = check.compact({"covering": rows})
    assert "__table__" in ref["covering"]
    assert check.compare(ref, {"covering": rows}, "analyze") == []
    sampled = ref["covering"]["__table__"]["radius"]["__digest__"]["sample"][0][0]
    for i, scale in ((sampled, 1 + 1e-9), (0 if sampled else 1, 1 + 1e-6)):
        bad = [dict(r) for r in rows]
        bad[i]["radius"] *= scale
        assert check.compare(ref, {"covering": bad}, "analyze")
    bad = [dict(r) for r in rows]
    bad[5]["size"] += 1
    assert check.compare(ref, {"covering": bad}, "analyze")


def test_output_check_flags_nonzero_exit_and_bad_envelope(tmp_path):
    assert check.check_op("analyze", 3, str(tmp_path), {}) == ["exit code 3"]
    with open(tmp_path / "analyze_report.json", "w") as fh:
        json.dump({"command": "analyze", "payload": {}}, fh)
    assert check.check_op("analyze", 0, str(tmp_path), {})[0].startswith("invalid envelope")
    envelope = {"schema_version": "1", "command": "duality", "instance": "x",
                "payload": {"flags": ["ordering sup_inf <= sup_self violated"]},
                "warnings": []}
    with open(tmp_path / "duality_report.json", "w") as fh:
        json.dump(envelope, fh)
    assert check.check_op("duality", 0, str(tmp_path), {})[0].startswith("duality flags")


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    names = set(layer_metrics([])) | {"trace.overhead_frac", "host.calib_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_pair_fraction_grid_keeps_the_same_pairs_on_every_instance():
    from chainscope.gaussian_lab import build_model
    from chainscope.io import covariance_from_instance

    for pool in range(W.POOL_SIZE):
        inst = W.make_instance(pool, "cov_16_a")
        D = build_model(covariance_from_instance(inst)).space.dist
        grid = [float(v) for v in W.pair_fraction_grid(inst, (0.25, 0.5, 1.0)).split(",")]
        upper = D[np.triu_indices(16, k=1)]
        assert [int((upper <= d).sum()) for d in grid] == [30, 60, 120]
