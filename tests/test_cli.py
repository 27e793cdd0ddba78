import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chainscope import cli, gaussian_lab
from chainscope import io as chainscope_io
from chainscope.cli import data_instance_path, main, replay_manifest, validate_envelope

BUNDLED = sorted(os.listdir(os.path.dirname(data_instance_path("two_point.json"))))


def run(tmp_path, *argv, sub="run"):
    out = tmp_path / sub
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_report(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_report.json")) as fh:
        return json.load(fh)


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestInputErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",')
        code, _ = run(tmp_path, "analyze", "--instance", str(path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_metric_exits_2(self, tmp_path):
        path = write_instance(tmp_path, {"name": "x"})
        code, _ = run(tmp_path, "analyze", "--instance", path)
        assert code == 2

    def test_asymmetric_matrix_exits_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, {
            "name": "x", "metric": {"type": "matrix",
                                    "data": [[0, 1], [2, 0]]}})
        code, _ = run(tmp_path, "analyze", "--instance", path)
        assert code == 2
        assert "asymmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", [
        {"type": "matrix", "data": [[0, 1.5e308], [1.5e308, 0]]},  # d + d overflows
        {"type": "points", "data": [[0], [1e200]]},  # the squared distance overflows
        {"type": "covariance", "data": [[None, 1], [1, 2]]},  # NaN, once an eigensolver error
    ], ids=["matrix", "points", "covariance"])
    def test_entries_beyond_the_float_range_exit_2(self, tmp_path, capsys, metric):
        path = write_instance(tmp_path, {"name": "x", "metric": metric})
        assert run(tmp_path, "analyze", "--instance", path)[0] == 2
        assert capsys.readouterr().err.startswith("error: matrix entries must be finite")

    @pytest.mark.parametrize("stretch,code", [(1.0, 0), (1 + 1e-6, 2)])
    def test_triangle_tolerance_is_relative(self, tmp_path, capsys, stretch, code):
        rng = np.random.default_rng(3)
        P = 1e150 * rng.standard_normal((12, 1))
        D = np.abs(P - P.T)  # collinear: many triangles are tight to one rounding
        i, j = np.unravel_index(np.argmax(D), D.shape)
        D[i, j] = D[j, i] = D[i, j] * stretch
        path = write_instance(tmp_path, {"name": "x", "metric": {"type": "matrix",
                                                                 "data": D.tolist()}})
        assert run(tmp_path, "analyze", "--instance", path)[0] == code
        assert ("triangle violated" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("doc, field", [
        ({"metric": {"type": "matrix", "data": [["0", "1"], [True, 0]]}}, "metric.data"),
        ({"metric": {"type": "points", "data": [[0.0], [True]]}}, "metric.data"),
        ({"metric": {"type": "matrix", "data": [[0, 1], [1, 0]]}, "weights": ["0.5", 0.5]},
         "weights"),
        ({"metric": {"type": "matrix", "data": [[0, 1], [1, 0]]}, "weights": [True, 0]},
         "weights"),
    ], ids=["matrix", "points", "string weight", "boolean weight"])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys, doc, field):
        # numpy would read "1" and true as 1.0
        path = write_instance(tmp_path, dict(doc, name="x"))
        assert run(tmp_path, "analyze", "--instance", path)[0] == 2
        assert capsys.readouterr().err == \
            f"error: {field} entries must be numbers, not strings or booleans\n"

    def test_missing_file_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--instance", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("bounds", "--mode", "young-inverse"),
        ("modulus", "--young", "3"),
        ("duality", "--tol", "1e-8"),
        ("partition", "--eps", "0.5"),
        ("analyze", "--samples", "5"),
        ("ellipsoid", "--axes", "1"),  # the ellipsoid command reads no instance
    ])
    def test_flag_of_another_command_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv, "--instance", data_instance_path("two_point.json"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("bounds", "--samples", "1"),
        ("modulus", "--samples", "0"),
        ("partition", "--r", "0.5"),
        ("partition", "--r", "1"),
        ("ellipsoid", "--axes", "1,0.5", "--net", "-1"),
        ("ellipsoid", "--axes", "1,0.5", "--net", "0"),
        ("duality", "--restarts", "-1"),
        ("duality", "--threads", "0"),
        ("analyze", "--young", "0.5"),
        ("analyze", "--young", "nan"),
        ("analyze", "--young", "inf"),
        ("partition", "--r", "inf"),
        ("ellipsoid", "--axes", "1,0.5", "--net", "inf"),
        ("bounds", "--seed", "-1"),
        ("bounds", "--seed", str(2 ** 64)),
        ("modulus", "--seed", str(2 ** 128 - 1)),
        ("bounds", "--threads", str(cli.THREAD_LIMIT + 1)),  # rejected before any thread starts
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, argv):
        instance = ("--instance", data_instance_path("two_point.json"))
        with pytest.raises(SystemExit) as exc:  # the ellipsoid command reads no instance
            run(tmp_path, *argv, *(instance if argv[0] != "ellipsoid" else ()))
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: {argv[-1]!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [(), ("--mode", "gaussian-log")])
    def test_young_without_young_inverse_mode_exits_2(self, tmp_path, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "analyze", "--instance", data_instance_path("collinear_013.json"),
                "--young", "3", *mode)
        assert exc.value.code == 2
        assert "argument --young: needs --mode young-inverse" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("weights, message", [
        ([1.5, -0.5], "negative weight at index 1"),
        ([0.5, 0.25], "weights sum to 0.75"),
        ([float("nan"), 1.0], "weight at index 0 is not finite"),  # NaN sums pass the sum check
    ])
    def test_weights_off_the_simplex_exit_2(self, tmp_path, capsys, weights, message):
        path = write_instance(tmp_path, {
            "name": "x", "metric": {"type": "matrix", "data": [[0, 1], [1, 0]]},
            "weights": weights})
        code, _ = run(tmp_path, "analyze", "--instance", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_bad_delta_grid_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "modulus", "--instance",
                      data_instance_path("two_point.json"),
                      "--delta-grid", "0.5,-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("bounds", "--delta-grid", "nan"),
        ("bounds", "--delta-grid", "0.5,inf"),
        ("modulus", "--delta-grid", "nan"),
        ("modulus", "--delta-grid", "1,-inf"),
        ("ellipsoid", "--axes", "inf"),
        ("ellipsoid", "--axes", "1,nan"),
    ])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, argv):
        if argv[0] != "ellipsoid":  # which reads no instance
            argv += ("--instance", data_instance_path("two_point.json"))
        code, _ = run(tmp_path, *argv, "--samples", "100")
        assert code == 2
        assert capsys.readouterr().err == "error: grid values must be positive and finite\n"


class TestNumericErrors:
    def test_non_embeddable_metric_exits_3(self, tmp_path, capsys):
        # unit star with three leaves: leaves pairwise at distance 2 would
        # all have to be antipodal through the hub in any Euclidean embedding
        D = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
        path = write_instance(tmp_path, {
            "name": "star", "metric": {"type": "matrix", "data": D}})
        code, _ = run(tmp_path, "bounds", "--instance", path)
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhaust(args, inst, outputs):
            raise MemoryError("Unable to allocate 67.1 GiB for an array with shape (94919, 94919)")

        monkeypatch.setitem(cli.COMMANDS, "ellipsoid", exhaust)
        code, _ = run(tmp_path, "ellipsoid", "--axes", "1,0.5")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err


    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        code = main(["ellipsoid", "--axes", "1,0.5", "--out", str(tmp_path / "taken")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "File exists" in err
        assert err.count("\n") == 1 and "Traceback" not in err

class TestAnalyze:
    def test_two_point_closed_form(self, tmp_path):
        code, out = run(tmp_path, "analyze", "--instance",
                        data_instance_path("two_point.json"))
        assert code == 0
        env = read_report(out, "analyze")
        validate_envelope(env)
        assert env["instance"] == "two_point"
        assert env["payload"]["diam"] == 1.0
        assert env["payload"]["dudley"] == pytest.approx(1.0)
        assert env["warnings"] == []

    def test_covering_csv_headers(self, tmp_path):
        _, out = run(tmp_path, "analyze", "--instance",
                     data_instance_path("equilateral_8.json"))
        header = (out / "analyze_covering.csv").read_text().splitlines()[0]
        assert header == "radius,greedy_cover_size,packing_size,lower_bound,upper_bound"

    def test_singleton_degenerate_warning(self, tmp_path):
        path = write_instance(tmp_path, {
            "name": "one", "metric": {"type": "matrix", "data": [[0.0]]}})
        code, out = run(tmp_path, "analyze", "--instance", path)
        assert code == 0
        env = read_report(out, "analyze")
        assert any("degenerate" in w for w in env["warnings"])
        assert env["payload"]["dudley"] == 0.0

    def test_weights_block(self, tmp_path):
        path = write_instance(tmp_path, {
            "name": "w", "metric": {"type": "matrix", "data": [[0, 1], [1, 0]]},
            "weights": [0.5, 0.5]})
        code, out = run(tmp_path, "analyze", "--instance", path)
        assert code == 0
        env = read_report(out, "analyze")
        assert env["payload"]["measure"]["m_self"] == pytest.approx(1.0)

    def test_young_inverse_mode_defaults_to_q_2(self, tmp_path):
        instance = ("--instance", write_instance(tmp_path, {
            "name": "w", "metric": {"type": "points", "data": [[0], [1], [3]]},
            "weights": [0.2, 0.3, 0.5]}))
        assert run(tmp_path, "analyze", *instance, "--mode", "young-inverse", sub="default")[0] == 0
        assert run(tmp_path, "analyze", *instance, "--mode", "young-inverse", "--young", "2",
                   sub="two")[0] == 0
        assert run(tmp_path, "analyze", *instance, "--mode", "young-inverse", "--young", "3",
                   sub="three")[0] == 0
        for name in ("analyze_report.json", "analyze_covering.csv"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()
        m_self = [read_report(tmp_path / sub, "analyze")["payload"]["measure"]["m_self"]
                  for sub in ("two", "three")]
        assert m_self[0] != m_self[1]
        flags = [json.loads((tmp_path / sub / "analyze_manifest.json").read_text())["flags"]
                 for sub in ("default", "two")]
        assert flags[0]["young"] is None and flags[1]["young"] == 2.0
        # replay skips the null flag and reruns in young-inverse mode at q = 2
        assert replay_manifest(str(tmp_path / "default" / "analyze_manifest.json"),
                               str(tmp_path / "replay")) == 0
        assert (tmp_path / "replay" / "analyze_report.json").read_bytes() == \
            (tmp_path / "default" / "analyze_report.json").read_bytes()


    def test_subnormal_smallest_distance_runs(self, tmp_path):
        # half of 5e-324 underflows to 0.0: the first row, in segment 0, is
        # written at radius 0 with segment 0's counts
        data = [[0, 5e-324, 1], [5e-324, 0, 1], [1, 1, 0]]
        path = write_instance(tmp_path, {"name": "sub", "metric": {"type": "matrix",
                                                                   "data": data}})
        code, out = run(tmp_path, "analyze", "--instance", path)
        assert code == 0
        first = read_report(out, "analyze")["payload"]["covering"][0]
        assert first == {"radius": 0.0, "greedy_cover_size": 3, "packing_size": 3,
                         "lower_bound": 3, "upper_bound": 3}
        assert (out / "analyze_covering.csv").read_text().splitlines()[1] == "0.0,3,3,3,3"

    @pytest.mark.parametrize("name", BUNDLED)
    def test_tables_are_the_sequential_scans(self, tmp_path, name):
        # the report and the CSV, byte for byte, from rows that the sequential
        # cover and packing scans give and the reference encoders write
        path = data_instance_path(name)
        code, out = run(tmp_path, "analyze", "--instance", path)
        assert code == 0
        sp = chainscope_io.space_from_instance(chainscope_io.load_instance(path))
        ds = oracles.distinct_distances_reference(sp)
        rows = [{"radius": r, "greedy_cover_size": oracles.cover_size_reference(sp, r),
                 "packing_size": len(oracles.greedy_packing_reference(sp, r)),
                 "lower_bound": len(oracles.greedy_packing_reference(sp, 2.0 * r)),
                 "upper_bound": oracles.cover_size_reference(sp, r)}
                for r in [ds[0] / 2.0, *ds]]
        report = read_report(out, "analyze")
        payload = {"n": sp.n, "diam": sp.diam, "covering": rows,
                   "dudley": oracles.entropy_integral_reference(sp, sp.diam),
                   "entropy_table": [{"delta": d, "delta_sqrt_log_cover": v} for d, v in
                                     oracles.modulus_entropy_diagnostic_reference(sp)]}
        if "measure" in report["payload"]:  # not built from the scans
            payload["measure"] = report["payload"]["measure"]
        envelope = {"schema_version": cli.SCHEMA_VERSION, "command": "analyze",
                    "instance": report["instance"], "payload": payload, "warnings": []}
        assert (out / "analyze_report.json").read_text() == oracles.dump_json_reference(envelope)
        assert (out / "analyze_covering.csv").read_text() == oracles.csv_reference(rows[0], rows)


class TestBounds:
    def test_largest_seed_runs(self, tmp_path):
        # bounds keys its draws up to seed + 2 + (number of deltas - 1)
        code, _ = run(tmp_path, "bounds", "--instance", data_instance_path("iid_16.json"),
                      "--samples", "200", "--seed", str(2 ** 64 - 1))
        assert code == 0

    def test_two_point(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--instance",
                        data_instance_path("two_point.json"),
                        "--samples", "100000", "--seed", "5")
        assert code == 0
        p = read_report(out, "bounds")["payload"]
        assert abs(p["esup"] - 1.0 / math.sqrt(2 * math.pi)) <= 3 * p["esup_stderr"]
        assert p["sudakov"] == {"value": 1.0, "radius": 1.0, "packing": 2}
        assert p["dudley"] == pytest.approx(1.0)
        header = (out / "bounds_delta.csv").read_text().splitlines()[0]
        assert header == "delta,s_delta,s_stderr,cover_size,upper_proxy,lower_expression"

    def test_one_point_degenerate(self, tmp_path):
        path = write_instance(tmp_path, {
            "name": "one", "metric": {"type": "matrix", "data": [[0]]}})
        code, out = run(tmp_path, "bounds", "--instance", path, "--samples", "100")
        assert code == 0
        p = read_report(out, "bounds")["payload"]
        assert p["degenerate"] is True
        assert p["dudley"] == 0.0
        assert p["sudakov"] == {"value": 0.0, "radius": 0.0, "packing": 1}

    def test_coincident_points_degenerate(self, tmp_path):
        # two perfectly correlated coordinates: both points of the canonical
        # metric coincide, so the diameter, Dudley and Sudakov are all zero
        path = write_instance(tmp_path, {
            "name": "x", "metric": {"type": "covariance", "data": [[1, 1], [1, 1]]}})
        code, out = run(tmp_path, "bounds", "--instance", path, "--samples", "100")
        assert code == 0
        p = read_report(out, "bounds")["payload"]
        assert p["dudley"] == 0.0
        assert p["sudakov"] == {"value": 0.0, "radius": 0.0, "packing": 1}


class TestPartitionCommand:
    def test_two_point(self, tmp_path):
        code, out = run(tmp_path, "partition", "--instance",
                        data_instance_path("two_point.json"),
                        "--samples", "50000")
        assert code == 0
        p = read_report(out, "partition")["payload"]
        assert p["depth"] == 1
        assert p["level_sizes"] == [1, 2]
        assert p["chained_uniform"] == pytest.approx(1.0)
        assert p["lower_bound"]["induction_sum"] == pytest.approx(0.25)
        assert (out / "partition_audit.csv").exists()

    def test_subnormal_smallest_distance_runs(self, tmp_path):
        # diam / 5e-324 overflows, and the depth bound still comes out finite
        data = [[0, 5e-324, 1], [5e-324, 0, 1], [1, 1, 0]]
        path = write_instance(tmp_path, {"name": "sub", "metric": {"type": "matrix",
                                                                   "data": data}})
        code, out = run(tmp_path, "partition", "--instance", path, "--samples", "100")
        assert code == 0
        env = read_report(out, "partition")
        assert env["payload"]["depth"] == 537 and env["warnings"] == []


class TestDuality:
    def test_two_point_triple(self, tmp_path):
        code, out = run(tmp_path, "duality", "--instance",
                        data_instance_path("two_point.json"),
                        "--restarts", "4", "--samples", "50000")
        assert code == 0
        p = read_report(out, "duality")["payload"]
        for key in ("sup_self", "inf_sup", "sup_inf"):
            assert p[key] == pytest.approx(1.0, abs=1e-6)
        assert p["semantics"]["inf_sup"] == "upper-bound"
        assert p["flags"] == []
        trace = (out / "duality_trace.csv").read_text().splitlines()
        assert trace[0] == "problem,restart,objective,iterations"
        assert len(trace) > 3


class TestEllipsoid:
    def test_outputs_and_reusable_instance(self, tmp_path):
        code, out = run(tmp_path, "ellipsoid", "--axes", "1.0,0.5",
                        "--samples", "5000")
        assert code == 0
        p = read_report(out, "ellipsoid")["payload"]
        assert p["truncation"] == 2
        assert p["norm_t"] == pytest.approx(math.sqrt(1.25))
        assert len(p["gap_trend"]) == 1
        for name in ("ellipsoid_spec.json", "ellipsoid_trend.csv",
                     "ellipsoid_instance.json"):
            assert (out / name).exists()
        code2, _ = run(tmp_path, "analyze", "--instance",
                       str(out / "ellipsoid_instance.json"), sub="reuse")
        assert code2 == 0

    def test_bad_axes_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "ellipsoid", "--axes", "1.0,oops")
        assert code == 2

    @pytest.mark.parametrize("axes", ["1e-320", "1e200", "1e308,1e308", "1e77,1e77"])
    def test_axes_beyond_the_float_range_exit_2(self, tmp_path, capsys, axes):
        # a square that underflows, infinite squares, and an infinite tail
        # sum of fourth powers
        code, _ = run(tmp_path, "ellipsoid", "--axes", axes, "--samples", "200")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: semi_axes out of range")

    def test_increasing_axes_exit_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "ellipsoid", "--axes", "0.5,1")
        assert code == 2
        assert capsys.readouterr().err == "error: semi_axes must be nonincreasing\n"


class TestModulus:
    def test_grid_rows(self, tmp_path):
        code, out = run(tmp_path, "modulus", "--instance",
                        data_instance_path("two_point.json"),
                        "--delta-grid", "0.5,1.0", "--samples", "20000")
        assert code == 0
        p = read_report(out, "modulus")["payload"]
        assert [r["delta"] for r in p["rows"]] == [0.5, 1.0]
        header = (out / "modulus_delta.csv").read_text().splitlines()[0]
        assert header == "delta,s_delta,s_stderr"

    def test_pairs_follow_the_instance_metric(self, tmp_path):
        # no distance of this matrix lies in (sqrt(10), 3.17], so both deltas
        # keep the same five pairs; the metric re-derived from the MDS
        # covariance puts d(1, 3) just above sqrt(10)
        r10, r13 = math.sqrt(10.0), math.sqrt(13.0)
        path = write_instance(tmp_path, {"name": "four", "metric": {"type": "matrix", "data": [
            [0, r13, 2, 3], [r13, 0, 3, r10], [2, 3, 0, 1], [3, r10, 1, 0]]}})
        values = []
        for delta in (repr(r10), "3.17"):
            code, out = run(tmp_path, "modulus", "--instance", path, "--delta-grid", delta,
                            "--samples", "4000", "--seed", "3", sub=delta)
            assert code == 0
            values.append(read_report(out, "modulus")["payload"]["rows"][0]["s_delta"])
        assert values[0] == values[1]


class TestValidateOnce:
    @pytest.mark.parametrize("command", ["bounds", "modulus"])
    def test_matrix_instance_is_validated_once(self, tmp_path, monkeypatch, command):
        D = [[0, 1, 3, 6], [1, 0, 2, 5], [3, 2, 0, 3], [6, 5, 3, 0]]  # points 0, 1, 3, 6
        argv = (command, "--samples", "2000", "--instance", write_instance(
            tmp_path, {"name": "four", "metric": {"type": "matrix", "data": D}}))
        calls = []
        real = chainscope_io.build_from_distance_matrix
        monkeypatch.setattr(chainscope_io, "build_from_distance_matrix",
                            lambda matrix: calls.append(1) or real(matrix))
        assert run(tmp_path, *argv, sub="once")[0] == 0
        assert len(calls) == 1

        def validate_twice(inst):  # the prelude the commands had before
            space = cli._space(inst)
            again = chainscope_io.build_from_distance_matrix(inst["metric"]["data"])
            return space, cli.build_model(chainscope_io.covariance_from_instance(inst, again),
                                          space)

        monkeypatch.setattr(cli, "_space_and_model", validate_twice)
        assert run(tmp_path, *argv, sub="twice")[0] == 0
        assert len(calls) == 3
        for name in os.listdir(tmp_path / "once"):
            if not name.endswith("_manifest.json"):  # manifests hold wall time
                assert ((tmp_path / "once" / name).read_bytes()
                        == (tmp_path / "twice" / name).read_bytes()), name


class TestThreads:
    @pytest.mark.parametrize("command", ["bounds", "duality"])
    def test_worker_threads_keep_every_byte(self, tmp_path, command):
        # the default 20,000 samples are three tiles at n = 8, which
        # --threads 2 shares out between two workers
        for threads in ("1", "2"):
            code, _ = run(tmp_path, command, "--threads", threads, "--instance",
                          data_instance_path("equilateral_8.json"), sub=threads)
            assert code == 0
        names = sorted(os.listdir(tmp_path / "1"))
        assert names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            if not name.endswith("_manifest.json"):  # manifests hold wall time
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / "2" / name).read_bytes(), name

    def test_two_threads_start_one_pool_thread(self, tmp_path, monkeypatch):
        # worker 0 is the calling thread, so --threads 2 adds one pool
        # thread to each of duality's two estimates of three tiles
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(gaussian_lab, "ThreadPoolExecutor", Recorded)
        code, _ = run(tmp_path, "duality", "--threads", "2", "--restarts", "0", "--instance",
                      data_instance_path("equilateral_8.json"))
        assert code == 0
        assert pools == [1, 1]


class TestManifestReplay:
    def test_replay_byte_identical(self, tmp_path):
        code, out = run(tmp_path, "bounds", "--instance",
                        data_instance_path("two_point.json"),
                        "--samples", "20000", "--seed", "9")
        assert code == 0
        replay_dir = tmp_path / "replay"
        code2 = replay_manifest(str(out / "bounds_manifest.json"),
                                str(replay_dir), threads=2)
        assert code2 == 0
        manifest = json.loads((out / "bounds_manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).read_bytes() == (replay_dir / name).read_bytes()

    def test_replay_of_manifest_with_inert_young(self, tmp_path):
        # manifests written while --young defaulted to 2.0 record it in the
        # gaussian-log mode too, where it never had an effect; replay drops it
        code, out = run(tmp_path, "analyze", "--instance", data_instance_path("two_point.json"))
        assert code == 0
        manifest = json.loads((out / "analyze_manifest.json").read_text())
        assert manifest["flags"]["mode"] == "gaussian-log"
        manifest["flags"]["young"] = 2.0
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert replay_manifest(str(old), str(tmp_path / "replay")) == 0
        for name in manifest["outputs"]:
            assert (out / name).read_bytes() == (tmp_path / "replay" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        _, out = run(tmp_path, "analyze", "--instance",
                     data_instance_path("two_point.json"))
        m = json.loads((out / "analyze_manifest.json").read_text())
        assert m["command"] == "analyze"
        assert m["seed"] == 0
        assert len(m["instance_sha256"]) == 64
        assert "analyze_report.json" in m["outputs"]
        assert m["wall_time_s"] >= 0
        assert m["blas_threads"] == cli.BLAS_THREADS
        assert set(m["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count"}

    def test_replay_warns_of_another_blas_thread_setting(self, tmp_path):
        code, out = run(tmp_path, "modulus", "--instance", data_instance_path("two_point.json"),
                        "--samples", "2000")
        assert code == 0
        manifest = json.loads((out / "modulus_manifest.json").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the recorded setting: no warning
            assert replay_manifest(str(out / "modulus_manifest.json"),
                                   str(tmp_path / "same")) == 0
        other = dict(cli.BLAS_THREADS, OPENBLAS_NUM_THREADS="3")
        if other == cli.BLAS_THREADS:
            other["OPENBLAS_NUM_THREADS"] = "4"
        manifest["blas_threads"] = other
        hand_made = tmp_path / "hand_made_manifest.json"
        hand_made.write_text(json.dumps(manifest))
        with pytest.warns(UserWarning, match="BLAS thread setting"):
            assert replay_manifest(str(hand_made), str(tmp_path / "other")) == 0
        for name in manifest["outputs"]:
            assert (out / name).read_bytes() == (tmp_path / "other" / name).read_bytes()


class TestMisc:
    def test_bundled_instances_exist(self):
        for name in ("two_point.json", "equilateral_8.json",
                     "collinear_013.json", "iid_16.json"):
            assert os.path.exists(data_instance_path(name))

    def test_envelope_schema_rejects_extra_keys(self):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            validate_envelope({"schema_version": "1", "command": "analyze",
                               "instance": "x", "payload": {}, "warnings": [],
                               "extra": 1})

    def test_envelope_schema_is_a_valid_draft7_schema(self):
        # validate_envelope runs a validator built once, which does not
        # check the schema itself against the metaschema
        import jsonschema

        jsonschema.Draft7Validator.check_schema(cli.ENVELOPE_SCHEMA)

    def test_importing_the_cli_leaves_out_jsonschema(self):
        # neither the package nor the CLI imports scipy or jsonschema: they
        # load where a command first needs them
        for module in ("chainscope", "chainscope.cli"):
            code = (f"import sys, {module}; "
                    "print(sorted({m.split('.')[0] for m in sys.modules} "
                    "& {'scipy', 'jsonschema'}))")
            assert _fresh_python(code) == "[]", module

    def test_first_draw_loads_the_inverse_normal_cdf(self, tmp_path):
        code = (
            "import sys\n"
            "from chainscope.cli import data_instance_path, main\n"
            "assert 'scipy' not in sys.modules\n"
            f"code = main(['modulus', '--instance', data_instance_path('iid_16.json'),\n"
            f"             '--samples', '500', '--out', {str(tmp_path / 'lazy')!r}])\n"
            "print(code, 'scipy.special' in sys.modules)\n")
        assert _fresh_python(code) == "0 True"
        _, out = run(tmp_path, "modulus", "--instance", data_instance_path("iid_16.json"),
                     "--samples", "500")
        assert ((tmp_path / "lazy" / "modulus_report.json").read_bytes()
                == (out / "modulus_report.json").read_bytes())

    def test_repeated_calls_share_one_parser(self, tmp_path):
        # main builds the argparse tree once; a command, another command and
        # a bad flag in one process act as they do in separate processes
        instance = data_instance_path("iid_16.json")
        commands = [("analyze", "--instance", instance),
                    ("bounds", "--instance", instance, "--samples", "500")]
        for i, argv in enumerate(commands):
            assert run(tmp_path, *argv, sub=f"in{i}")[0] == 0
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "analyze", "--instance", instance, "--no-such-flag")
        assert exc.value.code == 2
        for i, argv in enumerate(commands):
            alone = tmp_path / f"alone{i}"
            code = ("from chainscope.cli import main; "
                    f"print(main({list(argv) + ['--out', str(alone)]!r}))")
            assert _fresh_python(code) == "0"
            names = sorted(os.listdir(alone))
            assert names == sorted(os.listdir(tmp_path / f"in{i}"))
            for name in names:
                if not name.endswith("_manifest.json"):  # manifests hold wall time
                    assert (alone / name).read_bytes() == (tmp_path / f"in{i}" / name).read_bytes()
        assert cli._parser.cache_info().currsize == 1


def _fresh_python(code: str) -> str:
    """Stdout of a new interpreter that runs ``code`` with this package on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# fuzzed argv on tiny instances

# flag -> (valid values, out-of-range or non-finite values)
COMMON_FLAGS = {
    "--seed": (["0", "7", str(2 ** 64 - 1)], ["-1", "nan", str(2 ** 64)]),
    "--threads": (["1", "2"], ["0", "inf", str(cli.THREAD_LIMIT + 1)]),
}
SAMPLES = (["2", "50", "200"], ["1", "0", "nan", "inf"])
GRIDS = (["0.5", "0.25,1", "3"], ["0", "-1", "0.5,-2", "nan", "inf", "1,nan", "oops"])
OWN_FLAGS = {
    "analyze": {"--mode": (["gaussian-log", "young-inverse"], ["other"]),
                "--young": (["1", "2.5"], ["0.5", "nan", "inf"])},
    "bounds": {"--delta-grid": GRIDS},
    "partition": {"--r": (["2", "4"], ["1", "0.5", "nan", "inf"])},
    "duality": {"--restarts": (["0"], ["-1", "nan"])},
    "ellipsoid": {"--axes": (["1,0.5", "1", "1,1,0.25"],
                             ["0.5,1", "1,0", "nan", "1,inf", "1e-320", "1e200"]),
                  "--net": (["0.1", "0.5"], ["0", "-1", "nan", "inf"])},
    "modulus": {"--delta-grid": GRIDS},
}


@st.composite
def tiny_instances(draw):
    """n <= 5 instances of each metric type; small integer data makes
    coincident points and tied distances common."""
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["matrix", "points", "covariance"]))
    dim = draw(st.integers(min_value=1, max_value=3))
    A = np.array(draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=n * dim, max_size=n * dim)), dtype=float)
    A = A.reshape(n, dim)
    if kind == "matrix":  # l1 distances, often not Euclidean-embeddable
        data = np.abs(A[:, None, :] - A[None, :, :]).sum(axis=2)
    elif kind == "points":
        data = A
    else:
        data = A @ A.T
    obj = {"name": "fuzz", "metric": {"type": kind, "data": data.tolist()}}
    if draw(st.booleans()):
        obj["weights"] = [1.0 / n] * n
    return obj


@st.composite
def fuzz_argv(draw):
    """A command with some of its flags set to valid values, and at most one
    flag set to an out-of-range, NaN or infinite value."""
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    flags = dict(COMMON_FLAGS, **OWN_FLAGS[command])
    if command != "analyze":
        flags["--samples"] = SAMPLES
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
    argv = [command]
    for flag, (valid, invalid) in sorted(flags.items()):
        if flag == bad:
            argv += [flag, draw(st.sampled_from(invalid))]
        elif flag in ("--axes", "--samples") or draw(st.booleans()):
            # --axes is required; the default 20000 samples would slow Tier-1
            argv += [flag, draw(st.sampled_from(valid))]
    return argv


@given(tiny_instances(), fuzz_argv())
@settings(max_examples=50, deadline=None)
def test_fuzzed_argv_exits_0_2_or_3_without_traceback(instance, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(instance, fh)
        if argv[0] != "ellipsoid":
            argv = argv + ["--instance", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", os.path.join(tmp, "out")])
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# fuzzed instance documents

# values that no metric entry or weight should be
BAD_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.sampled_from([1e308, -1e308, 1.5e308, 1e200, -1.0, 10 ** 400,
                                         -(10 ** 400), float("inf"), float("nan")]),
                        st.floats(allow_nan=False, allow_infinity=False))
GOOD_DATA = {"matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
             "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]],
             "covariance": [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]}


@st.composite
def fuzzed_documents(draw):
    """A well-formed three-point instance with at most one fault: a bad
    entry (null, boolean, string, huge finite, infinite or integer beyond
    the float range), ragged, empty or non-list data, weights of the wrong
    length, sign or type, or a missing or malformed metric or name."""
    mtype = draw(st.sampled_from(sorted(GOOD_DATA)))
    data = [list(row) for row in GOOD_DATA[mtype]]
    doc = {"name": "fuzz", "metric": {"type": mtype, "data": data}}
    if draw(st.booleans()):
        doc["weights"] = [1 / 3] * 3
    fault = draw(st.sampled_from(["none", "entry", "every entry", "ragged", "data",
                                  "weights", "weight entry", "metric", "name"]))
    if fault == "entry":
        data[draw(st.integers(0, 2))][draw(st.integers(0, len(data[0]) - 1))] = draw(BAD_SCALARS)
    elif fault == "every entry":
        value = draw(BAD_SCALARS)
        doc["metric"]["data"] = [[value] * len(row) for row in data]
    elif fault == "ragged":  # ragged, empty or with empty rows
        doc["metric"]["data"] = draw(st.lists(st.lists(st.integers(-2, 3), max_size=4),
                                              max_size=4))
    elif fault == "data":
        doc["metric"]["data"] = draw(st.one_of(
            st.sampled_from([[], [[]], [[[0.0]]], "matrix", {"a": 1}]), BAD_SCALARS))
    elif fault == "weights":
        doc["weights"] = draw(st.one_of(
            st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=5),
            st.just([[1 / 3] * 3]), BAD_SCALARS))
    elif fault == "weight entry":
        doc["weights"] = [1 / 3] * 3
        doc["weights"][draw(st.integers(0, 2))] = draw(BAD_SCALARS)
    elif fault == "metric":
        doc["metric"] = draw(st.sampled_from(
            [None, [1, 2], "matrix", True, {"data": data}, {"type": "other", "data": data}]))
        if doc["metric"] is None:
            del doc["metric"]
    elif fault == "name":
        doc["name"] = draw(st.sampled_from(["", None, 3]))
    return doc


# every command that reads an instance
FUZZ_COMMANDS = [
    ["analyze"], ["bounds", "--samples", "50"], ["partition", "--samples", "50"],
    ["duality", "--samples", "50", "--restarts", "0"], ["modulus", "--samples", "50"],
]


@given(fuzzed_documents())
@example({"name": "fuzz", "metric": {"type": "matrix", "data": [[0, 10 ** 400], [10 ** 400, 0]]}})
@example({"name": "fuzz", "metric": {"type": "matrix", "data": [[0, 1], [1, 0]]},
          "weights": [10 ** 400, 1]})
@settings(max_examples=60, deadline=None)
def test_fuzzed_instance_exits_0_2_or_3_without_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in FUZZ_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--instance", path, "--out", os.path.join(tmp, argv[0])])
            assert code in (0, 2, 3), (argv, doc, err.getvalue())
            assert "Traceback" not in err.getvalue()
