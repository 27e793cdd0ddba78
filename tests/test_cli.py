import json
import math
import os

import pytest

from chainscope.cli import (data_instance_path, main, replay_manifest,
                            validate_envelope, _threads_default)


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

    def test_missing_file_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--instance", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("bounds", "--mode", "young-inverse"),
        ("modulus", "--young", "3"),
        ("duality", "--tol", "1e-8"),
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
        ("partition", "--eps", "-1"),
        ("partition", "--eps", "0"),
        ("ellipsoid", "--axes", "1,0.5", "--net", "-1"),
        ("ellipsoid", "--axes", "1,0.5", "--net", "0"),
        ("duality", "--restarts", "-1"),
        ("duality", "--threads", "0"),
        ("analyze", "--young", "0.5"),
        ("analyze", "--young", "nan"),
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv, "--instance", data_instance_path("two_point.json"))
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: {argv[-1]!r} must be" in capsys.readouterr().err

    def test_bad_delta_grid_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "modulus", "--instance",
                      data_instance_path("two_point.json"),
                      "--delta-grid", "0.5,-1")
        assert code == 2


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


class TestBounds:
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

    def test_manifest_contents(self, tmp_path):
        _, out = run(tmp_path, "analyze", "--instance",
                     data_instance_path("two_point.json"))
        m = json.loads((out / "analyze_manifest.json").read_text())
        assert m["command"] == "analyze"
        assert m["seed"] == 0
        assert len(m["instance_sha256"]) == 64
        assert "analyze_report.json" in m["outputs"]
        assert m["wall_time_s"] >= 0


class TestMisc:
    def test_bundled_instances_exist(self):
        for name in ("two_point.json", "equilateral_8.json",
                     "collinear_013.json", "iid_16.json"):
            assert os.path.exists(data_instance_path(name))

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CHAINSCOPE_THREADS", "6")
        assert _threads_default() == 6
        monkeypatch.setenv("CHAINSCOPE_THREADS", "junk")
        assert _threads_default() == 1
        monkeypatch.delenv("CHAINSCOPE_THREADS")
        assert _threads_default() == 1

    def test_envelope_schema_rejects_extra_keys(self):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            validate_envelope({"schema_version": "1", "command": "analyze",
                               "instance": "x", "payload": {}, "warnings": [],
                               "extra": 1})
