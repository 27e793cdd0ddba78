"""Command-line front end: instance I/O, dispatch, and run manifests.

Every command is pure given (instance bytes, flags, seed): payloads contain
no clock or host information, so replaying a manifest reproduces the report
byte for byte.  Exit codes: 0 ok, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .gaussian_lab import (FactorizationError, build_model, estimate_modulus,
                           sudakov_bound, supremum_report)
from .io import (InstanceError, covariance_from_instance, dump_json, load_instance,
                 sha256_file, space_from_instance, write_csv, write_json)
from .measures import (GAUSSIAN_LOG, YOUNG_INVERSE, ProbabilityMeasure, functional_M,
                       sigma_profile, uniform_measure, young_power)
from .metric_core import (MetricValidationError, covering_table, entropy_integral,
                          modulus_entropy_diagnostic)
from .partition import (audit_cell, build_partition, chained_functional,
                        common_sample_oracle, lower_bound_report)
from .search import duality_report

SCHEMA_VERSION = "1"

ENVELOPE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "command", "instance", "payload", "warnings"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "command": {"type": "string", "enum": ["analyze", "bounds", "partition",
                                               "duality", "ellipsoid", "modulus"]},
        "instance": {"type": "string"},
        "payload": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def data_instance_path(name: str) -> str:
    """Path to a bundled instance file such as ``two_point.json``."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def validate_envelope(envelope: dict) -> None:
    import jsonschema

    jsonschema.validate(envelope, ENVELOPE_SCHEMA)


def _threads_default() -> int:
    env = os.environ.get("CHAINSCOPE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _parse_grid(text: str):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InstanceError(f"bad numeric list {text!r}") from None
    if not vals or any(v <= 0 for v in vals):
        raise InstanceError("grid values must be positive")
    return vals


def _at_least(kind, low, strict: bool = False):
    """argparse ``type=`` for ``kind(text) >= low`` (``> low`` if strict); else exit 2."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"{text!r} must be {'>' if strict else '>='} {low}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainscope",
        description="Functionals, entropy bounds, and Monte Carlo supremum "
                    "experiments on finite metric spaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance_required=True):
        p.add_argument("--instance", required=instance_required,
                       help="instance JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=_at_least(int, 2), default=20000)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=_at_least(int, 1), default=None,
                       help="worker threads (CHAINSCOPE_THREADS as fallback)")

    p = sub.add_parser("analyze", help="diameter, covering table, entropy integral")
    common(p)
    p.add_argument("--mode", choices=[GAUSSIAN_LOG, YOUNG_INVERSE], default=GAUSSIAN_LOG)
    p.add_argument("--young", type=_at_least(float, 1), default=2.0,
                   help="exponent q of the built-in Young family")

    p = sub.add_parser("bounds", help="E sup, argmax measure, sandwich per delta")
    common(p)
    p.add_argument("--delta-grid", default=None,
                   help="comma-separated deltas (default fractions of the diameter)")

    p = sub.add_parser("partition", help="greedy partition tree and audits")
    common(p)
    p.add_argument("--r", type=_at_least(float, 1, strict=True), default=4.0,
                   help="scale ratio between levels")
    p.add_argument("--eps", type=_at_least(float, 0, strict=True), default=None,
                   help="audit slack (default 0.01 * diameter)")

    p = sub.add_parser("duality", help="three extremal searches plus E sup")
    common(p)
    p.add_argument("--restarts", type=_at_least(int, 0), default=8)

    p = sub.add_parser("ellipsoid", help="truncated ellipsoid case study")
    common(p, instance_required=False)
    p.add_argument("--axes", required=True,
                   help="comma-separated nonincreasing positive semi-axes")
    p.add_argument("--net", type=_at_least(float, 0, strict=True), default=None,
                   help="net resolution h (default 0.05 * largest axis)")

    p = sub.add_parser("modulus", help="continuity modulus S(delta) table")
    common(p)
    p.add_argument("--delta-grid", default=None,
                   help="comma-separated deltas (default fractions of the diameter)")

    return parser


# ---------------------------------------------------------------------------
# command payloads


def _space(inst):
    """Instance data failing metric validation is an input error (exit 2)."""
    try:
        return space_from_instance(inst)
    except MetricValidationError as exc:
        raise InstanceError(str(exc)) from None


def _covering_rows(space):
    radii = [float(d) for d in space.distinct_distances()]
    if radii:
        radii = [radii[0] / 2.0] + radii
    return [{"radius": rep.radius, "greedy_cover_size": rep.greedy_cover_size,
             "packing_size": rep.packing_size,
             "lower_bound": rep.certified_bounds[0],
             "upper_bound": rep.certified_bounds[1]}
            for rep in covering_table(space, radii)]


def cmd_analyze(args, inst, outputs):
    space = _space(inst)
    payload = {"n": space.n, "diam": space.diam}
    if space.n < 2 or space.diam == 0:
        warnings.warn("degenerate instance: all functionals are zero")
        payload.update({"covering": [], "dudley": 0.0, "entropy_table": []})
    else:
        payload["covering"] = _covering_rows(space)
        payload["dudley"] = float(entropy_integral(space, space.diam))
        payload["entropy_table"] = [
            {"delta": d, "delta_sqrt_log_cover": v}
            for d, v in modulus_entropy_diagnostic(space)]
    if "weights" in inst:
        mu = ProbabilityMeasure(space, inst["weights"])
        young = young_power(args.young) if args.mode == YOUNG_INVERSE else None
        prof = sigma_profile(space, mu, space.diam, args.mode, young)
        payload["measure"] = {
            "mode": args.mode,
            "weights": mu.weights,
            "sigma_profile": prof,
            "m_self": functional_M(space, mu, mu, space.diam, args.mode, young),
        }
    outputs.csv("analyze_covering.csv",
                ["radius", "greedy_cover_size", "packing_size",
                 "lower_bound", "upper_bound"],
                payload.get("covering", []))
    return payload


def _default_delta_grid(space):
    return [space.diam * f for f in (0.2, 0.4, 0.6, 0.8, 1.0)]


def cmd_bounds(args, inst, outputs):
    space = _space(inst)
    model = build_model(covariance_from_instance(inst))
    if args.delta_grid is not None:
        grid = _parse_grid(args.delta_grid)
    elif space.diam > 0:
        grid = _default_delta_grid(space)
    else:
        grid = [1.0]
    payload = supremum_report(model, args.samples, args.seed, grid,
                              threads=args.threads)
    sud, witness = sudakov_bound(space)
    payload["sudakov"] = {"value": sud, "radius": witness[0], "packing": witness[1]}
    payload["dudley"] = float(entropy_integral(space, space.diam)) if space.n > 1 else 0.0
    outputs.csv("bounds_delta.csv",
                ["delta", "s_delta", "s_stderr", "cover_size",
                 "upper_proxy", "lower_expression"],
                payload.get("modulus", []))
    return payload


def cmd_partition(args, inst, outputs):
    space = _space(inst)
    model = build_model(covariance_from_instance(inst))
    oracle = common_sample_oracle(model, args.samples, args.seed)
    tree = build_partition(space, oracle, r=args.r, eps_slack=args.eps)
    mu = uniform_measure(space)
    audits = []
    for level in tree.levels[:-1]:
        for cell in level:
            if cell.children:
                a = audit_cell(tree, mu, cell)
                audits.append({"level": a.level, "center": a.center, "lhs": a.lhs,
                               "rhs_core": a.rhs_core, "children_term": a.children_term,
                               "empirical_L": a.empirical_L, "l0": a.l0,
                               "low_confidence": a.low_confidence})
    esup = tree.levels[0][0].F_estimate
    payload = {
        "r": tree.r,
        "eps_slack": tree.eps_slack,
        "depth": tree.depth,
        "level_sizes": [len(level) for level in tree.levels],
        "levels": [[{"members": list(c.members), "center": c.center,
                     "F_estimate": c.F_estimate, "F_stderr": c.F_stderr}
                    for c in level] for level in tree.levels],
        "chained_uniform": chained_functional(tree, mu, mu),
        "esup": esup,
        "lower_bound": lower_bound_report(tree, mu, esup),
        "audits": audits,
    }
    outputs.csv("partition_audit.csv",
                ["level", "center", "lhs", "rhs_core", "children_term",
                 "empirical_L", "l0", "low_confidence"], audits)
    return payload


def cmd_duality(args, inst, outputs):
    space = _space(inst)
    model = build_model(covariance_from_instance(inst))
    trace = []
    rep = duality_report(space, model, n_samples=args.samples, seed=args.seed,
                         restarts=args.restarts, threads=args.threads, trace=trace)
    payload = {
        "sup_self": rep.sup_self, "inf_sup": rep.inf_sup, "sup_inf": rep.sup_inf,
        "esup": rep.esup, "esup_stderr": rep.esup_stderr,
        "ratios": rep.ratios, "flags": rep.flags,
        "measures": rep.measures,
        # search results are feasible points, not certified optima
        "semantics": {"sup_self": "lower-bound", "sup_inf": "lower-bound",
                      "inf_sup": "upper-bound"},
    }
    outputs.csv("duality_trace.csv",
                ["problem", "restart", "objective", "iterations"], trace)
    return payload


def cmd_ellipsoid(args, inst, outputs):
    from .ellipsoid import (esup_check, gap_lower_bound_check, make_spec,
                            ellipsoid_report)

    axes = _parse_grid(args.axes)
    spec = make_spec(axes)
    payload = {
        "axes": list(spec.semi_axes),
        "truncation": spec.truncation,
        "norm_t": spec.norm_t,
        "esup": esup_check(spec, args.samples, args.seed),
    }
    trend = []
    for i in range(1, spec.truncation):
        trend.append(gap_lower_bound_check(spec, i, args.samples, args.seed + i))
    payload["gap_trend"] = trend
    rep = ellipsoid_report(spec, args.samples, args.seed, args.net)
    emp = rep.pop("empirical")
    payload["empirical"] = rep
    outputs.json("ellipsoid_spec.json",
                 {"semi_axes": spec.semi_axes, "norm_t": spec.norm_t,
                  "tail_norms": spec.tail_norms, "tail_sq_norms": spec.tail_sq_norms})
    outputs.csv("ellipsoid_trend.csv",
                ["i", "lhs_mc", "lhs_stderr", "rhs", "ratio"], trend)
    outputs.json("ellipsoid_instance.json",
                 {"name": "ellipsoid_empirical",
                  "metric": {"type": "points", "data": emp.points},
                  "weights": emp.measure.weights})
    return payload


def cmd_modulus(args, inst, outputs):
    space = _space(inst)
    model = build_model(covariance_from_instance(inst))
    if args.delta_grid is not None:
        grid = _parse_grid(args.delta_grid)
    elif space.diam > 0:
        grid = _default_delta_grid(space)
    else:
        grid = [1.0]
    rows = []
    for i, d in enumerate(grid):
        est = estimate_modulus(model, d, args.samples, args.seed + i, args.threads)
        rows.append({"delta": d, "s_delta": est.value, "s_stderr": est.stderr})
    payload = {
        "rows": rows,
        "entropy_table": [{"delta": d, "delta_sqrt_log_cover": v}
                          for d, v in modulus_entropy_diagnostic(space)],
    }
    outputs.csv("modulus_delta.csv", ["delta", "s_delta", "s_stderr"], rows)
    return payload


COMMANDS = {
    "analyze": cmd_analyze,
    "bounds": cmd_bounds,
    "partition": cmd_partition,
    "duality": cmd_duality,
    "ellipsoid": cmd_ellipsoid,
    "modulus": cmd_modulus,
}


# ---------------------------------------------------------------------------
# envelope / manifest plumbing


class _Outputs:
    """Collects side-channel files a command writes beside its report."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []

    def csv(self, name: str, header, rows) -> None:
        write_csv(os.path.join(self.out_dir, name), header, rows)
        self.files.append(name)

    def json(self, name: str, obj) -> None:
        write_json(os.path.join(self.out_dir, name), obj)
        self.files.append(name)


def _flag_dict(args) -> dict:
    skip = {"command", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run_command(args) -> int:
    if args.threads is None:
        args.threads = _threads_default()
    os.makedirs(args.out, exist_ok=True)
    outputs = _Outputs(args.out)
    start = time.monotonic()

    inst = None
    instance_hash = None
    if args.instance is not None:
        inst = load_instance(args.instance)
        instance_hash = sha256_file(args.instance)
    instance_name = inst["name"] if inst is not None else "none"

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payload = COMMANDS[args.command](args, inst, outputs)

    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "instance": instance_name,
        "payload": payload,
        "warnings": [str(w.message) for w in caught],
    }
    validate_envelope(envelope)
    report_name = f"{args.command}_report.json"
    write_json(os.path.join(args.out, report_name), envelope)
    outputs.files.append(report_name)

    manifest = {
        "command": args.command,
        "flags": _flag_dict(args),
        "seed": args.seed,
        "instance_sha256": instance_hash,
        "version": __version__,
        "wall_time_s": time.monotonic() - start,
        "outputs": sorted(outputs.files),
    }
    write_json(os.path.join(args.out, f"{args.command}_manifest.json"), manifest)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MetricValidationError, FactorizationError, ValueError,
            FloatingPointError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def replay_manifest(manifest_path: str, out_dir: str, threads: int | None = None) -> int:
    """Re-run the command recorded in a manifest into ``out_dir``.

    Thread count may be overridden: payloads are reduction-order fixed, so
    the report bytes must not change.  Wall time lives only in the manifest
    and is excluded from replay comparison.
    """
    import json

    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = [manifest["command"]]
    flags = dict(manifest["flags"])
    flags["out"] = out_dir
    for key, value in sorted(flags.items()):
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    if threads is not None:
        argv.extend(["--threads", str(threads)])
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
