"""Command-line front end: instance I/O, dispatch, and run manifests.

Every command is pure given (instance bytes, flags, seed): payloads contain
no clock or host information, so replaying a manifest reproduces the report
byte for byte.  Exit codes: 0 ok, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .ellipsoid import ellipsoid_report, esup_check, gap_lower_bound_check, make_spec
from .gaussian_lab import (FactorizationError, build_model, estimate_modulus,
                           sudakov_bound, supremum_report)
from .io import (InstanceError, Table, covariance_from_instance, load_instance,
                 sha256_file, space_from_instance, write_csv, write_json)
from .measures import (GAUSSIAN_LOG, YOUNG_INVERSE, MeasureError, ProbabilityMeasure,
                       nu_average, sigma_profile, uniform_measure)
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
SEED_LIMIT = 2 ** 64  # --seed is below this, so every derived Philox key is below 2**128
THREAD_LIMIT = 64  # --threads is at most this: the calling thread and a pool of up to 63
# The BLAS thread setting this process started with (OpenBLAS reads it when
# numpy loads): from n of about 190 path values depend on it
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                "cpu_count": os.cpu_count()}


def data_instance_path(name: str) -> str:
    """Path to a bundled instance file such as ``two_point.json``."""
    return os.path.join(os.path.dirname(__file__), "data", name)


@functools.cache
def _envelope_validator():
    # built on first use, so importing the CLI does not import jsonschema;
    # tests check ENVELOPE_SCHEMA against the metaschema once
    import jsonschema

    return jsonschema.Draft7Validator(ENVELOPE_SCHEMA)


def validate_envelope(envelope: dict) -> None:
    _envelope_validator().validate(envelope)


def _parse_grid(text: str):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InstanceError(f"bad numeric list {text!r}") from None
    if not vals or not all(0 < v < math.inf for v in vals):
        raise InstanceError("grid values must be positive and finite")
    return vals


def _at_least(kind, low, strict: bool = False, below=math.inf):
    """argparse ``type=`` for a finite ``kind(text) >= low`` (``> low`` if strict)
    that is also ``< below``; else exit 2."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)
                and value < below):
            raise argparse.ArgumentTypeError(
                f"{text!r} must be {'>' if strict else '>='} {low} and "
                + ("finite" if below == math.inf else f"< {below}"))
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

    def command(name, text, samples=True):
        p = sub.add_parser(name, help=text)
        if name != "ellipsoid":  # which samples its own space
            p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--seed", type=_at_least(int, 0, below=SEED_LIMIT), default=0)
        if samples:
            p.add_argument("--samples", type=_at_least(int, 2), default=20000)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=_at_least(int, 1, below=THREAD_LIMIT + 1), default=1,
                       help="worker threads")
        return p

    p = command("analyze", "diameter, covering table, entropy integral", samples=False)
    p.add_argument("--mode", choices=[GAUSSIAN_LOG, YOUNG_INVERSE], default=GAUSSIAN_LOG)
    p.add_argument("--young", type=_at_least(float, 1), default=None,
                   help="exponent q of the built-in Young family (default 2); "
                        "young-inverse mode only")

    p = command("bounds", "E sup, argmax measure, sandwich per delta")
    p.add_argument("--delta-grid", default=None,
                   help="comma-separated deltas (default fractions of the diameter)")

    p = command("partition", "greedy partition tree and audits")
    p.add_argument("--r", type=_at_least(float, 1, strict=True), default=4.0,
                   help="scale ratio between levels")

    p = command("duality", "three extremal searches plus E sup")
    p.add_argument("--restarts", type=_at_least(int, 0), default=8)

    p = command("ellipsoid", "truncated ellipsoid case study")
    p.add_argument("--axes", required=True,
                   help="comma-separated nonincreasing positive semi-axes")
    p.add_argument("--net", type=_at_least(float, 0, strict=True), default=None,
                   help="net resolution h (default 0.05 * largest axis)")

    p = command("modulus", "continuity modulus S(delta) table")
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


def _space_and_model(inst):
    """The instance's metric space, validated once, and its Gaussian model."""
    space = _space(inst)
    return space, build_model(covariance_from_instance(inst, space), space)


def _covering_rows(space):
    """The covering table, one row per segment of the scale table: at half
    the smallest distance (0.0 where that underflows, still in segment 0),
    then at each distinct distance.  No rows when all points coincide."""
    radii = space.breaks[1:]
    if radii.size:
        radii = np.concatenate([[radii[0] / 2.0], radii])
    return Table(covering_table(space, radii))


def _entropy_rows(space, delta=None):
    """The entropy table; ``delta``, a column holding its deltas (the
    distinct distances), is taken as it is."""
    columns = modulus_entropy_diagnostic(space)
    if delta is not None:
        columns["delta"] = delta
    return Table(columns)


def cmd_analyze(args, inst, outputs):
    space = _space(inst)
    covering = _covering_rows(space)
    payload = {"n": space.n, "diam": space.diam, "covering": covering,
               # the covering radii past the first are the distinct distances
               "entropy_table": _entropy_rows(space, covering["radius"][1:])}
    if space.diam > 0:
        payload["dudley"] = entropy_integral(space, space.diam)
    else:
        warnings.warn("degenerate instance: all functionals are zero")
        payload["dudley"] = 0.0
    if "weights" in inst:
        try:
            mu = ProbabilityMeasure(space, inst["weights"])
        except MeasureError as exc:  # weights off the simplex are bad input
            raise InstanceError(str(exc)) from None
        q = 2.0 if args.young is None else args.young
        prof = sigma_profile(mu, space.diam, args.mode, q)
        payload["measure"] = {
            "mode": args.mode,
            "weights": mu.weights,
            "sigma_profile": prof,
            "m_self": nu_average(prof, mu.weights),
        }
    outputs.csv("analyze_covering.csv", covering)
    return payload


def _delta_grid(args, space):
    """``--delta-grid``, else fractions of the diameter, else [1.0] on one point."""
    if args.delta_grid is not None:
        return _parse_grid(args.delta_grid)
    if space.diam > 0:
        return [space.diam * f for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
    return [1.0]


def cmd_bounds(args, inst, outputs):
    space, model = _space_and_model(inst)
    payload = supremum_report(model, args.samples, args.seed, _delta_grid(args, space),
                              threads=args.threads)
    sud, witness = sudakov_bound(space)
    payload["sudakov"] = {"value": sud, "radius": witness[0], "packing": witness[1]}
    payload["dudley"] = entropy_integral(space, space.diam) if space.diam > 0 else 0.0
    payload["modulus"] = Table.from_rows(["delta", "s_delta", "s_stderr", "cover_size",
                                          "upper_proxy", "lower_expression"],
                                         payload["modulus"])
    outputs.csv("bounds_delta.csv", payload["modulus"])
    return payload


def cmd_partition(args, inst, outputs):
    space, model = _space_and_model(inst)
    oracle = common_sample_oracle(model, args.samples, args.seed)
    tree = build_partition(space, oracle, r=args.r)
    mu = uniform_measure(space)
    audits = Table.from_rows(
        ["level", "center", "lhs", "rhs_core", "children_term", "empirical_L", "l0",
         "low_confidence"],
        [dataclasses.asdict(audit_cell(tree, mu, cell))
         for level in tree.levels[:-1] for cell in level if cell.children])
    esup = tree.levels[0][0].F_estimate
    payload = {
        "r": tree.r,
        # informational only: no audit reads it
        "eps_slack": 0.01 * space.diam if space.diam > 0 else 0.01,
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
    outputs.csv("partition_audit.csv", audits)
    return payload


def cmd_duality(args, inst, outputs):
    space, model = _space_and_model(inst)
    rep = duality_report(space, model, n_samples=args.samples, seed=args.seed,
                         restarts=args.restarts, threads=args.threads)
    payload = dataclasses.asdict(rep)
    # search results are feasible points, not certified optima
    payload["semantics"] = {"sup_self": "lower-bound", "sup_inf": "lower-bound",
                            "inf_sup": "upper-bound"}
    outputs.csv("duality_trace.csv", Table.from_rows(
        ["problem", "restart", "objective", "iterations"],
        [{"problem": problem, "restart": i, "objective": obj, "iterations": it}
         for problem, starts in payload.pop("starts").items()
         for i, (obj, it, _) in enumerate(starts)]))
    return payload


def cmd_ellipsoid(args, inst, outputs):
    axes = _parse_grid(args.axes)
    try:
        spec = make_spec(axes)
    except ValueError as exc:  # axes out of order are bad input
        raise InstanceError(str(exc)) from None
    payload = {
        "axes": list(spec.semi_axes),
        "truncation": spec.truncation,
        "norm_t": spec.norm_t,
        "esup": esup_check(spec, args.samples, args.seed),
    }
    trend = Table.from_rows(["i", "lhs_mc", "lhs_stderr", "rhs", "ratio"],
                            [gap_lower_bound_check(spec, i, args.samples, args.seed + i)
                             for i in range(1, spec.truncation)])
    payload["gap_trend"] = trend
    rep = ellipsoid_report(spec, args.samples, args.seed, args.net)
    emp = rep.pop("empirical")
    payload["empirical"] = rep
    outputs.json("ellipsoid_spec.json",
                 {"semi_axes": spec.semi_axes, "norm_t": spec.norm_t,
                  "tail_norms": spec.tail_norms, "tail_sq_norms": spec.tail_sq_norms})
    outputs.csv("ellipsoid_trend.csv", trend)
    outputs.json("ellipsoid_instance.json",
                 {"name": "ellipsoid_empirical",
                  "metric": {"type": "points", "data": emp.points},
                  "weights": emp.measure.weights})
    return payload


def cmd_modulus(args, inst, outputs):
    space, model = _space_and_model(inst)
    deltas = _delta_grid(args, space)
    estimates = [estimate_modulus(model, d, args.samples, args.seed + i, args.threads)
                 for i, d in enumerate(deltas)]
    rows = Table({"delta": deltas, "s_delta": [est.mean for est in estimates],
                  "s_stderr": [est.stderr for est in estimates]})
    payload = {
        "rows": rows,
        "entropy_table": _entropy_rows(space),
    }
    outputs.csv("modulus_delta.csv", rows)
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

    def csv(self, name: str, table: Table) -> None:
        write_csv(os.path.join(self.out_dir, name), table)
        self.files.append(name)

    def json(self, name: str, obj) -> None:
        write_json(os.path.join(self.out_dir, name), obj)
        self.files.append(name)


def _flag_dict(args) -> dict:
    skip = {"command", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run_command(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise InstanceError(f"--out {args.out!r}: {exc.strerror}") from None
    outputs = _Outputs(args.out)
    start = time.monotonic()

    inst = None
    instance_hash = None
    if "instance" in args:
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
        "blas_threads": BLAS_THREADS,
        "wall_time_s": time.monotonic() - start,
        "outputs": sorted(outputs.files),
    }
    write_json(os.path.join(args.out, f"{args.command}_manifest.json"), manifest)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser as it found it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "analyze" and args.young is not None and args.mode != YOUNG_INVERSE:
        _parser().error("argument --young: needs --mode young-inverse")
    try:
        return run_command(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MetricValidationError, FactorizationError, ValueError,
            FloatingPointError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numeric error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC


def replay_manifest(manifest_path: str, out_dir: str, threads: int | None = None) -> int:
    """Re-run the command recorded in a manifest into ``out_dir``.

    Thread count may be overridden: payloads are reduction-order fixed, so
    the report bytes must not change.  Wall time lives only in the manifest
    and is excluded from replay comparison.  A BLAS thread setting other
    than the recorded one is warned about: from n of about 190 it moves bytes.
    """
    import json

    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    recorded = manifest.get("blas_threads", BLAS_THREADS)
    if recorded != BLAS_THREADS:
        warnings.warn(f"BLAS thread setting {BLAS_THREADS} differs from the recorded "
                      f"{recorded}; from n of about 190 the outputs may differ")
    argv = [manifest["command"]]
    flags = dict(manifest["flags"])
    if manifest["command"] == "analyze" and flags["mode"] != YOUNG_INVERSE:
        # older analyze manifests record the then-default young = 2.0 in every
        # mode; outside young-inverse mode it never had an effect
        flags.pop("young", None)
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
