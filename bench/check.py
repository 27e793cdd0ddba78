"""Output check: an op fails if the CLI exits non-zero, if its envelope fails
``cli.validate_envelope``, or if its payload deviates from the reference
payload recorded at the parent commit.

Exact and fixed-seed Monte Carlo fields may differ from the reference by at
most ``REL_TOL`` relative.  Searched objectives are feasible points, so a
refactor may improve them: they must only be no worse than the reference.
Fields the reference lacks are not checked, so a payload may gain fields.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import random

import numpy as np

REL_TOL = 1e-12

# tables at least this long keep their float columns as a digest
LONG_TABLE = 256
SAMPLED_ROWS = 64

# command -> {path pattern: +1 (must not be lower) or -1 (must not be higher)};
# "*" stands for any list index
ONE_SIDED = {
    "duality": {("sup_self",): 1, ("sup_inf",): 1, ("inf_sup",): -1},
    "bounds": {("modulus", "*", "upper_proxy"): 1, ("modulus", "*", "lower_expression"): 1},
}

# searched measures and the ratios built from searched values
UNCHECKED = {
    "duality": {("measures",), ("ratios",)},
}


# ---------------------------------------------------------------------------
# recorded references


def _is_float_column(values) -> bool:
    return (all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
            and any(isinstance(v, float) for v in values))


def _digest(values) -> dict:
    """A long float column as its exact hash, sums and a fixed row sample."""
    rows = sorted(random.Random(len(values)).sample(range(len(values)), SAMPLED_ROWS))
    return {"len": len(values),
            "sha256": hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest(),
            "sum": math.fsum(values),
            "abs_sum": math.fsum(abs(v) for v in values),
            "sample": [[i, values[i]] for i in rows]}


def compact(obj):
    """Reference form of a payload: long tables keep integer and string
    columns whole and store each float column as :func:`_digest`."""
    if isinstance(obj, dict):
        return {k: compact(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if (len(obj) >= LONG_TABLE and all(isinstance(r, dict) for r in obj)
                and all(r.keys() == obj[0].keys() for r in obj)):
            columns = {}
            for key in obj[0]:
                values = [r[key] for r in obj]
                columns[key] = ({"__digest__": _digest(values)} if _is_float_column(values)
                                else values)
            return {"__table__": columns}
        return [compact(v) for v in obj]
    return obj


def _compare_digest(ref: dict, values, where: str) -> list:
    if len(values) != ref["len"] or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return [f"{where}: expected {ref['len']} numbers"]
    got = np.asarray(values, dtype=float)
    if hashlib.sha256(got.tobytes()).hexdigest() == ref["sha256"]:
        return []
    out = []
    for i, r in ref["sample"]:
        if not math.isclose(values[i], r, rel_tol=REL_TOL, abs_tol=0.0):
            out.append(f"{where}[{i}]: {values[i]!r} differs from {r!r}")
    if abs(math.fsum(values) - ref["sum"]) > REL_TOL * ref["abs_sum"]:
        out.append(f"{where}: column sum {math.fsum(values)!r} differs from {ref['sum']!r}")
    return out


def reference_path(bench_dir: str, pool: int) -> str:
    return os.path.join(bench_dir, "reference", f"pool{pool}.json.gz")


def load_references(bench_dir: str, pool: int) -> dict:
    """op name -> {"instance_sha256": ..., "payload": ...}; empty if unrecorded."""
    path = reference_path(bench_dir, pool)
    if not os.path.exists(path):
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# comparison


def _pattern(path):
    return tuple("*" if isinstance(p, int) else p for p in path)


def compare(ref, got, command: str, path=()) -> list:
    """Mismatches of ``got`` against ``ref`` as human-readable strings."""
    pat = _pattern(path)
    if pat in UNCHECKED.get(command, ()):
        return []
    where = "/".join(str(p) for p in path) or "payload"
    if isinstance(ref, dict) and "__digest__" in ref:
        return _compare_digest(ref["__digest__"], got, where)
    if isinstance(ref, dict) and "__table__" in ref:
        if not isinstance(got, list) or not all(isinstance(r, dict) for r in got):
            return [f"{where}: expected a table"]
        out = []
        for key, column in ref["__table__"].items():
            if not all(key in r for r in got):
                out.append(f"{where}/{key}: missing")
            else:
                out.extend(compare(column, [r[key] for r in got], command, path + (key,)))
        return out
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}/{key}: missing")
            else:
                out.extend(compare(value, got[key], command, path + (key,)))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, command, path + (i,)))
        return out
    numeric = (isinstance(ref, (int, float)) and not isinstance(ref, bool)
               and isinstance(got, (int, float)) and not isinstance(got, bool))
    if not numeric:
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    sign = ONE_SIDED.get(command, {}).get(pat)
    if sign is not None:
        if sign * (got - ref) >= -REL_TOL * abs(ref):
            return []
        return [f"{where}: searched value {got!r} worse than reference {ref!r}"]
    if math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0):
        return []
    return [f"{where}: {got!r} differs from {ref!r} beyond {REL_TOL:g} relative"]


def check_op(command: str, exit_code: int, out_dir: str, reference) -> list:
    """Problems with one op's outputs; an empty list means the op passed."""
    from chainscope.cli import validate_envelope

    if exit_code != 0:
        return [f"exit code {exit_code}"]
    path = os.path.join(out_dir, f"{command}_report.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    try:
        validate_envelope(envelope)
    except Exception as exc:  # jsonschema.ValidationError and schema errors alike
        return [f"invalid envelope: {str(exc).splitlines()[0]}"]
    if envelope["command"] != command:
        return [f"report is for command {envelope['command']!r}"]
    payload = envelope["payload"]
    problems = []
    if command == "duality" and payload.get("flags"):
        problems.append(f"duality flags raised: {payload['flags']}")
    if reference is None:
        problems.append("no reference payload recorded for this op")
    else:
        problems.extend(compare(reference, payload, command))
    return problems


def same_bytes(dir_a: str, dir_b: str, names) -> list:
    """Files in ``names`` that differ between two output directories."""
    diff = []
    for name in names:
        try:
            with open(os.path.join(dir_a, name), "rb") as fa, \
                    open(os.path.join(dir_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    diff.append(name)
        except OSError:
            diff.append(name)
    return diff
