"""Instance files, deterministic serialization, and atomic output writing.

An instance is a JSON object {"name": str, "metric": {"type": "matrix" |
"points" | "covariance", "data": [[...]]}} with an optional "weights" list
attached when a command needs a reference measure.  Reports are written
with sorted keys and no locale dependence so equal payloads are equal
bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile

import numpy as np

from .metric_core import (FiniteMetricSpace, MetricValidationError,
                          build_from_covariance, build_from_distance_matrix,
                          build_from_points)

METRIC_TYPES = ("matrix", "points", "covariance")
EMBED_TOL = 1e-8


class InstanceError(ValueError):
    """Malformed instance file; the message names the offending field."""


def parse_instance(obj) -> dict:
    """Validate a decoded instance object and return it normalized."""
    if not isinstance(obj, dict):
        raise InstanceError("instance must be a JSON object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise InstanceError("field 'name' must be a nonempty string")
    metric = obj.get("metric")
    if not isinstance(metric, dict):
        raise InstanceError("field 'metric' must be an object")
    mtype = metric.get("type")
    if mtype not in METRIC_TYPES:
        raise InstanceError(f"metric.type must be one of {METRIC_TYPES}, got {mtype!r}")
    data = metric.get("data")
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"metric.data is not a numeric array: {exc}") from None
    if arr.ndim != 2 or arr.size == 0:
        raise InstanceError(f"metric.data must be a nonempty 2-d array, got shape {arr.shape}")
    out = {"name": name, "metric": {"type": mtype, "data": arr}}
    if "weights" in obj:
        try:
            w = np.array(obj["weights"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"weights is not a numeric vector: {exc}") from None
        n = arr.shape[0]
        if w.ndim != 1 or w.shape[0] != n:
            raise InstanceError(f"weights must have length {n}, got shape {w.shape}")
        out["weights"] = w
    return out


def load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return parse_instance(obj)


def space_from_instance(inst: dict) -> FiniteMetricSpace:
    mtype = inst["metric"]["type"]
    data = inst["metric"]["data"]
    if mtype == "matrix":
        return build_from_distance_matrix(data)
    if mtype == "points":
        return build_from_points(data)
    return build_from_covariance(data)


def covariance_from_instance(inst: dict) -> np.ndarray:
    """Covariance matrix realizing the instance's metric as a canonical distance.

    covariance input is used directly, points become the Gram matrix P P^T,
    and a raw distance matrix goes through classical multidimensional
    scaling G = -1/2 J D^2 J.  A distance matrix whose Gram form has an
    eigenvalue below -EMBED_TOL * scale admits no Gaussian model and raises
    MetricValidationError.
    """
    mtype = inst["metric"]["type"]
    data = np.asarray(inst["metric"]["data"], dtype=float)
    if mtype == "covariance":
        return data
    if mtype == "points":
        P = np.atleast_2d(data)
        return P @ P.T
    D = np.asarray(build_from_distance_matrix(data).dist)
    n = D.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    G = -0.5 * J @ (D ** 2) @ J
    G = (G + G.T) / 2.0
    lam, V = np.linalg.eigh(G)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -EMBED_TOL * scale:
        raise MetricValidationError(
            f"distance matrix is not Euclidean-embeddable: Gram eigenvalue {lam.min()}")
    lam = np.clip(lam, 0.0, None)
    return (V * lam) @ V.T


# ---------------------------------------------------------------------------
# deterministic serialization


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them.

    Non-finite floats become strings ("inf", "-inf", "nan") because strict
    JSON has no encoding for them.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and os.replace so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def write_csv(path: str, header, rows) -> None:
    """Rows are dicts keyed exactly by the header names."""
    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(header), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: to_jsonable(row[k]) for k in header})
    atomic_write_text(path, buf.getvalue())


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
