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
import io
import itertools
import json
import math
import operator
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


def _reject_strings_and_booleans(field: str, entries) -> None:
    """Reject JSON strings and booleans: numpy would read "1" and true as 1.0."""
    kinds = set(map(type, entries))
    if str in kinds or bool in kinds:
        raise InstanceError(f"{field} entries must be numbers, not strings or booleans")


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
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int beyond float
        raise InstanceError(f"metric.data is not a numeric array: {exc}") from None
    if arr.ndim != 2 or arr.size == 0:
        raise InstanceError(f"metric.data must be a nonempty 2-d array, got shape {arr.shape}")
    _reject_strings_and_booleans("metric.data", itertools.chain.from_iterable(data))
    out = {"name": name, "metric": {"type": mtype, "data": arr}}
    if "weights" in obj:
        try:
            w = np.array(obj["weights"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"weights is not a numeric vector: {exc}") from None
        n = arr.shape[0]
        if w.ndim != 1 or w.shape[0] != n:
            raise InstanceError(f"weights must have length {n}, got shape {w.shape}")
        _reject_strings_and_booleans("weights", obj["weights"])
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


def covariance_from_instance(inst: dict, space: FiniteMetricSpace | None = None) -> np.ndarray:
    """Covariance matrix realizing the instance's metric as a canonical distance.

    covariance input is used directly, points become the Gram matrix P P^T,
    and a raw distance matrix goes through classical multidimensional
    scaling G = -1/2 J D^2 J of ``space.dist``, the instance's validated
    metric space, which a matrix instance must pass (the other two types
    need none).  A distance matrix whose Gram form has an eigenvalue below
    -EMBED_TOL * scale admits no Gaussian model and raises
    MetricValidationError.
    """
    mtype = inst["metric"]["type"]
    data = np.asarray(inst["metric"]["data"], dtype=float)
    if mtype == "covariance":
        return data
    if mtype == "points":
        P = np.atleast_2d(data)
        return P @ P.T
    D = np.asarray(space.dist)
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
#
# dump_json writes the bytes of json.dumps(obj, sort_keys=True, indent=2,
# ensure_ascii=True, allow_nan=False) + "\n" in one walk, with numpy scalars
# and arrays as plain values and non-finite floats as the strings "inf",
# "-inf" and "nan".  Lists of scalars, lists of flat scalar lists and lists of
# flat dicts that share their string keys (the report tables) are formatted a
# column at a time.

_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_TYPES = {float, np.float64, np.float32, np.float16}
_JSON_NAMES = {name: f'"{name}"' for name in ("inf", "-inf", "nan")}
_CSV_NAMES = {name: name for name in _JSON_NAMES}


def _non_finite_name(f: float) -> str:
    return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")


def _numeric_column(col, names):
    """Tokens of a column of only floats or only ints, else None.

    Floats print as ``float.__repr__``; a non-finite one prints as
    ``names[its string]``."""
    kinds = set(map(type, col))
    if kinds <= _FLOAT_TYPES:
        a = np.array(col, dtype=float)
        tokens = list(map(float.__repr__, a.tolist()))
        for i in np.flatnonzero(~np.isfinite(a)).tolist():
            tokens[i] = names[_non_finite_name(float(a[i]))]
        return tokens
    if all(k is int or issubclass(k, np.integer) for k in kinds):
        return list(map(int.__repr__, col if kinds == {int} else map(int, col)))
    return None


def _scalar(v):
    """The JSON token of a scalar, or None for a container (or a value json
    cannot encode)."""
    if v is None:
        return "null"
    if v is True or v is False or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, str):
        return _encode_str(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return float.__repr__(f) if math.isfinite(f) else _JSON_NAMES[_non_finite_name(f)]
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    return None


def _column(col):
    """JSON tokens of a list of scalars, or None if one of them is not."""
    tokens = _numeric_column(col, _JSON_NAMES)
    if tokens is None:
        tokens = list(map(_scalar, col))
        if None in tokens:
            return None
    return tokens


def _block(open_, items, close, ind):
    """``items`` one to a line at the indent after ``ind``, between brackets."""
    inner = ind + "  "
    return open_ + inner + ("," + inner).join(items) + ind + close


def _table(rows, ind):
    """Items of a list of dicts sharing their string keys, each value a scalar,
    or None for any other list of dicts."""
    keys = rows[0].keys()
    if not keys or any(type(k) is not str for k in keys) or \
            set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    names = sorted(keys)
    try:  # rows of the same length with every key of the first share its keys
        columns = [_column(list(map(operator.itemgetter(k), rows))) for k in names]
    except KeyError:
        return None
    if None in columns:
        return None
    # each row is a fixed piece before each value, then the closing brace
    inner = ind + "    "
    parts = []
    for i, (name, column) in enumerate(zip(names, columns)):
        parts += [itertools.repeat(("," if i else "{") + inner + _encode_str(name) + ": "),
                  column]
    parts.append(itertools.repeat(ind + "  }"))
    return list(map("".join, zip(*parts)))


def _matrix(rows, ind):
    """Items of a list of flat lists of scalars, or None."""
    if not all(isinstance(r, (list, tuple)) for r in rows):
        return None
    tokens = _column([v for r in rows for v in r])
    if tokens is None:
        return None
    out, start, row_ind = [], 0, ind + "  "
    for r in rows:
        stop = start + len(r)
        out.append(_block("[", tokens[start:stop], "]", row_ind) if r else "[]")
        start = stop
    return out


def _items(seq, ind):
    """Encoded items of a nonempty list whose closing bracket sits at ``ind``."""
    first = seq[0]
    if isinstance(first, dict):
        items = _table(seq, ind)
    elif isinstance(first, (list, tuple)):
        items = _matrix(seq, ind)
    else:
        items = _column(seq)
    if items is None:
        inner = ind + "  "
        items = [_encode(v, inner) for v in seq]
    return items


def _encode(obj, ind):
    """JSON text of ``obj`` whose closing bracket, if any, sits at ``ind``."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        plain = {str(k): v for k, v in obj.items()}
        inner = ind + "  "
        return _block("{", [_encode_str(k) + ": " + _encode(plain[k], inner)
                            for k in sorted(plain)], "}", ind)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist()) if isinstance(obj, np.ndarray) else obj
        return _block("[", _items(seq, ind), "]", ind) if seq else "[]"
    token = _scalar(obj)
    if token is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return token


def dump_json(obj) -> str:
    """Indent-2 JSON with sorted keys, ASCII only, and non-finite floats as the
    strings "inf", "-inf" and "nan"; numpy scalars and arrays are accepted."""
    return _encode(obj, "\n") + "\n"


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
    """Rows are dicts keyed exactly by the nonempty header.  A column of only
    floats prints as in ``dump_json``, with non-finite values as inf, -inf and
    nan, and a column of only ints as ints; ``csv.writer`` prints the cells of
    any other column as they are."""
    header, rows = list(header), list(rows)
    columns = [_numeric_column(col, _CSV_NAMES) or col
               for col in (list(map(operator.itemgetter(k), rows)) for k in header)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    atomic_write_text(path, buf.getvalue())


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
