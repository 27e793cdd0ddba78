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
# and arrays as plain values, non-finite floats as the strings "inf", "-inf"
# and "nan", and a Table as the list of row objects it stands for.  Report
# tables are Tables: held as columns, and each value formatted once, when its
# column is made, for every writer and every table that takes the column.
# Lists of scalars and lists of flat scalar lists are formatted a column at
# a time too.

_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_TYPES = {float, np.float64, np.float32, np.float16}


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
        # float.__repr__ names the non-finite ones inf, -inf and nan, as in _tokens
        return float.__repr__(f) if math.isfinite(f) else f'"{float.__repr__(f)}"'
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    return None


def _tokens(col):
    """(JSON tokens, CSV cells) of a sequence of values; the tokens are None
    if a value is not a scalar.

    A column of only floats or only ints has one list for both: floats print
    as ``float.__repr__``, which names the non-finite ones inf, -inf and nan,
    and the JSON tokens quote those names.  The cells of any other column are
    its values, which ``csv.writer`` prints as they are."""
    a = col if isinstance(col, np.ndarray) and col.dtype.kind in "fiu" else None
    if a is None:
        kinds = set(map(type, col))
        if kinds <= _FLOAT_TYPES:
            a = np.array(col, dtype=float)
        elif all(k is int or issubclass(k, np.integer) for k in kinds):
            cells = list(map(int.__repr__, col if kinds == {int} else map(int, col)))
            return cells, cells
        else:
            tokens = list(map(_scalar, col))
            return (None if None in tokens else tokens), list(col)
    if a.dtype.kind != "f":
        cells = list(map(int.__repr__, a.tolist()))
        return cells, cells
    cells = tokens = list(map(float.__repr__, a.tolist()))
    bad = np.flatnonzero(~np.isfinite(a)).tolist()
    if bad:
        tokens = cells.copy()
        for i in bad:
            tokens[i] = f'"{cells[i]}"'
    return tokens, cells


class Column:
    """One column of a :class:`Table`: the JSON token and the CSV cell of
    each value, made once, when the column is.  Slicing a column slices
    both and formats nothing again."""

    __slots__ = ("json", "csv")

    def __init__(self, values):
        self.json, self.csv = _tokens(values)
        if self.json is None:
            raise TypeError("a table column holds only scalars")

    def __getitem__(self, part: slice) -> Column:
        view = object.__new__(Column)
        view.json, view.csv = self.json[part], self.csv[part]
        return view

    def __len__(self) -> int:
        return len(self.csv)


class Table:
    """A report table: rows held as named columns of equal length.

    ``columns`` maps each name, a string, to a :class:`Column` or to a
    sequence of scalars, which becomes one; names given the same object
    share one column.  :func:`dump_json` writes a table as the list of row
    objects it stands for, keys sorted, and :func:`write_csv` as a header
    of the names in order, then one line per row.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        made = {}
        for values in columns.values():
            if id(values) not in made:
                made[id(values)] = values if isinstance(values, Column) else Column(values)
        self.columns = {name: made[id(values)] for name, values in columns.items()}
        if len(set(map(len, self.columns.values()))) > 1:
            raise ValueError("table columns differ in length")

    @classmethod
    def from_rows(cls, names, rows) -> Table:
        """The table of ``rows``, dicts holding at least the keys ``names``."""
        return cls({name: [row[name] for row in rows] for name in names})

    def __getitem__(self, name: str) -> Column:
        return self.columns[name]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _block(open_, items, close, ind):
    """``items`` one to a line at the indent after ``ind``, between brackets."""
    inner = ind + "  "
    return open_ + inner + ("," + inner).join(items) + ind + close


def _rows(table, ind):
    """Items of a table's list of row objects."""
    # each row is a fixed piece before each value, then the closing brace
    inner = ind + "    "
    parts = []
    for i, name in enumerate(sorted(table.columns)):
        parts += [itertools.repeat(("," if i else "{") + inner + _encode_str(name) + ": "),
                  table[name].json]
    parts.append(itertools.repeat(ind + "  }"))
    return list(map("".join, zip(*parts)))


def _matrix(rows, ind):
    """Items of a list of flat lists of scalars, or None."""
    if not all(isinstance(r, (list, tuple)) for r in rows):
        return None
    tokens = _tokens([v for r in rows for v in r])[0]
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
    first, items = seq[0], None
    if isinstance(first, (list, tuple)):
        items = _matrix(seq, ind)
    elif not isinstance(first, dict):
        items = _tokens(seq)[0]
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
    if isinstance(obj, Table):
        return _block("[", _rows(obj, ind), "]", ind) if len(obj) else "[]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist()) if isinstance(obj, np.ndarray) else obj
        return _block("[", _items(seq, ind), "]", ind) if seq else "[]"
    token = _scalar(obj)
    if token is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return token


def dump_json(obj) -> str:
    """Indent-2 JSON with sorted keys, ASCII only, and non-finite floats as the
    strings "inf", "-inf" and "nan"; numpy scalars and arrays are accepted, and
    a :class:`Table` is written as the list of its rows, each an object with
    sorted keys."""
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


def write_csv(path: str, table: Table) -> None:
    """A header of the table's column names, in order, then one line per row.
    A column of only floats prints as in ``dump_json``, with non-finite values
    as inf, -inf and nan, and a column of only ints as ints; ``csv.writer``
    prints the cells of any other column as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(zip(*(column.csv for column in table.columns.values())))
    atomic_write_text(path, buf.getvalue())


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
