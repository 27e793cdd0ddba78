import csv
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainscope.cli import data_instance_path, main
from chainscope.io import Table, dump_json, write_csv

NON_FINITE = {math.inf: "inf", -math.inf: "-inf"}

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308 / 3, math.inf, -math.inf,
                     math.nan]),
)
scalars = st.one_of(floats, floats.map(np.float64),
                    st.floats(width=32, allow_subnormal=True).map(np.float32))
leaves = st.one_of(scalars, st.lists(floats, max_size=4).map(np.array))
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text("abc", min_size=1, max_size=3), inner,
                                            max_size=3)),
    max_leaves=12)


def _expected(x):
    """The value dump_json must encode for a float: its string if non-finite."""
    f = float(x)
    if math.isnan(f):
        return "nan"
    return NON_FINITE.get(f, f)


def _check(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, float)
        assert struct.pack("<d", got) == struct.pack("<d", want)  # keeps -0.0


def _walk(got, x):
    if isinstance(x, dict):
        assert sorted(got) == sorted(x)
        for k in x:
            _walk(got[k], x[k])
    elif isinstance(x, (list, tuple, np.ndarray)):
        assert len(got) == len(x)
        for g, v in zip(got, x):
            _walk(g, v)
    else:
        _check(got, _expected(x))


@settings(max_examples=150, deadline=None)
@given(trees)
def test_json_round_trip_keeps_finite_bits_and_names_non_finite(x):
    _walk(json.loads(dump_json(x)), x)


@settings(max_examples=60, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=6))
def test_csv_writes_the_json_strings(tmp_path_factory, values):
    header = [f"c{i}" for i in range(len(values))]
    path = tmp_path_factory.mktemp("csv") / "row.csv"
    write_csv(str(path), Table({name: [v] for name, v in zip(header, values)}))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # dump_json puts each item of a flat list on a line of its own
    tokens = [line.strip().rstrip(",").strip('"')
              for line in dump_json(list(values)).splitlines()[1:-1]]
    assert rows == [header, tokens]


# ---------------------------------------------------------------------------
# byte identity with the standard library encoder (tests/oracles.py)

special_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3,
                                  1e300, math.inf, -math.inf, math.nan])
texts = st.text(st.characters(codec="utf-8"), max_size=5) | \
    st.sampled_from(["", "%s", "%%", '"', "\\", "\n\t\x00", "é", "日本", "\U0001f600"])
plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 70, 2 ** 70), texts,
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), special_floats)
numpy_scalars = st.one_of(
    floats.map(np.float64), st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.floats(width=16).map(np.float16), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8), st.booleans().map(np.bool_))
any_scalar = plain_scalars | numpy_scalars
keys = st.one_of(texts, st.integers(-3, 3), st.sampled_from([1.5, None, True, False, ("t", 1)]))
arrays = st.one_of(
    floats.map(np.array),  # 0-d: neither writer can iterate it
    st.lists(floats, max_size=5).map(np.array),
    st.integers(0, 3).flatmap(lambda c: st.lists(st.lists(floats, min_size=c, max_size=c),
                                                 max_size=4)).map(np.array),
    st.lists(st.integers(-9, 9), max_size=5).map(lambda v: np.array(v, dtype=np.int64)))

# a column draws all its values from one kind, as a report table does, or
# mixes scalar kinds
COLUMN_KINDS = {
    "float": lambda r: float(r.standard_normal() * 10.0 ** r.integers(-5, 6)),
    "float64": lambda r: np.float64(r.standard_normal()),
    "float32": lambda r: np.float32(r.standard_normal()),
    "int": lambda r: int(r.integers(-10 ** 6, 10 ** 6)),
    "int64": lambda r: r.integers(0, 100),
    "bool": lambda r: bool(r.integers(2)),
    "none": lambda r: None,
    "str": lambda r: "ab,\"cé"[:int(r.integers(6))],
    "mixed": lambda r: [1, 2.5, None, True, np.float64(-0.0), np.int64(7), "x",
                        np.bool_(False)][int(r.integers(8))],
}
SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324]


def _table(kinds, length, seed, specials, ragged):
    """``length`` rows of flat dicts, one column per entry of ``kinds``;
    ``specials`` puts non-finite, signed zero and subnormal floats in float
    columns, ``ragged`` drops a key from the first or a random row, or adds
    one to a random row."""
    r = np.random.default_rng(seed)
    rows = [{f"k{i}_{kind}": COLUMN_KINDS[kind](r) for i, kind in enumerate(kinds)}
            for _ in range(length)]
    columns = list(zip(rows[0], kinds))
    for _ in range(specials):
        key, kind = columns[int(r.integers(len(columns)))]
        if kind.startswith("float"):
            rows[int(r.integers(length))][key] = SPECIAL[int(r.integers(len(SPECIAL)))]
    row = rows[0 if ragged == "first" else int(r.integers(length))]
    if ragged == "extra":
        row["extra"] = 1.0
    elif ragged and len(row) > 1:
        del row[next(iter(row))]
    return rows


tables = st.builds(_table, st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1,
                                    max_size=4),
                   st.integers(1, 600), st.integers(0, 2 ** 32), st.integers(0, 3),
                   st.sampled_from([None, "first", "any", "extra"]))
byte_trees = st.recursive(
    any_scalar | arrays | tables,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.lists(st.lists(any_scalar, max_size=3), max_size=4),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=10)


def _encoded(dump, x):
    """``dump(x)``, or the type of the exception it raises."""
    try:
        return dump(x)
    except TypeError as exc:  # a 0-d array: tolist() gives a scalar to iterate
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(byte_trees)
def test_dump_json_bytes_match_the_standard_encoder(x):
    assert _encoded(dump_json, x) == _encoded(oracles.dump_json_reference, x)


@settings(max_examples=150, deadline=None)
@given(st.lists(texts | st.integers(0, 9).map(str), min_size=1, max_size=4, unique=True),
       st.integers(0, 300), st.integers(0, 2 ** 32), st.integers(0, 3), st.data())
def test_write_csv_bytes_match_dict_writer(tmp_path_factory, header, length, seed, specials,
                                           data):
    # a table names each column once, so the header has no repeated name
    kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=len(header),
                               max_size=len(header)))
    rows = [dict(zip(header, row.values()))
            for row in (_table(kinds, length, seed, specials, None) if length else [])]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(str(path), Table.from_rows(header, rows))
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == oracles.csv_reference(header, rows)


table_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                         special_floats)
TABLE_COLUMNS = {  # a column of n values of one kind
    "float": lambda n: st.lists(table_floats, min_size=n, max_size=n),
    "float array": lambda n: st.lists(table_floats, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float)),
    "int": lambda n: st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
    "int array": lambda n: st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                                    max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
}


@st.composite
def shared_tables(draw):
    """(table, its columns' values) of two tables: columns of floats (with
    non-finite ones) and of ints, as lists and as arrays, with no rows, one
    row or more.  The second table's first column is a slice of a column of
    the first, and two of its names are given one list."""
    length = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    first = {name: draw(TABLE_COLUMNS[draw(st.sampled_from(sorted(TABLE_COLUMNS)))](length))
             for name in names}
    table = Table(first)
    shared = draw(st.sampled_from(names))
    start = draw(st.integers(0, length))
    ints = list(range(length - start))
    second = {"shared": first[shared][start:], "ints": ints, "same ints": ints}
    return [(table, first),
            (Table({**second, "shared": table[shared][start:]}), second)]


def _row_dicts(columns):
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


@settings(max_examples=150, deadline=None)
@given(shared_tables())
def test_tables_write_the_bytes_of_their_rows(tmp_path_factory, tables):
    rows = [_row_dicts(columns) for _, columns in tables]
    assert dump_json({"a": tables[0][0], "b": [tables[1][0]]}) == \
        oracles.dump_json_reference({"a": rows[0], "b": [rows[1]]})
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    for (table, columns), table_rows in zip(tables, rows):
        assert len(table) == len(table_rows)
        write_csv(str(path), table)
        with open(path, newline="", encoding="utf-8") as fh:
            assert fh.read() == oracles.csv_reference(list(columns), table_rows)


BUNDLED = sorted(os.listdir(os.path.dirname(data_instance_path("two_point.json"))))
BUNDLED_RUNS = {f"{command}-{name[:-5]}": [command, "--instance", data_instance_path(name)]
                + extra
                for name in BUNDLED
                for command, extra in [("analyze", []), ("bounds", ["--samples", "2000"]),
                                       ("partition", ["--samples", "2000"]),
                                       ("duality", ["--samples", "2000", "--restarts", "0"]),
                                       ("modulus", ["--samples", "2000"])]}
BUNDLED_RUNS["ellipsoid"] = ["ellipsoid", "--axes", "1,0.5,0.25", "--samples", "2000"]


@pytest.mark.parametrize("argv", BUNDLED_RUNS.values(), ids=BUNDLED_RUNS.keys())
def test_cli_json_outputs_are_in_the_byte_format(tmp_path, argv):
    # every report, side JSON and manifest is what the standard encoder
    # writes for the values it holds
    assert main(argv + ["--out", str(tmp_path)]) == 0
    names = sorted(n for n in os.listdir(tmp_path) if n.endswith(".json"))
    assert f"{argv[0]}_report.json" in names
    for name in names:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert oracles.dump_json_reference(json.loads(text)) == text, name
