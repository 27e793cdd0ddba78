import csv
import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.io import dump_json, write_csv

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
    write_csv(str(path), header, [dict(zip(header, values))])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # dump_json puts each item of a flat list on a line of its own
    tokens = [line.strip().rstrip(",").strip('"')
              for line in dump_json(list(values)).splitlines()[1:-1]]
    assert rows == [header, tokens]
