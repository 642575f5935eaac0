"""The codec of binary columns: encode_table / decode_table and the
base64 helpers the checkpoint shares."""

import base64
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackseg.errors import ConsistencyError
from trackseg.jsonio import (decode_table, encode_table, from_base64,
                             number, to_base64)

KINDS = dict(k=int, v=float)
# finite float64 values whose bytes are easy to get wrong
EXTREME_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]
EXTREME_INTS = [-2**63, 2**63 - 1, -1, 0, 1]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(EXTREME_FLOATS)),
       st.data())
@settings(max_examples=200, deadline=None)
def test_round_trip_keeps_the_bytes(floats, data):
    ints = data.draw(st.lists(st.integers(-2**63, 2**63 - 1)
                              | st.sampled_from(EXTREME_INTS),
                              min_size=len(floats), max_size=len(floats)))
    k, v = decode_table(encode_table(KINDS, [ints, floats]), KINDS)
    assert k.tobytes() == np.array(ints, np.int64).tobytes()
    assert v.tobytes() == np.array(floats, np.float64).tobytes()
    assert k.dtype == np.int64 and v.dtype == np.float64


def test_stored_table_is_base64_of_little_endian_bytes():
    table = encode_table(KINDS, [[1, -2], [0.5, -0.0]])
    assert table == {
        "k": ["<i8", base64.b64encode(np.array([1, -2], "<i8").tobytes())
              .decode()],
        "v": ["<f8", base64.b64encode(np.array([0.5, -0.0], "<f8")
                                      .tobytes()).decode()]}


def test_table_without_rows_round_trips():
    table = encode_table(KINDS, zip(*[]))
    assert table == {"k": ["<i8", ""], "v": ["<f8", ""]}
    k, v = decode_table(table, KINDS)
    assert k.shape == v.shape == (0,)
    assert (k.dtype, v.dtype) == (np.int64, np.float64)


def test_decoded_columns_are_read_only():
    for column in decode_table(encode_table(KINDS, [[1], [2.0]]), KINDS):
        assert not column.flags.writeable


def _damaged(name, change):
    """KINDS' table of three rows with change(pair) stored at `name`."""
    table = encode_table(KINDS, [[1, 2, 3], [0.5, 1.5, 2.5]])
    table[name] = change(table[name])
    return table


def _values(dtype, values):
    return base64.b64encode(np.array(values, dtype).tobytes()).decode()


@pytest.mark.parametrize("name, change, message", [
    ("v", lambda p: [p[0], "*" + p[1][1:]], "column 'v' is not base64"),
    ("v", lambda p: [p[0], p[1][:4] + " " + p[1][4:]],
     "column 'v' is not base64"),
    ("k", lambda p: [p[0], p[1][:4] + "\n" + p[1][4:]],
     "column 'k' is not base64"),
    ("k", lambda p: [p[0], p[1] + "\t"], "column 'k' is not base64"),
    ("v", lambda p: [p[0], "é" + p[1][1:]], "column 'v' is not base64"),
    ("v", lambda p: [p[0], p[1][:-3]], "column 'v' is not base64"),
    ("k", lambda p: [p[0], _values("<i4", [1, 2, 3])],
     "column 'k' has 12 bytes, not a multiple of element size 8"),
    ("k", lambda p: ["<f8", p[1]], "column 'k' has dtype '<f8', expected "
                                   "'<i8'"),
    ("v", lambda p: [">f8", p[1]], "column 'v' has dtype '>f8', expected "
                                   "'<f8'"),
    ("v", lambda p: [p[0], _values("<f8", [0.5, 1.5])],
     "column 'v' has 2 values, column 'k' 3"),
    ("v", lambda p: [p[0], _values("<f8", [0.5, math.nan, 1.0])],
     "column 'v' has a non-finite value at row 1"),
    ("v", lambda p: [p[0], _values("<f8", [0.5, 1.0, -math.inf])],
     "column 'v' has a non-finite value at row 2"),
    ("v", lambda p: p[1], "column 'v' is not a [dtype, base64] pair"),
    ("v", lambda p: p[:1], "column 'v' is not a [dtype, base64] pair"),
    ("v", lambda p: [*p, "<f8"], "column 'v' is not a [dtype, base64] pair"),
    ("k", lambda p: [p[0], 5], "column 'k' is not a [dtype, base64] pair"),
    ("k", lambda p: None, "column 'k' is not a [dtype, base64] pair"),
    ("k", lambda p: [1, 2], "column 'k' is not a [dtype, base64] pair")],
    ids=["bad-character", "space", "newline", "trailing-tab", "non-ascii",
         "truncated", "partial-value", "int-tagged-float",
         "big-endian-tag", "unequal-lengths", "nan", "inf", "bare-string",
         "tag-alone", "three-parts", "payload-not-text", "null",
         "two-numbers"])
def test_damaged_column_is_named(name, change, message):
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        decode_table(_damaged(name, change), KINDS)


def test_missing_column_is_a_key_error_and_a_list_no_table():
    table = encode_table(KINDS, [[1], [2.0]])
    del table["v"]
    with pytest.raises(KeyError, match="'v'"):
        decode_table(table, KINDS)
    with pytest.raises(ConsistencyError,
                       match="expected a table of columns 'k', 'v', found "
                             "list"):
        decode_table([[1], [2.0]], KINDS)


@pytest.mark.parametrize("text", [None, 1.5, ["AAAAAAAAAAA="]])
def test_from_base64_takes_only_a_string(text):
    with pytest.raises(ConsistencyError,
                       match="params is not a base64 string"):
        from_base64(text, "<f8", "params")


def test_to_base64_is_from_base64_inverse_on_floats():
    values = np.array(EXTREME_FLOATS)
    assert from_base64(to_base64(values, "<f8"), "<f8", "x").tobytes() == \
        values.tobytes()


def test_number_rejects_an_int_past_the_float_range():
    assert number(10**308) == 1e308
    assert number(10**400, int) == 10**400
    with pytest.raises(ConsistencyError, match="float out of range"):
        number(10**400)
