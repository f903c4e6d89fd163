"""The ingest decoder equals the per-element ``int()`` conversion.

:func:`repro.streams.decode_snapshot` converts an integer ``values``
array in one numpy pass and falls back to ``int()`` per element for
anything else.  For every JSON array it must return the same int64
array as the reference conversion, or raise the same exception class.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.streams import decode_snapshot

I64 = 2**63 - 1


def reference(raw):
    return np.asarray([int(v) for v in raw], dtype=np.int64)


def outcome(fn, raw):
    try:
        return fn(raw)
    except Exception as error:  # noqa: BLE001 - the class is the result
        return type(error)


def assert_matches_reference(raw):
    # Round-trip through the wire so elements are what json.loads
    # hands the serve loops (NaN/Infinity included).
    raw = json.loads(json.dumps(raw))
    want = outcome(reference, raw)
    got = outcome(lambda r: decode_snapshot({"values": r}), raw)
    if isinstance(want, type):
        assert got is want, (raw, got)
    else:
        assert isinstance(got, np.ndarray), (raw, got)
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "raw",
    [
        [0, 1, 2, 3],
        [0],
        [I64, -I64, 0],
        [-(2**63)],
        [2**63],
        [2**63, -1],
        [2**64],
        [-(2**63) - 1],
        [True, 5, False],
        [True, False],
        [1, True],
        [1.9, 2],
        [-0.5],
        [1e30],
        [float("inf"), 1],
        [float("-inf")],
        [float("nan")],
        ["7", "12"],
        [1, "2"],
        ["x"],
        [None],
        [1, None],
        [[1, 2], [3, 4]],
        [[1], [1, 2]],
        [1, [2]],
        [{"a": 1}],
        [],
    ],
)
def test_decoder_matches_int_conversion(raw):
    assert_matches_reference(raw)


json_scalars = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.from_regex(r"-?[0-9]{1,4}", fullmatch=True),
    st.text(max_size=3),
    st.none(),
)
json_elements = st.one_of(
    json_scalars,
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(json_elements, max_size=12))
def test_decoder_matches_int_conversion_on_any_array(raw):
    assert_matches_reference(raw)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40
    )
)
def test_int64_arrays_decode_exactly(raw):
    values = decode_snapshot({"values": raw})
    assert values.dtype == np.int64 and values.shape == (len(raw),)
    np.testing.assert_array_equal(values, raw)


@pytest.mark.parametrize(
    "raw", ["0123", "", 7, 1.5, None, True, {"0": 1, "1": 2}]
)
def test_values_that_are_not_an_array_are_rejected(raw):
    with pytest.raises(InvalidParameterError, match="JSON array"):
        decode_snapshot({"op": "ingest", "values": raw})


def test_missing_values_is_a_key_error():
    with pytest.raises(KeyError):
        decode_snapshot({"op": "ingest"})


@pytest.mark.parametrize(
    "tag, dtype", [("u1", np.uint8), ("u2", np.uint16), ("u4", np.uint32)]
)
def test_b64_decodes_to_the_same_snapshot(tag, dtype):
    snapshot = np.array([0, 5, 2, 31, 7], dtype=dtype)
    request = {
        "b64": base64.b64encode(snapshot.tobytes()).decode("ascii"),
        "dtype": tag,
    }
    values = decode_snapshot(request)
    assert values.dtype == np.int64
    np.testing.assert_array_equal(values, snapshot)


def test_b64_dtype_defaults_to_u1():
    values = decode_snapshot({"b64": base64.b64encode(b"\x01\x03").decode()})
    np.testing.assert_array_equal(values, [1, 3])


def test_malformed_b64_raises():
    with pytest.raises(ValueError):
        decode_snapshot({"b64": "!!", "dtype": "u1"})
    with pytest.raises(ValueError):
        # 3 bytes cannot hold whole u2 elements.
        decode_snapshot({"b64": "AAAA", "dtype": "u2"})
    with pytest.raises(InvalidParameterError, match="dtype"):
        decode_snapshot({"b64": "AA==", "dtype": "f8"})
