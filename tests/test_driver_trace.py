"""Unit and property tests for trace records and buffers."""

import numpy as np
from hypothesis import given, strategies as st

from repro.driver import TRACE_DTYPE, TraceBuffer, TraceRecord


def test_dtype_fields_match_paper_schema():
    names = set(TRACE_DTYPE.names)
    # timestamp, sector, rw flag, pending count are the paper's fields
    assert {"time", "sector", "write", "pending"} <= names


def test_append_and_len():
    buf = TraceBuffer(initial_capacity=2)
    for i in range(5):  # forces growth past initial capacity
        buf.append(TraceRecord(time=float(i), sector=i * 10, write=bool(i % 2),
                               pending=i, size_kb=1.0))
    assert len(buf) == 5
    arr = buf.to_array()
    assert arr.dtype == TRACE_DTYPE
    assert list(arr["sector"]) == [0, 10, 20, 30, 40]
    assert list(arr["write"]) == [0, 1, 0, 1, 0]


def test_to_array_is_a_copy():
    buf = TraceBuffer()
    buf.append(TraceRecord(1.0, 2, True, 3, 1.0))
    arr = buf.to_array()
    arr["sector"][0] = 999
    assert buf.to_array()["sector"][0] == 2


def test_iteration_roundtrips_records():
    buf = TraceBuffer()
    rec = TraceRecord(time=1.5, sector=42, write=True, pending=3,
                      size_kb=4.0, node=7)
    buf.append(rec)
    out = list(buf)[0]
    assert out == rec


def test_clear_resets():
    buf = TraceBuffer()
    buf.append(TraceRecord(1.0, 2, False, 0, 1.0))
    buf.clear()
    assert len(buf) == 0
    assert buf.to_array().shape == (0,)


def test_clear_gives_back_grown_storage():
    buf = TraceBuffer(initial_capacity=4)
    buf.extend(TraceRecord(float(i), i, False, 0, 1.0) for i in range(9))
    assert buf.capacity == 16
    buf.clear()
    assert buf.capacity == 4


def test_extend():
    buf = TraceBuffer()
    buf.extend(TraceRecord(float(i), i, False, 0, 1.0) for i in range(3))
    assert len(buf) == 3


def test_append_array_bulk():
    arr = np.zeros(5, dtype=TRACE_DTYPE)
    arr["time"] = np.arange(5.0)
    arr["sector"] = np.arange(5) * 100
    buf = TraceBuffer(initial_capacity=2)  # forces growth
    buf.append_array(arr)
    buf.append_array(arr)
    out = buf.to_array()
    assert len(out) == 10
    assert np.array_equal(out[:5], arr)
    assert np.array_equal(out[5:], arr)


def test_append_array_empty_and_wrong_dtype():
    buf = TraceBuffer()
    buf.append_array(np.zeros(0, dtype=TRACE_DTYPE))
    assert len(buf) == 0
    import pytest
    with pytest.raises(TypeError):
        buf.append_array(np.zeros(3, dtype=np.float64))


def test_extend_accepts_arrays_and_mixes_with_append():
    arr = np.zeros(3, dtype=TRACE_DTYPE)
    arr["sector"] = [7, 8, 9]
    buf = TraceBuffer()
    buf.append(TraceRecord(0.0, 1, False, 0, 1.0))
    buf.extend(arr)
    buf.extend([TraceRecord(1.0, 10, True, 0, 1.0), (2.0, 11, 0, 0, 1.0, 0)])
    assert list(buf.to_array()["sector"]) == [1, 7, 8, 9, 10, 11]


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=2**40),
    st.booleans(),
    st.integers(min_value=0, max_value=60000),
), max_size=50))
def test_buffer_preserves_order_and_values(entries):
    buf = TraceBuffer(initial_capacity=1)
    for t, sector, write, pending in entries:
        buf.append(TraceRecord(t, sector, write, pending, 1.0))
    arr = buf.to_array()
    assert len(arr) == len(entries)
    for row, (t, sector, write, pending) in zip(arr, entries):
        assert row["sector"] == sector
        assert bool(row["write"]) == write
        assert row["pending"] == pending
