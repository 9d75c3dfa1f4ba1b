"""The snapshot codec: every sentinel round-trips bit-exactly."""

from __future__ import annotations

import json
import math
from collections import Counter, deque

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel
from repro.dram.refresh import RefreshScheduler
from repro.mem.cpu import Core
from repro.state.checkpoint import CheckpointStore, SimCheckpoint
from repro.state.serial import decode_state, encode_state
from repro.track.array_state import ArrayMisraGries
from repro.workloads.suites import get_workload
from repro.workloads.synthetic import SyntheticTraceGenerator


def _roundtrip(value):
    # Through actual JSON text, exactly like a persisted checkpoint.
    encoded = json.loads(json.dumps(encode_state(value), allow_nan=False))
    return decode_state(encoded)


def test_scalars_and_none_pass_through():
    for value in (None, True, False, 0, -7, 123456789, "row", 1.5, -0.0):
        assert _roundtrip(value) == value


def test_tuples_survive_as_tuples_nested():
    value = (1, (2.5, "x"), [3, (4,)], ())
    out = _roundtrip(value)
    assert out == value
    assert isinstance(out, tuple)
    assert isinstance(out[1], tuple)
    assert isinstance(out[2], list)
    assert isinstance(out[2][1], tuple)


def test_dict_keys_and_insertion_order_survive():
    value = {3: "a", (1, 2): "b", "s": {10: 1}}
    out = _roundtrip(value)
    assert out == value
    assert list(out) == [3, (1, 2), "s"]  # insertion order, real key types
    assert isinstance(list(out)[1], tuple)


def test_nonfinite_floats_use_sentinels():
    out = _roundtrip({"a": math.inf, "b": -math.inf, "c": math.nan})
    assert out["a"] == math.inf
    assert out["b"] == -math.inf
    assert math.isnan(out["c"])


def test_float_precision_is_exact():
    values = [0.1, 1.0 / 3.0, 6.02e23, 5e-324, 1.7976931348623157e308]
    assert _roundtrip(values) == values


def test_ndarray_roundtrip_is_byte_exact():
    arrays = [
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.array([0.1, math.pi, 1e-300], dtype=np.float64),
        np.array([], dtype=np.uint32),
        np.array([[True, False], [False, True]]),
    ]
    for array in arrays:
        out = _roundtrip(array)
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()


def test_noncontiguous_array_is_canonicalized():
    array = np.arange(20, dtype=np.int32)[::2]
    out = _roundtrip(array)
    assert np.array_equal(out, array)


def test_numpy_scalars_decay_to_python():
    out = _roundtrip((np.int64(7), np.bool_(True), np.float64(2.5)))
    assert out == (7, True, 2.5)
    assert type(out[0]) is int
    assert type(out[1]) is bool


@pytest.mark.parametrize(
    "value", [set([1]), frozenset([1]), deque([1]), Counter({"a": 1}), object()]
)
def test_unordered_and_opaque_types_are_rejected(value):
    with pytest.raises(TypeError, match="pure data"):
        encode_state(value)


def test_unknown_sentinel_is_rejected():
    with pytest.raises(ValueError, match="unknown state sentinel"):
        decode_state({"__mystery__": 1})


# ----------------------------------------------------------------------
# int -> int dicts: the flat fast path
# ----------------------------------------------------------------------
def test_int_dict_fast_path_keeps_order_and_negative_keys():
    value = {5: 1, -3: 7, 2**63 - 1: -(2**63), 0: 0, 1: 2}
    encoded = encode_state(value)
    assert list(encoded) == ["__di__"]
    out = _roundtrip(value)
    assert out == value
    assert list(out.items()) == list(value.items())  # insertion order
    assert all(type(x) is int for item in out.items() for x in item)


def test_empty_dict_roundtrips():
    assert _roundtrip({}) == {}
    assert _roundtrip(({},)) == ({},)


@pytest.mark.parametrize(
    "value",
    [
        {1: True},
        {True: 1},
        {1: 2**63},
        {-(2**63) - 1: 1},
        {1: 2, "a": 3},
        {1: 2, 3: 4.0},
        {1: (2,)},
    ],
)
def test_int_dict_fast_path_falls_back(value):
    assert list(encode_state(value)) == ["__d__"]
    out = _roundtrip(value)
    assert out == value
    assert [type(x) for item in out.items() for x in item] == [
        type(x) for item in value.items() for x in item
    ]


def test_numpy_int_dict_is_not_packed():
    assert list(encode_state({1: np.int64(2)})) == ["__d__"]


# ----------------------------------------------------------------------
# lists of int tuples (RIT entries): the packed fast path
# ----------------------------------------------------------------------
def test_int_tuple_list_fast_path_keeps_order_and_extremes():
    value = [(5, 1, 0), (-3, 7, 2), (2**63 - 1, -(2**63), 1), (0, 0, 0)]
    encoded = encode_state(value)
    assert sorted(encoded) == ["__ti__", "b64"]
    assert encoded["__ti__"] == 3
    out = _roundtrip(value)
    assert out == value
    assert all(type(item) is tuple for item in out)
    assert all(type(x) is int for item in out for x in item)


def test_int_tuple_list_inside_a_payload_roundtrips():
    value = ({"rit": [(1, 2, 3)], "forward": {1: 2}}, [(4,), (5,)])
    assert _roundtrip(value) == value


@pytest.mark.parametrize(
    "value",
    [
        [],
        [()],
        [(), ()],
        [(1, True)],
        [(True, 1), (2, 3)],
        [(1, 2**63)],
        [(-(2**63) - 1, 1)],
        [(1, 2), (3, 4, 5)],
        [(1, 2), (3,)],
        [(1, 2.0)],
        [(1, "a")],
        [(1, (2,))],
        [(1, 2), [3, 4]],
        [(1, np.int64(2))],
    ],
)
def test_int_tuple_list_fast_path_falls_back(value):
    encoded = encode_state(value)
    assert isinstance(encoded, list)
    out = _roundtrip(value)
    assert out == value
    assert [type(item) for item in out] == [type(item) for item in value]
    assert [
        type(x) for item in out for x in item
    ] == [type(x.item()) if isinstance(x, np.generic) else type(x)
          for item in value for x in item]


# ----------------------------------------------------------------------
# Core block columns and schema versions
# ----------------------------------------------------------------------
def _core(records=5000):
    dram = DRAMConfig().scaled(64)
    generator = SyntheticTraceGenerator(
        get_workload("lbm"), core_id=0, cores=1, config=dram, seed=3
    )
    mapper = AddressMapper(dram)
    return Core(0, generator.chunks(records), mapper=mapper)


def test_core_block_columns_roundtrip():
    core = _core()
    for _ in range(4100):  # into the second block
        core.complete(core.issue())
    state = core.snapshot_state()
    columns = state[9]
    assert [column.dtype for column in columns] == [
        np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.bool_)
    ]
    restored = _core()
    restored.restore_state(_roundtrip(state))
    assert json.dumps(encode_state(restored.snapshot_state())) == json.dumps(
        encode_state(state)
    )
    # The decoded views are re-derived from the raw columns.
    for name in ("_gaps", "_addrs", "_writes", "_chans", "_ranks",
                 "_banks", "_rows", "_cols", "_len", "_idx"):
        assert getattr(restored, name) == getattr(core, name), name
    while not core.done:
        a, b = core.issue(), restored.issue()
        assert (a.address, a.is_write, a.arrival_ns) == (
            b.address, b.is_write, b.arrival_ns
        )
        assert a.decoded.bank_key == b.decoded.bank_key
        core.complete(a)
        restored.complete(b)
    assert restored.done


@pytest.mark.parametrize("version", [1, 2, 4, 5])
def test_old_schema_checkpoint_in_store_is_a_miss(tmp_path, version):
    """A cut written under an older schema (2 still carried per-row
    activation counts in every bank tuple; 4 spelled every RIT entry
    as its own tuple; 5 carried refresh-postponement counters and a
    tracker "heap built" flag) is skipped, so the run starts fresh
    instead of misreading it."""
    store = CheckpointStore(root=tmp_path)
    fp = "ab" * 32
    old = SimCheckpoint(
        fingerprint=fp, serviced=10, payload=(1,), schema_version=version
    )
    store.put(old)
    assert store.cuts(fp) == [10]
    assert store.get(fp, 10) is None
    assert store.latest(fp) is None


# ----------------------------------------------------------------------
# Tracker and refresh tuples (schema 6)
# ----------------------------------------------------------------------
def test_tracker_triple_roundtrips_and_evicts_as_uninterrupted():
    """``ArrayMisraGries`` snapshots as ``(spill, rows, counts)``; after
    a JSON round trip, a tracker restored in the eviction regime picks
    the same victims as the uninterrupted one."""
    tracker = ArrayMisraGries(entries=4)
    for row in (1, 2, 3, 4, 5, 1, 1, 6, 2, 7):
        tracker.observe(row)
    state = tracker.snapshot_state()
    assert [type(part) for part in state] == [int, list, list]
    restored = ArrayMisraGries(entries=4)
    restored.restore_state(_roundtrip(state))
    assert restored.snapshot_state() == state
    for row in (8, 9, 8, 10, 3, 11, 12, 1):
        assert restored.observe(row) == tracker.observe(row)
        assert restored.tracked_rows() == tracker.tracked_rows()
    assert restored.snapshot_state() == tracker.snapshot_state()


def test_refresh_state_roundtrips():
    dram = DRAMConfig().scaled(64)
    scheduler = RefreshScheduler(dram, [Channel(dram)])
    scheduler.advance_to(3.5 * dram.t_refi)
    state = scheduler.snapshot_state()
    assert state == (
        4.0 * dram.t_refi,
        float(dram.refresh_window_ns),
        4.0 * dram.t_refi,
        3,
        0,
    )
    restored = RefreshScheduler(dram, [Channel(dram)])
    restored.restore_state(_roundtrip(state))
    assert restored.snapshot_state() == state
