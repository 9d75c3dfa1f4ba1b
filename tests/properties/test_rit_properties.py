"""Property-based tests of the Row Indirection Table.

The RIT must remain a *permutation* of row addresses under any
interleaving of swaps, re-swaps, window rollovers, and lazy evictions —
otherwise two logical rows could alias one physical row and silently
corrupt data.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rit import RowIndirectionTable
from repro.mem import block_kernel

ROWS = 64


class _Ops:
    """Action vocabulary for the stateful property."""

    swap = st.tuples(
        st.just("swap"),
        st.integers(0, ROWS - 1),
        st.integers(0, ROWS - 1),
    )
    window = st.tuples(st.just("window"), st.just(0), st.just(0))
    drain = st.tuples(st.just("drain"), st.just(0), st.just(0))


op_lists = st.lists(
    st.one_of(_Ops.swap, _Ops.window, _Ops.drain), min_size=1, max_size=120
)


def _apply(rit, ops):
    shadow = {}  # logical -> physical ground truth via direct simulation
    for kind, a, b in ops:
        if kind == "swap":
            if a == b:
                continue
            try:
                rit.swap(a, b)
            except RuntimeError:
                continue  # all entries locked: legal refusal
        elif kind == "window":
            rit.end_window()
        else:
            rit.drain(max_evictions=2)
    return shadow


@given(ops=op_lists)
@settings(max_examples=150, deadline=None)
def test_routing_is_always_a_permutation(ops):
    rit = RowIndirectionTable(capacity_tuples=16)
    _apply(rit, ops)
    routed = [rit.route(row) for row in range(ROWS)]
    assert sorted(routed) == list(range(ROWS))


@given(ops=op_lists)
@settings(max_examples=150, deadline=None)
def test_inverse_is_consistent(ops):
    rit = RowIndirectionTable(capacity_tuples=16)
    _apply(rit, ops)
    for row in range(ROWS):
        assert rit.resident_of(rit.route(row)) == row


@given(ops=op_lists)
@settings(max_examples=150, deadline=None)
def test_capacity_never_exceeded(ops):
    rit = RowIndirectionTable(capacity_tuples=8)
    _apply(rit, ops)
    assert rit.entries_used <= rit.capacity_entries


@given(ops=op_lists)
@settings(max_examples=100, deadline=None)
def test_cat_backed_routes_identically(ops):
    plain = RowIndirectionTable(capacity_tuples=16)
    cat = RowIndirectionTable(capacity_tuples=16, use_cat=True)
    for kind, a, b in ops:
        if kind == "swap":
            if a == b:
                continue
            try:
                plain.swap(a, b)
                cat.swap(a, b)
            except RuntimeError:
                continue
        elif kind == "window":
            plain.end_window()
            cat.end_window()
        else:
            plain.drain(max_evictions=2)
            cat.drain(max_evictions=2)
    for row in range(ROWS):
        assert plain.route(row) == cat.route(row)


@given(ops=op_lists)
@settings(max_examples=100, deadline=None)
def test_locked_rows_untouched_by_drains(ops):
    """Security invariant (Section 5.4): entries installed in the
    current window are immune to eviction — the eviction policy skips
    any stale victim whose cycle-unwind would rewrite a locked entry,
    so locked routings survive drains verbatim."""
    rit = RowIndirectionTable(capacity_tuples=32)
    for kind, a, b in ops:
        if kind == "swap":
            if a == b:
                continue
            try:
                rit.swap(a, b)
            except RuntimeError:
                continue
        elif kind == "window":
            rit.end_window()
        else:
            locked_before = {
                row: entry.physical
                for row, entry in rit._map.items()
                if entry.window == rit.window
            }
            rit.drain(max_evictions=2)
            for row, physical in locked_before.items():
                assert rit.is_swapped(row)
                assert rit.route(row) == physical
                assert rit._map[row].window == rit.window


@given(ops=op_lists, capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=150, deadline=None)
def test_compiled_route_table_follows_swaps_and_evictions(ops, capacity):
    """The compiled loop's C copy of a RIT (``RouteTables``), updated
    after each swap, drain and window end from the physical rows the
    ops moved, routes every row exactly as ``rit.route`` does."""
    lib = block_kernel.load()
    if lib is None:
        pytest.skip("compiled block loop unavailable")
    rit = RowIndirectionTable(capacity_tuples=capacity)
    tables = block_kernel.RouteTables(lib, 1)
    tables.build(0, rit.forward)
    for kind, a, b in ops:
        changes = []
        if kind == "swap":
            if a == b:
                continue
            try:
                changes = rit.swap(a, b)
            except RuntimeError:
                # Evictions may precede the refusal: mirror them whole.
                tables.build(0, rit.forward)
                continue
        elif kind == "window":
            rit.end_window()
        else:
            changes = rit.drain(max_evictions=2)
        tables.update(0, rit.forward, [(op.phys_a, op.phys_b) for op in changes])
        mask = int(tables.mask[0])
        routed = [
            lib.rk_route_get(int(tables.ptr[0]), mask, row) if mask >= 0 else row
            for row in range(ROWS)
        ]
        assert routed == [rit.route(row) for row in range(ROWS)]


def test_compiled_route_table_rebuilds_after_a_large_action():
    """An action moving more rows than ``RouteTables``' pair buffer
    holds (a long drain) re-mirrors the table whole."""
    lib = block_kernel.load()
    if lib is None:
        pytest.skip("compiled block loop unavailable")
    rit = RowIndirectionTable(capacity_tuples=16)
    tables = block_kernel.RouteTables(lib, 1)
    tables.build(0, rit.forward)
    for row in range(0, 32, 2):
        changes = rit.swap(row, row + 1)
        tables.update(0, rit.forward, [(op.phys_a, op.phys_b) for op in changes])
    rit.end_window()
    changes = rit.drain(max_evictions=10)
    assert 2 * len(changes) > block_kernel.RouteTables.MOVED_PAIRS
    assert rit.forward
    tables.update(0, rit.forward, [(op.phys_a, op.phys_b) for op in changes])
    mask = int(tables.mask[0])
    routed = [
        lib.rk_route_get(int(tables.ptr[0]), mask, row) if mask >= 0 else row
        for row in range(ROWS)
    ]
    assert routed == [rit.route(row) for row in range(ROWS)]
