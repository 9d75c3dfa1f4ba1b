"""Run-length kernels equal their scalar oracles, bit for bit.

* ``ArrayMisraGries.observe_run(row, k)`` against ``k`` ``observe``
  calls, through the spill and eviction regime of a full table;
* ``DisturbanceModel.on_activate_run(row, k)`` against single
  ``on_activate`` calls up to and including the first one that records
  a flip, and ``activations_to_flip`` against where that flip lands;
* ``BankTimingState.activate_run`` against ``activate_only`` calls on a
  clock advanced one add at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.config import DRAMConfig
from repro.dram.faults import DisturbanceModel
from repro.dram.timing import BankTimingState
from repro.track.array_state import ArrayMisraGries

runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),  # row (small universe)
        st.integers(min_value=1, max_value=40),  # run length
        st.booleans(),  # ask for the noop horizon afterwards
    ),
    min_size=1,
    max_size=40,
)


@given(
    entries=st.sampled_from([1, 3, 64]),
    threshold=st.sampled_from([5, 16, 25]),
    steps=runs,
)
@settings(max_examples=150, deadline=None)
def test_observe_run_equals_repeated_observe(entries, threshold, steps):
    kernel = ArrayMisraGries(entries=entries)
    oracle = ArrayMisraGries(entries=entries)
    for row, count, query in steps:
        got = kernel.observe_run(row, count)
        want = 0
        for _ in range(count):
            want = oracle.observe(row)
        assert got == want
        assert kernel.snapshot_state() == oracle.snapshot_state()
        for tracked in oracle.tracked_rows() | {row}:
            assert kernel.estimate(tracked) == oracle.estimate(tracked)
        if query:
            assert kernel.noop_horizon(threshold) == oracle.noop_horizon(threshold)
            assert kernel.snapshot_state() == oracle.snapshot_state()


FAULT_ROWS = 12

fault_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("run"),
            st.sampled_from([0, 1, 2, 5, 6, FAULT_ROWS - 2, FAULT_ROWS - 1]),
            st.integers(min_value=1, max_value=120),
        ),
        st.tuples(
            st.just("refresh"),
            st.integers(min_value=0, max_value=FAULT_ROWS - 1),
            st.just(1),
        ),
        st.tuples(st.just("window"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


def _fault_state(model):
    return (
        model._disturbance.tobytes(),
        model._flipped_this_window.tobytes(),
        list(model.flips),
        model.window,
    )


@given(
    coupling=st.sampled_from([0.0, 0.016]),
    t_rh=st.sampled_from([3.0, 7.5, 40.0, 61.0]),
    events=fault_events,
)
@settings(max_examples=200, deadline=None)
def test_on_activate_run_equals_single_activations(coupling, t_rh, events):
    kernel = DisturbanceModel(rows=FAULT_ROWS, t_rh=t_rh, distance2_coupling=coupling)
    oracle = DisturbanceModel(rows=FAULT_ROWS, t_rh=t_rh, distance2_coupling=coupling)
    for kind, row, count in events:
        if kind == "refresh":
            kernel.on_refresh_row(row)
            oracle.on_refresh_row(row)
        elif kind == "window":
            kernel.end_window()
            oracle.end_window()
        else:
            flip_at = kernel.activations_to_flip(row, count)
            applied = kernel.on_activate_run(row, count)
            want = 0
            flips = len(oracle.flips)
            while want < count:
                oracle.on_activate(row)
                want += 1
                if len(oracle.flips) > flips:
                    break
            assert applied == want
            assert flip_at == (applied if len(oracle.flips) > flips else 0)
        assert _fault_state(kernel) == _fault_state(oracle)


@given(
    start=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    step=st.sampled_from([45.0, 45.25, 1.0 / 3.0 + 45]),
    count=st.integers(min_value=1, max_value=60),
    opened=st.booleans(),
    ready_offset=st.floats(min_value=-100.0, max_value=100.0),
    t_ras=st.sampled_from([0, 20]),  # 0: tRC - tRP; 20 leaves tRC binding
)
@settings(max_examples=150, deadline=None)
def test_activate_run_equals_repeated_activate_only(
    start, step, count, opened, ready_offset, t_ras
):
    config = DRAMConfig(t_ras=t_ras)
    kernel = BankTimingState(config=config)
    oracle = BankTimingState(config=config)
    if opened:
        for state in (kernel, oracle):
            state.restore_state((7, start - 40.0, start + ready_offset))
    clock = kernel.activate_run(9, start, step, count)
    want = start
    for _ in range(count):
        want += step
        oracle.activate_only(9, want)
    assert clock == want
    assert kernel.snapshot_state() == oracle.snapshot_state()
