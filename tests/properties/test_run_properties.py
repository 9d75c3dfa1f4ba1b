"""Run-length kernels equal their scalar oracles, bit for bit.

* ``ArrayMisraGries.observe_run(row, k)`` against ``k`` ``observe``
  calls, through the spill and eviction regime of a full table;
* the per-row run credit (``tracker_run_credit``, DESIGN.md §9.7): on
  the tracker and through RRS (array and CAT tracker) and Graphene,
  ``run_credit`` further activations of a row are all noops, and for a
  tracked row the one after them acts;
* ``DisturbanceModel.on_activate_run(row, k)`` against single
  ``on_activate`` calls up to and including the first one that records
  a flip, and ``activations_to_flip`` against where that flip lands;
* ``BankTimingState.activate_run`` against ``activate_only`` calls on a
  clock advanced one add at a time, for runs up to the harness's
  ``RUN_CHUNK``, across its vectorized clock-bound prefix and the loop
  that finishes a run from the first ACT the prefix rejects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import RUN_CHUNK
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.dram.faults import DisturbanceModel
from repro.dram.timing import VECTOR_MIN_RUN, BankTimingState
from repro.mitigations.base import tracker_run_credit
from repro.mitigations.graphene import Graphene
from repro.track.array_state import ArrayMisraGries

runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),  # row (small universe)
        st.integers(min_value=1, max_value=40),  # run length
        st.booleans(),  # check the row's run credit afterwards
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
            credit = tracker_run_credit(kernel, row, threshold)
            probe = ArrayMisraGries(entries=entries)
            probe.restore_state(kernel.snapshot_state())
            for _ in range(credit):
                estimate = probe.observe(row)
                assert estimate == 0 or estimate % threshold != 0
            if row in kernel:
                assert probe.observe(row) % threshold == 0


RUN_ROWS = 1024
RUN_BANK = (0, 0, 0)


def _run_mitigation(kind: str, entries: int, threshold: int):
    if kind == "graphene":
        return Graphene(
            t_rh=4 * threshold,
            mitigation_threshold=threshold,
            window_activations=entries * threshold,
            rows_per_bank=RUN_ROWS,
        )
    config = RRSConfig(
        t_rh=4 * threshold,
        t_rrs=threshold,
        window_activations=entries * threshold,
        rows_per_bank=RUN_ROWS,
        tracker_entries=entries,
        rit_capacity_tuples=400,
        tracker_backend="cat" if kind == "rrs-cat" else "reference",
    )
    return RandomizedRowSwap(
        config, DRAMConfig(channels=1, banks_per_rank=1, rows_per_bank=RUN_ROWS)
    )


def _tracked(mitigation, row: int, physical_row: int) -> bool:
    if isinstance(mitigation, Graphene):
        return physical_row in mitigation._trackers[RUN_BANK]
    return row in mitigation.bank_state(RUN_BANK).tracker


@given(
    kind=st.sampled_from(["rrs", "rrs-cat", "graphene"]),
    entries=st.sampled_from([1, 3, 8]),
    threshold=st.sampled_from([2, 5, 16]),
    prefix=st.lists(st.integers(min_value=0, max_value=11), max_size=120),
    row=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=150, deadline=None)
def test_run_credit_activations_are_noops(kind, entries, threshold, prefix, row):
    """After any observe prefix, the next ``run_credit(row)`` activations
    of ``row`` through ``on_activation`` are noops; for a tracked row
    the activation after them acts. A bank with no state has credit 0."""
    mitigation = _run_mitigation(kind, entries, threshold)
    route = mitigation.route
    assert mitigation.run_credit(RUN_BANK, row, route(RUN_BANK, row), 0.0) == 0
    for prior in prefix:
        mitigation.on_activation(RUN_BANK, prior, route(RUN_BANK, prior), 0.0)
    physical_row = route(RUN_BANK, row)
    credit = mitigation.run_credit(RUN_BANK, row, physical_row, 0.0)
    if not prefix:
        assert credit == 0
        return
    assert 0 <= credit < threshold
    tracked = _tracked(mitigation, row, physical_row)
    for _ in range(credit):
        outcome = mitigation.on_activation(RUN_BANK, row, physical_row, 0.0)
        assert outcome.is_noop
        assert route(RUN_BANK, row) == physical_row
    if tracked:
        assert not mitigation.on_activation(RUN_BANK, row, physical_row, 0.0).is_noop


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


class _SpiedTiming(BankTimingState):
    """Records ``(count, done)`` for each vectorized prefix it takes."""

    def _clock_bound_prefix(self, row, now_ns, step_ns, count):
        done, clock = super()._clock_bound_prefix(row, now_ns, step_ns, count)
        self.seen.append((count, done))
        return done, clock


def _activate_run_matches(config, state, start, step, count, seen):
    kernel = _SpiedTiming(config=config)
    kernel.seen = seen
    oracle = BankTimingState(config=config)
    if state is not None:
        for timing in (kernel, oracle):
            timing.restore_state(state)
    clock = kernel.activate_run(9, start, step, count)
    want = start
    for _ in range(count):
        want += step
        oracle.activate_only(9, want)
    assert clock == want
    assert kernel.snapshot_state() == oracle.snapshot_state()
    assert all(type(value) in (int, float) for value in kernel.snapshot_state())


@given(
    start=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    # Below tRC = 45, tRC binds from the second ACT (30 also trips tRAS
    # at t_ras=20, 40 only tRC); fractional steps round the clock on
    # every add.
    step=st.sampled_from([45.0, 45.25, 1.0 / 3.0 + 45, 30.0, 40.0, 45.0 + 2.0**-30]),
    count=st.integers(min_value=1, max_value=RUN_CHUNK),
    opened=st.booleans(),
    # Far ahead: the bank, not the clock, sets the first ACTs.
    ready_offset=st.one_of(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=1e3, max_value=5e4),
    ),
    t_ras=st.sampled_from([0, 20]),  # 0: tRC - tRP; 20 leaves tRC binding
)
@settings(max_examples=200, deadline=None)
def test_activate_run_equals_repeated_activate_only(
    start, step, count, opened, ready_offset, t_ras
):
    state = (7, start - 40.0, start + ready_offset) if opened else None
    _activate_run_matches(DRAMConfig(t_ras=t_ras), state, start, step, count, [])


def test_activate_run_takes_prefix_and_loop_tail():
    """The examples that show each side of ``activate_run`` runs: a
    whole run vectorized, a vectorized first ACT with the loop finishing
    the run, and a run the loop takes from its first ACT."""
    cases = [
        # clock-bound throughout (tRAS and tRC met with equality)
        (DRAMConfig(), (7, 1_000.0, 1_010.0), 1_045.5, 45.0, RUN_CHUNK, RUN_CHUNK),
        # tRC (and tRAS) bind from the second ACT on
        (DRAMConfig(t_ras=20), (7, 0.0, 10.0), 1_000.0, 30.0, 500, 1),
        # tRC alone binds from the second ACT on
        (DRAMConfig(t_ras=20), (7, 0.0, 10.0), 1_000.0, 40.0, 500, 1),
        # ready far ahead: the bank sets the first ACT
        (DRAMConfig(), (7, 1_000.0, 9e4), 1_045.0, 45.25, 700, 0),
        # fractional steps, clock-bound throughout
        (DRAMConfig(), (7, 1_000.0, 1_010.0), 1e7 + 0.1, 1.0 / 3.0 + 45, 900, 900),
    ]
    for config, state, start, step, count, done in cases:
        seen = []
        _activate_run_matches(config, state, start, step, count, seen)
        assert seen == [(count, done)]
    # Short runs and closed banks stay in the loop.
    seen = []
    short = VECTOR_MIN_RUN - 1
    _activate_run_matches(DRAMConfig(), (7, 0.0, 10.0), 100.0, 45.0, short, seen)
    _activate_run_matches(DRAMConfig(), None, 100.0, 45.0, 300, seen)
    assert seen == []
