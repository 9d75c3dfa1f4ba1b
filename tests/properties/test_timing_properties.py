"""Property-based tests of the bank timing state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.config import DRAMConfig
from repro.dram.timing import BankTimingState

CONFIG = DRAMConfig(
    channels=1, banks_per_rank=4, rows_per_bank=256, row_size_bytes=1024
)

access_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # row
        st.floats(min_value=0.0, max_value=50.0),  # arrival jitter
    ),
    min_size=1,
    max_size=150,
)


def _replay(accesses):
    bank = BankTimingState(config=CONFIG)
    events = []
    bank.observer = lambda kind, row, t: events.append((kind, row, t))
    now = 0.0
    outcomes = []
    for row, jitter in accesses:
        now += jitter
        outcomes.append(bank.access(row, now))
    return CONFIG, outcomes, events


@given(accesses=access_lists)
@settings(max_examples=120, deadline=None)
def test_data_times_monotone(accesses):
    """A bank returns data in service order — never travels back in
    time, whatever the arrival pattern."""
    _, outcomes, _ = _replay(accesses)
    for earlier, later in zip(outcomes, outcomes[1:]):
        assert later.data_ns >= earlier.data_ns - 1e-9


@given(accesses=access_lists)
@settings(max_examples=120, deadline=None)
def test_act_spacing_respects_trc(accesses):
    """ACT-to-ACT spacing >= tRC for every pair, under any traffic."""
    config, _, events = _replay(accesses)
    act_times = [t for kind, _, t in events if kind == "ACT"]
    for earlier, later in zip(act_times, act_times[1:]):
        assert later - earlier >= config.t_rc - 1e-9


@given(accesses=access_lists)
@settings(max_examples=120, deadline=None)
def test_hits_only_on_open_row(accesses):
    """A row-buffer hit is only reported when the previous access left
    exactly that row open."""
    _, outcomes, _ = _replay(accesses)
    open_row = -1
    for (row, _), outcome in zip(accesses, outcomes):
        if outcome.row_buffer_hit:
            assert row == open_row
        open_row = row


@given(accesses=access_lists)
@settings(max_examples=80, deadline=None)
def test_service_never_precedes_arrival(accesses):
    _, outcomes, _ = _replay(accesses)
    now = 0.0
    for (row, jitter), outcome in zip(accesses, outcomes):
        now += jitter
        assert outcome.start_ns >= now - 1e-9
        assert outcome.data_ns > outcome.start_ns
