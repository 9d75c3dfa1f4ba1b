"""Trace-driven core model: retire pacing and ROB stalls."""

import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.mem.cpu import Core, CoreConfig
from repro.workloads.trace import TraceRecord

MAPPER = AddressMapper(DRAMConfig())


def _records(gaps):
    return [
        TraceRecord(instruction_gap=g, address=i * 64, is_write=False)
        for i, g in enumerate(gaps)
    ]


def test_issue_paces_at_retire_width():
    config = CoreConfig()
    core = Core(0, iter(_records([400])), config, mapper=MAPPER)
    issue = core.next_issue_time()
    assert issue == pytest.approx(400 / 4 * config.cycle_ns)


def test_requests_carry_instruction_indices():
    core = Core(0, iter(_records([10, 10])), mapper=MAPPER)
    first = core.issue()
    core.complete(first)
    second = core.issue()
    assert second.instruction_index == first.instruction_index + 11


def test_rob_stall_waits_for_oldest_load():
    # Gaps of 10 instructions: with ROB=32, the core can only run ~3
    # records ahead of an incomplete load.
    config = CoreConfig(rob_size=32)
    core = Core(0, iter(_records([10] * 8)), config, mapper=MAPPER)
    first = core.issue()
    first.completion_ns = 10_000.0  # very slow load
    core.complete(first)
    issue_times = []
    while not core.done:
        request = core.issue()
        request.completion_ns = request.arrival_ns + 50.0
        core.complete(request)
        issue_times.append(request.arrival_ns)
    # Some later record must have waited for the slow load.
    assert max(issue_times) >= 10_000.0


def test_no_stall_when_rob_covers_distance():
    config = CoreConfig(rob_size=10_000)
    core = Core(0, iter(_records([10] * 8)), config, mapper=MAPPER)
    last_arrival = 0.0
    while not core.done:
        request = core.issue()
        request.completion_ns = request.arrival_ns + 1_000.0
        core.complete(request)
        last_arrival = request.arrival_ns
    # All 8 records issue within their natural pacing: 8*10/4 cycles.
    assert last_arrival < 9 * 10 / 4 * config.cycle_ns


def test_writes_do_not_block_retirement():
    config = CoreConfig(rob_size=16)
    records = [
        TraceRecord(instruction_gap=10, address=i * 64, is_write=True)
        for i in range(8)
    ]
    core = Core(0, iter(records), config, mapper=MAPPER)
    while not core.done:
        request = core.issue()
        request.completion_ns = request.arrival_ns + 1e9  # glacial writes
        core.complete(request)
    # Writes never enter the outstanding window, so the core never waits.
    assert core.time_ns < 1e6


def test_drain_advances_to_last_completion():
    core = Core(0, iter(_records([10])), mapper=MAPPER)
    request = core.issue()
    request.completion_ns = 777.0
    core.complete(request)
    core.drain()
    assert core.time_ns >= 777.0


def test_ipc_accounting():
    core = Core(0, iter(_records([100, 100])), mapper=MAPPER)
    while not core.done:
        request = core.issue()
        request.completion_ns = request.arrival_ns + 10.0
        core.complete(request)
    core.drain()
    assert core.instructions_retired == 202
    assert 0 < core.ipc <= core.config.retire_width


def test_issue_without_pending_raises():
    core = Core(0, iter([]), mapper=MAPPER)
    assert core.done
    with pytest.raises(RuntimeError):
        core.issue()
