"""Multi-rank / multi-channel geometry support."""

import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel


@pytest.fixture
def dual_rank():
    return DRAMConfig(
        channels=2,
        ranks_per_channel=2,
        banks_per_rank=8,
        rows_per_bank=4096,
        row_size_bytes=2048,
    )


def test_capacity_counts_all_ranks(dual_rank):
    assert dual_rank.banks_total == 2 * 2 * 8
    assert dual_rank.capacity_bytes == 32 * 4096 * 2048


def test_address_roundtrip_with_ranks(dual_rank):
    mapper = AddressMapper(dual_rank)
    for address in range(0, dual_rank.capacity_bytes, 997 * 64):
        decoded = mapper.decode(address)
        assert mapper.encode(decoded) == address
        assert 0 <= decoded.rank < 2


def test_ranks_refresh_independently(dual_rank):
    channel = Channel(dual_rank)
    end = channel.ranks[0].block_for_refresh(0.0)
    # Rank 1's banks are untouched by rank 0's refresh.
    bank = channel.bank(1, 0)
    outcome = bank.access(row=0, now_ns=0.0)
    assert outcome.start_ns < end


def test_bank_keys_unique_across_ranks(dual_rank):
    channel = Channel(dual_rank)
    keys = {bank.key for bank in channel.iter_banks()}
    assert len(keys) == 2 * 8


def test_full_system_runs_on_dual_rank(dual_rank):
    from repro.mem.system import SystemConfig, SystemSimulator
    from repro.workloads.trace import TraceRecord

    def trace(n, core):
        for i in range(n):
            yield TraceRecord(50, (core * 100_000 + i) * 64, False)

    sim = SystemSimulator(SystemConfig(dram=dual_rank, cores=2))
    metrics = sim.run([trace(500, 0), trace(500, 1)], workload="dual-rank")
    assert metrics.accesses == 1000
    assert metrics.ipc > 0


@pytest.mark.parametrize("defended", [False, True])
def test_compiled_loop_matches_scalar_on_dual_rank(dual_rank, defended, scalar_loop):
    """Two channels of two ranks: the compiled loop's in-place decode
    (every address field, the rank's included) and its per-channel bus
    and swap blocks leave the scalar loop's SimMetrics bit for bit."""
    from repro.core.config import RRSConfig
    from repro.core.rrs import RandomizedRowSwap
    from repro.mem.system import SystemConfig, SystemSimulator
    from repro.mitigations.none import NoMitigation
    from repro.workloads.suites import get_workload
    from repro.workloads.synthetic import SyntheticTraceGenerator

    dram = dual_rank.scaled(64)
    cores = 4
    spec = get_workload("hmmer")

    def run():
        if defended:
            mitigation = RandomizedRowSwap(
                RRSConfig.for_threshold(4800, dual_rank).scaled(64), dram
            )
        else:
            mitigation = NoMitigation()
        sim = SystemSimulator(SystemConfig(dram=dram, cores=cores), mitigation=mitigation)
        traces = [
            SyntheticTraceGenerator(
                spec.component_for_core(core_id), core_id=core_id, cores=cores, config=dram
            ).chunks(6_000)
            for core_id in range(cores)
        ]
        metrics = sim.run(traces, workload="dual-rank")
        ranks_used = {
            rank
            for channel in sim.channels
            for rank in range(dram.ranks_per_channel)
            for bank in range(dram.banks_per_rank)
            if channel.bank(rank, bank).total_activations
        }
        return metrics, ranks_used

    compiled, ranks_used = run()
    with scalar_loop():
        scalar, _ = run()
    assert ranks_used == {0, 1}
    assert compiled.to_dict() == scalar.to_dict()
    assert (compiled.swaps > 0) == defended
