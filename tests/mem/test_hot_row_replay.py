"""Figure 5's one-bank RRS replay through the compiled tracker.

``block_kernel.replay_hot_rows`` streams a window of activations
through the C copy of the bank's tracker and calls Python only at
swaps; ``replay_activations`` (its oracle) makes one ``on_activation``
per activation. Both must leave the same swaps and the same RRS state:
tracker, RIT, PRNG and swap engine.
"""

import dataclasses

import numpy as np
import pytest

from benchmarks._activation import BANK, bank_stream, swaps_per_window
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem import block_kernel
from repro.mem.block_kernel import replay_activations, replay_hot_rows
from repro.workloads.suites import WORKLOAD_TABLE, get_workload

DRAM = DRAMConfig()
FIG5 = RRSConfig.for_threshold(4800, DRAM)


@pytest.fixture
def compiled():
    if block_kernel.load() is None:
        pytest.skip("compiled block loop unavailable")


def _both(spec, seed=0, config=FIG5):
    """(total swaps, RRS snapshot) after the oracle and the kernel."""
    stream = bank_stream(spec, DRAM, seed)
    sides = []
    for replay in (replay_activations, replay_hot_rows):
        rrs = RandomizedRowSwap(config, DRAM)
        replay(rrs, BANK, stream)
        sides.append((rrs.total_swaps, rrs.snapshot_state()))
    return sides


@pytest.mark.parametrize("spec", WORKLOAD_TABLE, ids=lambda spec: spec.name)
def test_replay_matches_the_per_activation_oracle(spec, compiled):
    oracle, kernel = _both(spec)
    assert kernel == oracle


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["hmmer", "bzip2"])
def test_replay_matches_the_oracle_across_seeds(name, seed, compiled):
    oracle, kernel = _both(get_workload(name), seed)
    assert oracle[0] > 0
    assert kernel == oracle


def test_tiny_tracker_replay_spills_evicts_and_matches(compiled):
    """A 16-entry tracker spills and evicts on most misses."""
    config = dataclasses.replace(FIG5, tracker_entries=16)
    oracle, kernel = _both(get_workload("hmmer"), config=config)
    spill = oracle[1][5][BANK][0][0]
    assert spill > 1_000 and oracle[0] > 0
    assert kernel == oracle


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_bank_replay_matches_where_exclusion_bites(seed, compiled):
    """A 256-row bank whose 48-entry tracker holds a fifth of it: about
    a hundred swaps draw destinations that often hit tracked rows, so
    the replay's membership answers must be exact."""
    rows = 256
    config = RRSConfig(
        t_rh=60,
        t_rrs=10,
        window_activations=640,
        rows_per_bank=rows,
        tracker_entries=48,
        rit_capacity_tuples=128,
    )
    dram = DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=rows, row_size_bytes=1024
    )
    stream = np.random.default_rng(seed).zipf(1.3, 1200) % rows
    sides = []
    for replay in (replay_activations, replay_hot_rows):
        rrs = RandomizedRowSwap(config, dram)
        replay(rrs, BANK, stream)
        sides.append((rrs.total_swaps, rrs.snapshot_state()))
    assert sides[0][0] > 50
    assert sides[1] == sides[0]


def _per_activation(spec, config):
    """Figure 5's replay as it was first written: route, then
    ``on_activation``, for every activation."""
    stream = bank_stream(spec, DRAM)
    rrs = RandomizedRowSwap(config, DRAM)
    for row in stream.tolist():
        rrs.on_activation(BANK, row, rrs.route(BANK, row), 0.0)
    return rrs.total_swaps * DRAM.banks_total, len(stream)


@pytest.mark.parametrize("fallback", ["no library", "tracker declined"])
def test_swaps_per_window_falls_back_to_the_per_activation_loop(
    fallback, monkeypatch
):
    spec = get_workload("gcc_17")
    config = FIG5
    if fallback == "no library":
        monkeypatch.setattr(block_kernel, "load", lambda: None)
    else:
        monkeypatch.setattr(
            RandomizedRowSwap, "hot_row_tracker", lambda self, bank_key: None
        )
    expected = _per_activation(spec, config)
    calls = []
    original = RandomizedRowSwap.on_activation

    def counted(self, *args):
        calls.append(args[1])
        return original(self, *args)

    monkeypatch.setattr(RandomizedRowSwap, "on_activation", counted)
    assert swaps_per_window(spec, DRAM, config) == expected
    assert len(calls) == expected[1]
    assert expected[0] > 0


def test_rows_outside_int32_replay_through_the_oracle(compiled, monkeypatch):
    """C keeps rows as int32, so a window with a row beyond int32 takes
    ``replay_activations`` (the C tracker is never built) and leaves
    the same RRS state."""
    stream = bank_stream(get_workload("hmmer"), DRAM, 0).copy()
    stream[len(stream) // 2] = 1 << 31
    expected = RandomizedRowSwap(FIG5, DRAM)
    replay_activations(expected, BANK, stream)
    monkeypatch.setattr(block_kernel, "HotRowTrackers", None)
    rrs = RandomizedRowSwap(FIG5, DRAM)
    replay_hot_rows(rrs, BANK, stream)
    assert expected.total_swaps > 0
    assert rrs.snapshot_state() == expected.snapshot_state()
