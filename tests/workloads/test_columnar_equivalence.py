"""Chunked generators replay byte-identical record streams.

The columnar blocks API is the single implementation of trace
generation; these tests pin its equivalence to the scalar view — per
record, across block boundaries, for the synthetic generators, the
cache filter, and trace files — and that ``DeterministicRng`` seeding
behaves identically through both views.
"""

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.mem.cache import CacheConfig, LastLevelCache
from repro.workloads import (
    TRACE_BLOCK_RECORDS,
    RawAccess,
    SyntheticTraceGenerator,
    filter_through_llc,
    filter_through_llc_chunks,
    get_workload,
    iter_block,
    read_trace,
    read_trace_chunks,
    records_to_blocks,
    write_trace,
)
from repro.workloads.suites import WorkloadSpec

# Straddles two full blocks plus a ragged tail.
COUNT = 2 * TRACE_BLOCK_RECORDS + 771


def _generator(name="hmmer", core_id=0, seed=0, cores=4):
    return SyntheticTraceGenerator(
        get_workload(name),
        core_id=core_id,
        cores=cores,
        config=DRAMConfig().scaled(32),
        seed=seed,
    )


@pytest.mark.parametrize(
    "name", ["hmmer", "bzip2", "stream", "mcf", "xz_17", "gap_pr"]
)
def test_records_match_scalar_reference(name):
    # The reference still draws gaps with ``Generator.geometric`` and
    # scans with ``_next_scan_address``, so a numpy release that broke
    # the inversion identity the blocks rely on fails here.
    chunked = list(_generator(name).records(COUNT))
    reference = list(_generator(name).records_reference(COUNT))
    assert chunked == reference


def test_records_match_scalar_reference_across_long_burst_cycles():
    # A cycle longer than a block plus a burst: bursts open mid-block
    # and the block after a burst sees none.
    generator = _generator("xz_17")
    count = 2 * generator._cycle_len + TRACE_BLOCK_RECORDS
    assert generator._cycle_len > TRACE_BLOCK_RECORDS + 64
    chunked = list(generator.records(count))
    reference = list(_generator("xz_17").records_reference(count))
    assert chunked == reference


@pytest.mark.parametrize("name", ["hmmer", "comm2", "mcf"])
def test_burst_windows_match_the_cycle_arithmetic(name):
    generator = _generator(name)
    cycle = generator._cycle_len
    for position in range(0, 3 * cycle + 2 * TRACE_BLOCK_RECORDS, 997):
        for take in (TRACE_BLOCK_RECORDS, 771):
            expected = np.arange(position, position + take) % cycle < 64
            window = generator._burst_window(position, take)
            if window is None:
                assert not expected.any()
            else:
                np.testing.assert_array_equal(window, expected)


def test_high_mpki_gaps_take_numpy_geometric_search():
    # MPKI 400 gives a mean gap of 1.5, p = 2/3 >= 1/3: numpy's
    # geometric searches instead of inverting, so blocks call it as is.
    spec = WorkloadSpec(
        name="dense", suite="test", footprint_gb=0.05, mpki=400.0, act800_rows=64
    )

    def generator():
        return SyntheticTraceGenerator(
            spec, core_id=1, cores=4, config=DRAMConfig().scaled(32), seed=3
        )

    assert generator()._gap_divisor is None
    chunked = list(generator().records(COUNT))
    assert chunked == list(generator().records_reference(COUNT))
    assert max(record.instruction_gap for record in chunked) > 1


def _hot_addresses_interleaved(generator):
    """The pre-batched hot-row draw, kept as the oracle: two scalar
    ``randint`` calls per hot row, row then column."""
    config = generator.config
    rng = generator._rng.child("hotrows")
    rows, columns = [], []
    for _ in range(len(generator._hot_addresses)):
        rows.append(rng.randint(0, config.rows_per_bank))
        columns.append(rng.randint(0, config.lines_per_row))
    index = np.arange(len(rows), dtype=np.int64)
    return AddressMapper(config).encode_batch(
        channel=(generator.core_id + index) % config.channels,
        rank=np.zeros(len(rows), dtype=np.int64),
        bank=(generator.core_id * 3 + index) % config.banks_per_rank,
        row=np.array(rows, dtype=np.int64),
        column=np.array(columns, dtype=np.int64),
    ).tolist()


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(DRAMConfig(), id="table2"),
        pytest.param(DRAMConfig().scaled(32), id="scaled-32"),
        pytest.param(DRAMConfig(row_size_bytes=64), id="one-line-rows"),
    ],
)
@pytest.mark.parametrize("name", ["hmmer", "bzip2", "xz_17"])
def test_hot_addresses_match_interleaved_randint(config, name):
    for core_id in (0, 3):
        generator = SyntheticTraceGenerator(
            get_workload(name), core_id=core_id, cores=4, config=config, seed=11
        )
        assert generator._hot_addresses
        assert generator._hot_addresses == _hot_addresses_interleaved(generator)


def test_blocks_chunks_and_records_views_agree():
    via_blocks = [
        record
        for block in _generator().blocks(COUNT)
        for record in iter_block(block)
    ]
    via_chunks = list(_generator().chunks(COUNT))
    via_records = list(_generator().records(COUNT))
    assert via_blocks == via_chunks == via_records


def test_deterministic_rng_seeding_through_both_views():
    same_a = list(_generator(seed=7).records(1000))
    same_b = list(_generator(seed=7).records_reference(1000))
    other_seed = list(_generator(seed=8).records(1000))
    other_core = list(_generator(seed=7, core_id=1).records(1000))
    assert same_a == same_b
    assert same_a != other_seed
    assert same_a != other_core


def test_short_request_is_a_prefix_of_a_long_one():
    # blocks() draws RNG at full block size regardless of the trailing
    # count, so any prefix is byte-identical however the stream is cut.
    long = list(_generator().records(COUNT))
    short = list(_generator().records(1000))
    assert long[:1000] == short


def test_record_fields_are_plain_python_types():
    record = next(iter(_generator().records(8)))
    assert type(record.instruction_gap) is int
    assert type(record.address) is int
    assert type(record.is_write) is bool


def test_records_to_blocks_round_trip():
    records = list(_generator().records(1000))
    blocks = list(records_to_blocks(records, block_records=256))
    assert [len(block) for block in blocks] == [256, 256, 256, 232]
    assert [r for block in blocks for r in iter_block(block)] == records


def _raw_stream(count=5000, seed=3):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 20, size=count).tolist()
    lines = rng.integers(0, 4096, size=count).tolist()
    writes = (rng.random(size=count) < 0.3).tolist()
    return [
        RawAccess(gap, line * 64, write)
        for gap, line, write in zip(gaps, lines, writes)
    ]


def test_cache_filter_chunks_match_scalar():
    raw = _raw_stream()
    scalar = list(filter_through_llc(raw, LastLevelCache(CacheConfig())))
    chunked = list(
        filter_through_llc_chunks(raw, LastLevelCache(CacheConfig()))
    )
    assert chunked == scalar
    assert scalar, "stream produced no post-LLC traffic"


def test_trace_file_chunked_reader_matches_scalar(tmp_path):
    path = tmp_path / "trace.txt"
    records = list(_generator().records(600))
    assert write_trace(path, records) == 600
    assert list(read_trace(path)) == records
    assert list(read_trace_chunks(path, block_records=128)) == records
