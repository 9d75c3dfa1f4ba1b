"""Property suite: ``decode_batch`` matches scalar ``decode``.

The columnar pipeline batch-decodes whole trace blocks, so the
vectorized shift/mask path must agree with the scalar mapper element
for element — across every DRAMConfig geometry the paper's sweeps use:
the Table-2 default, the scaled-epoch variants, the single-bank attack
geometry, and a dual-rank system. (The compiled loop decodes in C;
``tests/mem/test_block_equivalence.py`` pins its runs, a dual-rank one
included, to the scalar loop's.)
"""

import numpy as np
import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig

GEOMETRIES = [
    pytest.param(DRAMConfig(), id="table2-default"),
    pytest.param(DRAMConfig().scaled(32), id="scaled-32"),
    pytest.param(DRAMConfig().scaled(128), id="scaled-128"),
    pytest.param(
        DRAMConfig(
            channels=1,
            banks_per_rank=1,
            rows_per_bank=128 * 1024,
            row_size_bytes=1024,
        ),
        id="attack-single-bank",
    ),
    pytest.param(DRAMConfig(ranks_per_channel=2), id="dual-rank"),
]


def _capacity(config: DRAMConfig) -> int:
    """Total bytes addressable by the mapper's field layout."""
    return (
        config.channels
        * config.ranks_per_channel
        * config.banks_per_rank
        * config.rows_per_bank
        * config.row_size_bytes
    )


def _addresses(config: DRAMConfig, count: int = 4096) -> np.ndarray:
    rng = np.random.default_rng(0xA11CE)
    addresses = rng.integers(0, _capacity(config), size=count, dtype=np.int64)
    addresses[0] = 0
    addresses[-1] = _capacity(config) - 1
    return addresses


@pytest.mark.parametrize("config", GEOMETRIES)
def test_decode_batch_matches_scalar_element_for_element(config):
    mapper = AddressMapper(config)
    addresses = _addresses(config)
    columns = mapper.decode_batch(addresses)
    for i, address in enumerate(addresses.tolist()):
        scalar = mapper.decode(address)
        assert columns.channel[i] == scalar.channel
        assert columns.rank[i] == scalar.rank
        assert columns.bank[i] == scalar.bank
        assert columns.row[i] == scalar.row
        assert columns.column[i] == scalar.column


@pytest.mark.parametrize("config", GEOMETRIES)
def test_flat_bank_indexes_the_bank_key_table(config):
    mapper = AddressMapper(config)
    addresses = _addresses(config, count=1024)
    columns = mapper.decode_batch(addresses)
    for i, address in enumerate(addresses.tolist()):
        scalar = mapper.decode(address)
        flat = (
            scalar.channel * config.ranks_per_channel + scalar.rank
        ) * config.banks_per_rank + scalar.bank
        assert columns.flat_bank[i] == flat
        assert mapper.bank_key_table[flat] == scalar.bank_key


@pytest.mark.parametrize("config", GEOMETRIES)
def test_encode_batch_round_trips_decode_batch(config):
    mapper = AddressMapper(config)
    addresses = _addresses(config)
    aligned = (addresses // config.line_size_bytes) * config.line_size_bytes
    columns = mapper.decode_batch(addresses)
    encoded = mapper.encode_batch(
        columns.channel, columns.rank, columns.bank, columns.row, columns.column
    )
    np.testing.assert_array_equal(encoded, aligned)


@pytest.mark.parametrize("config", GEOMETRIES)
def test_negative_addresses_rejected_like_scalar(config):
    mapper = AddressMapper(config)
    with pytest.raises(ValueError):
        mapper.decode(-1)
    with pytest.raises(ValueError):
        mapper.decode_batch(np.array([0, -1], dtype=np.int64))


def test_decode_batch_accepts_empty_input():
    mapper = AddressMapper(DRAMConfig())
    columns = mapper.decode_batch(np.empty(0, dtype=np.int64))
    assert columns.channel.size == 0
    assert columns.flat_bank.size == 0
