"""Table 2 (baseline system configuration) asserted end to end."""

from repro.core.config import CPU_CLOCK_GHZ, RRSConfig
from repro.mem.cache import CacheConfig
from repro.mem.cpu import CoreConfig
from repro.mem.system import SystemConfig


def test_core_matches_table2():
    core = CoreConfig()
    assert core.clock_ghz == 3.2
    assert core.rob_size == 192
    assert core.retire_width == 4
    assert CPU_CLOCK_GHZ == core.clock_ghz


def test_llc_matches_table2():
    llc = CacheConfig()
    assert llc.capacity_bytes == 8 * 1024 * 1024
    assert llc.ways == 16
    assert llc.line_size_bytes == 64


def test_system_is_8_core_32gb_ddr4():
    system = SystemConfig()
    assert system.cores == 8
    assert system.dram.capacity_bytes == 32 * 1024**3
    assert system.dram.bus_clock_ghz == 1.6  # 3.2GHz DDR
    assert system.t_rh == 4800.0


def test_rrs_defaults_match_section_4_5():
    config = RRSConfig()
    assert (config.t_rh, config.t_rrs) == (4800, 800)
    assert config.tracker_entries == 1700
    assert config.rit_capacity_tuples == 3400
