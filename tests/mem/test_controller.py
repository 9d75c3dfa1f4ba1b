"""Memory controller: service timing, stats, and mitigation actions."""

import pytest

from repro.dram.device import Channel
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest
from repro.mitigations.base import Mitigation, MitigationOutcome
from repro.mitigations.none import NoMitigation


def _controller(config, mitigation=None, with_faults=False):
    channel = Channel(config, index=0, with_faults=with_faults, t_rh=100.0)
    return MemoryController(
        config, channel, mitigation if mitigation else NoMitigation()
    )


def _request(address, arrival=0.0, is_write=False):
    return MemoryRequest(
        address=address, is_write=is_write, core_id=0, arrival_ns=arrival
    )


def test_basic_service_updates_stats(small_dram):
    controller = _controller(small_dram)
    completion = controller.service(_request(0))
    assert completion > 0
    assert controller.stats.reads == 1
    assert controller.stats.activations == 1


def test_row_buffer_hit_detected(small_dram):
    controller = _controller(small_dram)
    first = _request(0)
    controller.service(first)
    second = _request(64 * small_dram.banks_per_rank, arrival=first.completion_ns)
    controller.service(second)
    assert second.row_buffer_hit
    assert controller.stats.row_buffer_hits == 1
    assert controller.stats.activations == 1


def test_write_is_serviced_inline(small_dram):
    """Writes take the same DRAM path as reads: serviced at once, and a
    write to a closed row activates it."""
    controller = _controller(small_dram)
    request = _request(0, arrival=5.0, is_write=True)
    completion = controller.service(request)
    assert completion > 5.0
    assert controller.stats.writes == 1
    assert controller.stats.activations == 1
    assert controller.channel.bank(0, 0).timing.open_row == request.physical_row


def test_wrong_channel_rejected(paper_dram):
    channel = Channel(paper_dram, index=0)
    controller = MemoryController(paper_dram, channel, NoMitigation())
    request = _request(64)  # decodes to channel 1
    with pytest.raises(ValueError):
        controller.service(request)


class _RefreshingMitigation(Mitigation):
    name = "refresher"

    def on_activation(self, bank_key, row, physical_row, now_ns):
        return MitigationOutcome(refresh_rows=[physical_row - 1, physical_row + 1])


def test_victim_refreshes_applied_and_counted(small_dram):
    controller = _controller(small_dram, _RefreshingMitigation(), with_faults=True)
    controller.service(_request(0))
    assert controller.stats.victim_refreshes >= 1


class _RoutingMitigation(Mitigation):
    name = "router"

    def route(self, bank_key, row):
        return row + 1


def test_routing_redirects_physical_row(small_dram):
    controller = _controller(small_dram, _RoutingMitigation())
    request = _request(0)
    controller.service(request)
    assert request.physical_row == request.decoded.row + 1


class _BlockingMitigation(Mitigation):
    name = "blocker"

    def on_activation(self, bank_key, row, physical_row, now_ns):
        return MitigationOutcome(channel_block_ns=5_000.0)


def test_channel_block_charged(small_dram):
    controller = _controller(small_dram, _BlockingMitigation())
    first = _request(0)
    controller.service(first)
    assert controller.stats.swap_blocked_ns == 5_000.0
    # The next request to any bank waits out the block.
    second = _request(64 * small_dram.banks_per_rank * 2, arrival=first.completion_ns)
    controller.service(second)
    assert second.start_ns >= first.completion_ns + 5_000.0


class _DelayingMitigation(Mitigation):
    name = "delayer"

    def pre_activate_delay_ns(self, bank_key, row, now_ns):
        return 1_000.0


def test_throttle_delay_applied(small_dram):
    controller = _controller(small_dram, _DelayingMitigation())
    request = _request(0)
    controller.service(request)
    assert request.start_ns >= 1_000.0
    assert controller.stats.throttle_delay_ns == 1_000.0


class _LatencyMitigation(Mitigation):
    name = "latency"

    def lookup_latency_ns(self):
        return 1.25


def test_lookup_latency_on_critical_path(small_dram):
    plain = _controller(small_dram)
    slowed = _controller(small_dram, _LatencyMitigation())
    fast = plain.service(_request(0))
    slow = slowed.service(_request(0))
    assert slow == pytest.approx(fast + 1.25)


def test_mean_latency_and_hit_rate(small_dram):
    controller = _controller(small_dram)
    controller.service(_request(0))
    assert controller.stats.mean_latency_ns > 0
    assert 0.0 <= controller.stats.row_buffer_hit_rate <= 1.0
