"""Swap engine: Section 4.4 latency arithmetic."""

import pytest

from repro.core.swap import SwapBuffer, SwapEngine, SwapOp


def test_swap_op_validation():
    with pytest.raises(ValueError):
        SwapOp(phys_a=1, phys_b=2, kind="bogus")


def test_one_swap_is_about_1_46us(paper_dram):
    engine = SwapEngine(paper_dram)
    blocked = engine.execute([SwapOp(1, 2, "swap")])
    assert blocked == pytest.approx(1460.0)  # 4 x 365ns


def test_swap_plus_eviction_is_about_2_9us(paper_dram):
    """The paper's 'typical row-swap including the un-swap': ~2.9us."""
    engine = SwapEngine(paper_dram)
    blocked = engine.execute([SwapOp(9, 5, "unswap"), SwapOp(1, 2, "swap")])
    assert blocked == pytest.approx(2920.0)


def test_worst_case_chain_is_about_4_4us(paper_dram):
    """Re-swap + eviction of a previous-window tuple: ~4.4us."""
    engine = SwapEngine(paper_dram)
    ops = [SwapOp(9, 5, "unswap"), SwapOp(1, 2, "swap"), SwapOp(3, 4, "swap")]
    assert engine.execute(ops) == pytest.approx(4380.0)


def test_accounting_accumulates(paper_dram):
    engine = SwapEngine(paper_dram)
    engine.execute([SwapOp(1, 2, "swap")])
    engine.execute([SwapOp(3, 4, "swap")])
    assert engine.ops_executed == 2
    assert engine.total_blocked_ns == pytest.approx(2920.0)


def test_latency_scale_divides_block_time(paper_dram):
    engine = SwapEngine(paper_dram, latency_scale=32.0)
    blocked = engine.execute([SwapOp(1, 2, "swap")])
    assert blocked == pytest.approx(1460.0 / 32.0)


def test_latency_scale_validation(paper_dram):
    with pytest.raises(ValueError):
        SwapEngine(paper_dram, latency_scale=0.0)


def test_swap_buffer_protocol():
    buffer = SwapBuffer(size_bytes=8192)
    buffer.load(7)
    assert buffer.store() == 7
    with pytest.raises(RuntimeError):
        buffer.store()  # empty


def test_buffers_sized_to_row(paper_dram):
    engine = SwapEngine(paper_dram)
    assert engine.buffer_1.size_bytes == paper_dram.row_size_bytes
    assert engine.buffer_2.size_bytes == paper_dram.row_size_bytes
