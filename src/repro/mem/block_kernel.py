"""Fused block-level simulation kernel (DESIGN.md §12).

:func:`run_block_loop` is the full-system hot loop
(:meth:`~repro.mem.system.SystemSimulator._run_scalar` is the
registered oracle). One Python iteration per request, but with every
per-request object hop fused away: bank timing lives in flat SoA lists,
refresh is advanced inline on those lists, mitigation deferral runs
against the shared :class:`ChannelBatchState` buffers, and core issue
times come from per-block numpy precompute (``(gap / retire_width) *
cycle_ns`` and the instruction-index cumsum are elementwise IEEE-754
operations, so the values match the scalar per-record arithmetic bit
for bit). Checkpoint cuts stop it between any two requests; it
re-enters from the state it leaves.

Why the loop stays one request at a time
----------------------------------------
The DDR timing recurrence is ``start_i = max(floor_i, ready_{i-1})``
followed by a chain of adds. ``max``-then-add chains cannot be
reassociated in floating point, so blanket vectorization would drift by
ulps, and an ACT can fire mitigation actions (victim refreshes, swaps,
channel blocks) that rewrite the very state a lookahead would have
read. ROB feedback pins the system loop to one-at-a-time issue as well:
with a 192-entry window and trace gaps larger than the window, request
k+1's issue time depends on request k's completion, so there is no
exact batch boundary to vectorize across. The win here is
constant-factor — no request/outcome objects, no method dispatch, no
attribute traffic — which profiling shows is where the serial time
actually goes.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import sys
from typing import List, Tuple

import numpy as np

__all__ = ["run_block_loop"]


def _adopt_block(core, inst_issued: int, first: int) -> Tuple[list, list]:
    """Issue-time precompute for the core's currently loaded block.

    The instruction cumsum is rebased so record ``first`` (the pending
    one, mid-block after a cut) continues from ``inst_issued``.
    ``(gap / retire_width) * cycle_ns`` and the instruction cumsum are
    elementwise, so the numpy results equal the scalar per-record
    expressions exactly (integer division and multiply are both
    correctly rounded in IEEE-754 double).
    """
    gaps = core._block["gap"]
    deltas = ((gaps / core._retire_width) * core._cycle_ns).tolist()
    steps = np.cumsum(gaps.astype(np.int64) + 1)
    if first:
        inst_issued -= int(steps[first - 1])
    return deltas, (inst_issued + steps).tolist()


# repro-oracle: system-loop -- kernel
def run_block_loop(sim, cores, stop_at: int = -1) -> int:
    """Fused system loop over columnar cores; mutates ``sim`` in place.

    Bit-identical to ``SystemSimulator._run_scalar`` (the oracle): the
    heap discipline, refresh cadence, controller arithmetic, mitigation
    deferral, and stats folds are replicated operation for operation —
    only the object plumbing between them is fused away. Banks with a
    command observer or a fault model (``REPRO_SANITIZE=1`` chains
    observers onto every bank) are serviced through ``Bank.access`` so
    protocol checks still see every command; unobserved open-page banks
    run on flat SoA timing lists. Eligibility is decided by
    ``SystemSimulator._block_loop_eligible``.
    Returns the requests serviced, stopping at ``stop_at`` (-1: never)
    with every live object written back as the oracle leaves it between
    two requests, so a cut can be taken and either loop re-entered.
    """
    config = sim.config.dram
    mitigation = sim.mitigation
    channels = sim.channels
    controllers = sim.controllers
    refresh = sim.refresh

    key_table = sim.mapper.bank_key_table
    n_banks = len(key_table)
    banks_per_rank = config.banks_per_rank

    # ---- flat bank state (global flat index = mapper's flat_bank) ----
    bank_objs = []
    chan_of: List[int] = []
    local_of: List[int] = []
    for ch, rank, bank in key_table:
        bank_objs.append(channels[ch].bank(rank, bank))
        chan_of.append(ch)
        local_of.append(rank * banks_per_rank + bank)
    timing_objs = [b.timing for b in bank_objs]
    inline_timing = config.page_policy != "closed"
    amode = [inline_timing and b.kernel_inlineable for b in bank_objs]
    open_row: List[int] = []
    last_act: List[float] = []
    ready: List[float] = []
    for timing in timing_objs:
        orow, act_ns, ready_at = timing.snapshot_state()
        open_row.append(orow)
        last_act.append(act_ns)
        ready.append(ready_at)
    counts = [b.window_act_counts for b in bank_objs]
    total_acts = [b.total_activations for b in bank_objs]
    bus_free = [c.bus_free_ns for c in channels]
    banks_of_channel = [
        [fb for fb in range(n_banks) if chan_of[fb] == ch]
        for ch in range(len(channels))
    ]

    # ---- controller/mitigation scalars (shared across channels) ----
    c0 = controllers[0]
    lookup_ns = c0._lookup_ns
    has_route = c0._has_route
    has_pre_delay = c0._has_pre_delay
    mitigates_acts = c0._mitigates_acts
    batch_global = c0._batch_global
    t_cas = c0._t_cas
    t_rcd = c0._t_rcd
    t_rp = c0._t_rp
    t_rc = c0._t_rc
    t_ras = c0._t_ras
    rows_per_bank = c0._rows_per_bank
    line_transfer = c0._line_transfer_ns
    route_tables_by_ch = [c._route_tables for c in controllers]
    batches = [c._batch for c in controllers]
    # Batch-state columns, hoisted per channel: ChannelBatchState only
    # ever mutates these lists in place (window resets rewrite
    # credits[i], never rebind the attribute), so the references stay
    # live for the whole run and the deferral fast path pays list
    # indexing instead of attribute chains.
    b_credits = [b.credits if b is not None else None for b in batches]
    b_deadlines = [b.deadlines if b is not None else None for b in batches]
    b_rows_ch = [b.rows if b is not None else None for b in batches]
    b_times_ch = [b.times if b is not None else None for b in batches]
    sanitizers = [c.sanitizer for c in controllers]
    route = mitigation.route
    pre_delay = mitigation.pre_activate_delay_ns
    on_act = mitigation.on_activation
    on_act_batch = mitigation.on_activation_batch

    # ---- per-channel stats accumulators (folded back at the end) ----
    st_reads = [c.stats.reads for c in controllers]
    st_writes = [c.stats.writes for c in controllers]
    st_acts = [c.stats.activations for c in controllers]
    st_hits = [c.stats.row_buffer_hits for c in controllers]
    st_victims = [c.stats.victim_refreshes for c in controllers]
    st_swaps = [c.stats.swaps for c in controllers]
    st_swap_blocked = [c.stats.swap_blocked_ns for c in controllers]
    st_throttle = [c.stats.throttle_delay_ns for c in controllers]
    st_latency = [c.stats.total_latency_ns for c in controllers]

    # ---- refresh locals (RefreshScheduler.advance_to, inlined) ----
    next_refi = refresh._next_refi_ns
    next_window = refresh._next_window_ns
    refresh_due = refresh.next_due_ns
    cfg_t_refi = config.t_refi
    t_rfc = config.t_rfc
    cfg_window_ns = config.refresh_window_ns
    refresh_observer = refresh.observer
    pre_window_callbacks = refresh.pre_window_callbacks
    window_callbacks = refresh.window_callbacks

    def _apply_action(action, gfb: int, ch: int, now_ns: float) -> None:
        # MemoryController._apply, operating on the SoA state.
        bank = bank_objs[gfb]
        refresh_rows = action.refresh_rows
        if refresh_rows:
            for victim_row in refresh_rows:
                if 0 <= victim_row < rows_per_bank:
                    bank.refresh_row(victim_row)
                    st_victims[ch] += 1
            end = now_ns + len(refresh_rows) * t_rc
            if amode[gfb]:
                if ready[gfb] < end:
                    ready[gfb] = end
            else:
                timing_objs[gfb].block_until(end)
        if action.swaps:
            st_swaps[ch] += len(action.swaps)
            if bank.disturbance is not None:
                for row_a, row_b in action.swaps:
                    bank.disturbance.on_activate(row_a, count=2)
                    bank.disturbance.on_activate(row_b, count=2)
        if action.refresh_all_bank and bank.disturbance is not None:
            bank.disturbance.refresh_all()
        if action.channel_block_ns > 0.0:
            st_swap_blocked[ch] += action.channel_block_ns
            bus = bus_free[ch]
            end = (now_ns if now_ns >= bus else bus) + action.channel_block_ns
            bus_free[ch] = end
            for fb in banks_of_channel[ch]:
                if amode[fb]:
                    if ready[fb] < end:
                        ready[fb] = end
                else:
                    timing_objs[fb].block_until(end)
        if sanitizers[ch] is not None and action.swaps:
            sanitizers[ch].audit_mitigation(mitigation)

    # ---- per-core SoA state ----
    n_cores = len(cores)
    c_time = [core.time_ns for core in cores]
    c_inst = [core._inst_issued for core in cores]
    c_retired = [core.instructions_retired for core in cores]
    c_out = [core._outstanding for core in cores]
    c_rob = [core._rob_size for core in cores]
    c_idx = [core._idx for core in cores]
    c_len = [core._len for core in cores]
    c_writes: list = [None] * n_cores
    c_rows: list = [None] * n_cores
    c_flats: list = [None] * n_cores
    c_deltas: list = [None] * n_cores
    c_inst_after: list = [None] * n_cores

    heap = []
    for core_id, core in enumerate(cores):
        if not core._has_pending:
            continue
        c_writes[core_id] = core._writes
        c_rows[core_id] = core._rows
        c_flats[core_id] = core._flats
        deltas, inst_after = _adopt_block(core, c_inst[core_id], core._idx)
        c_deltas[core_id] = deltas
        c_inst_after[core_id] = inst_after
        heap.append((core.next_issue_time(), core_id))
    heapq.heapify(heap)

    heappop = heapq.heappop
    heappushpop = heapq.heappushpop

    # The scalar loop pops at the top and pushes the core's next issue
    # at the bottom; fusing the two into one heappushpop halves the
    # sift work, and when the just-serviced core is still the earliest
    # (its tuple sorts below the root) the C call returns it without
    # touching the heap at all. Pop order is decided purely by the
    # (issue_at, core_id) tuples, so the discipline is unchanged. One
    # iteration per request of a repeat() counter bounds the run at
    # stop_at with no per-request work of its own (running out of
    # cores breaks out); its remaining count tells how many ran.
    limit = (stop_at if stop_at >= 0 else sys.maxsize) if heap else 0
    requests = itertools.repeat(None, limit)
    item = heappop(heap) if heap else None
    for _ in requests:
        arrival, core_id = item
        idx = c_idx[core_id]
        c_time[core_id] = arrival
        inst_index = c_inst_after[core_id][idx]
        c_inst[core_id] = inst_index
        is_write = c_writes[core_id][idx]
        row = c_rows[core_id][idx]
        gfb = c_flats[core_id][idx]

        # -- refresh gate (RefreshScheduler.advance_to, max_postponed=0)
        if arrival >= refresh_due:
            while next_refi <= arrival:
                start = next_refi
                if refresh_observer is not None:
                    refresh_observer(start, 1)
                end = start + t_rfc
                for fb in range(n_banks):
                    if amode[fb]:
                        if ready[fb] < end:
                            ready[fb] = end
                    else:
                        timing_objs[fb].block_until(end)
                refresh.refresh_bursts += 1
                next_refi += cfg_t_refi
            while next_window <= arrival:
                completed = refresh.windows_completed
                for callback in pre_window_callbacks:
                    callback(completed)
                for channel in channels:
                    channel.end_window()
                for callback in window_callbacks:
                    callback(completed)
                refresh.windows_completed = completed + 1
                next_window += cfg_window_ns
            refresh_due = next_refi if next_refi <= next_window else next_window

        # -- MemoryController.service, fused --
        ch = chan_of[gfb]
        lfb = local_of[gfb]
        rt = route_tables_by_ch[ch]
        if rt is not None:
            table = rt[lfb]
            physical_row = row if table is None else table.get(row, row)
        elif has_route:
            physical_row = route(key_table[gfb], row)
        else:
            physical_row = row

        start_floor = arrival + lookup_ns
        if has_pre_delay:
            cur_open = open_row[gfb] if amode[gfb] else timing_objs[gfb].open_row
            if cur_open != physical_row:
                delay = pre_delay(key_table[gfb], physical_row, start_floor)
                if delay > 0.0:
                    st_throttle[ch] += delay
                    start_floor += delay

        if amode[gfb] and 0 <= physical_row < rows_per_bank:
            b_ready = ready[gfb]
            start = start_floor if start_floor > b_ready else b_ready
            orow = open_row[gfb]
            if orow == physical_row:
                data = start + t_cas
                ready[gfb] = data
                hit = True
                activated = False
            else:
                la = last_act[gfb]
                if orow >= 0:
                    pre_at = la + t_ras
                    if start >= pre_at:
                        pre_at = start
                    act_at = pre_at + t_rp
                    floor = la + t_rc
                    if floor > act_at:
                        act_at = floor
                else:
                    act_at = la + t_rc
                    if start >= act_at:
                        act_at = start
                data = act_at + t_rcd + t_cas
                open_row[gfb] = physical_row
                last_act[gfb] = act_at
                ready[gfb] = data
                hit = False
                activated = True
                cnts = counts[gfb]
                cnts[physical_row] = cnts.get(physical_row, 0) + 1
                total_acts[gfb] += 1
        else:
            outcome = bank_objs[gfb].access(physical_row, start_floor)
            data = outcome.data_ns
            hit = outcome.row_buffer_hit
            activated = outcome.activated

        bus = bus_free[ch]
        data_start = data if data >= bus else bus
        completion = data_start + line_transfer
        bus_free[ch] = completion

        if is_write:
            st_writes[ch] += 1
        else:
            st_reads[ch] += 1
        st_latency[ch] += completion - arrival
        if hit:
            st_hits[ch] += 1
        if activated:
            st_acts[ch] += 1
            credits = b_credits[ch]
            if (
                credits is not None
                and not batch_global
                and credits[lfb] > 0
                and completion < b_deadlines[ch][lfb]
            ):
                credits[lfb] -= 1
                b_rows_ch[ch][lfb].append(row)
                b_times_ch[ch][lfb].append(completion)
            else:
                # MemoryController._note_activation, fused.
                action = None
                if credits is None:
                    if mitigates_acts:
                        action = on_act(
                            key_table[gfb], row, physical_row, completion
                        )
                elif batch_global:
                    if credits[0] > 0:
                        credits[0] -= 1
                    else:
                        action = on_act_batch(
                            key_table[gfb], (physical_row,), (completion,)
                        )
                elif credits[lfb] < 0:
                    # Opted-out bank: straight to the scalar oracle.
                    action = on_act(
                        key_table[gfb], row, physical_row, completion
                    )
                else:
                    b_rows = b_rows_ch[ch][lfb]
                    b_times = b_times_ch[ch][lfb]
                    b_rows.append(row)
                    b_times.append(completion)
                    action = on_act_batch(key_table[gfb], b_rows, b_times)
                    b_rows.clear()
                    b_times.clear()
                if action is not None and not action.is_noop:
                    _apply_action(action, gfb, ch, completion)

        # -- Core.complete + next_issue_time, fused --
        if inst_index > c_retired[core_id]:
            c_retired[core_id] = inst_index
        out = c_out[core_id]
        if not is_write:
            out.append((inst_index, completion))

        nxt = idx + 1
        if nxt >= c_len[core_id]:
            core = cores[core_id]
            if not core._load_block_lean():
                if not heap:
                    item = None
                    break
                item = heappop(heap)
                continue
            c_writes[core_id] = core._writes
            c_rows[core_id] = core._rows
            c_flats[core_id] = core._flats
            c_len[core_id] = core._len
            deltas, inst_after = _adopt_block(core, inst_index, 0)
            c_deltas[core_id] = deltas
            c_inst_after[core_id] = inst_after
            nxt = 0
        c_idx[core_id] = nxt
        issue_at = arrival + c_deltas[core_id][nxt]
        next_index = c_inst_after[core_id][nxt]
        rob_size = c_rob[core_id]
        while out:
            oldest_index, oldest_completion = out[0]
            if next_index - oldest_index < rob_size:
                break
            if oldest_completion > issue_at:
                issue_at = oldest_completion
            out.popleft()
        item = heappushpop(heap, (issue_at, core_id))

    # ---- write everything back to the live objects ----
    for fb in range(n_banks):
        if amode[fb]:
            timing_objs[fb].restore_state(
                (open_row[fb], last_act[fb], ready[fb])
            )
            bank_objs[fb].total_activations = total_acts[fb]
    for ch, channel in enumerate(channels):
        channel.bus_free_ns = bus_free[ch]
        stats = controllers[ch].stats
        stats.reads = st_reads[ch]
        stats.writes = st_writes[ch]
        stats.activations = st_acts[ch]
        stats.row_buffer_hits = st_hits[ch]
        stats.victim_refreshes = st_victims[ch]
        stats.swaps = st_swaps[ch]
        stats.swap_blocked_ns = st_swap_blocked[ch]
        stats.throttle_delay_ns = st_throttle[ch]
        stats.total_latency_ns = st_latency[ch]
    refresh._next_refi_ns = next_refi
    refresh._next_window_ns = next_window
    refresh.next_due_ns = min(next_refi, next_window)
    # Pending cores keep their cached issue time, as in the oracle.
    queued = {core_id: issue_at for issue_at, core_id in heap}
    if item is not None:
        queued[item[1]] = item[0]
    for core_id, core in enumerate(cores):
        core.time_ns = c_time[core_id]
        core.instructions_retired = c_retired[core_id]
        core._inst_issued = c_inst[core_id]
        core._idx = idx = c_idx[core_id]
        if core._block is not None:
            core._pending_gap = int(core._block["gap"][idx])
        core._pending_issue_ns = queued.get(core_id)
    return limit - operator.length_hint(requests)
