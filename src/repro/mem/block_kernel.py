"""Compiled block-level system loop (DESIGN.md §12).

:func:`run_block_loop` is the full-system hot loop
(:meth:`~repro.mem.system.SystemSimulator._run_scalar` is the
registered oracle). The per-request recurrence runs in C
(``block_loop.c``, loaded through :mod:`ctypes`): the
``(issue_at, core_id)`` heap, the refresh gate with its tREFI bursts,
the route lookup, open-page bank timing, the channel bus, the stats
folds, each core's ROB window, and the Misra-Gries hot-row tracker of
every bank whose mitigation hands it over
(``Mitigation.hot_row_tracker``: RRS's and Graphene's
``ArrayMisraGries``, kept in :class:`HotRowTrackers`). The C routine
returns to the Python event loop below only for events that need
Python objects, and is re-entered after each:

* an activation the mitigation must see: every activation of a
  mitigation that observes them (``on_activation``), except on a bank
  whose tracker runs in C, which returns only when an estimate lands on
  a multiple of the threshold (``on_hot_row``); and each ``route`` /
  ``pre_activate_delay_ns`` call of a mitigation with no
  ``route_table`` or with a throttle;
* a refresh-window end, whose callbacks run in Python;
* the end of a core's trace block (the next one is generated, decoded
  and precomputed here);
* ``stop_at`` (a checkpoint cut) and the end of the run.

A bank's first activation goes to ``on_activation``, which creates the
mitigation's per-bank state when the scalar loop creates it (so a cut
holds the same state under either loop); a mitigation that overrides
``hot_row_tracker`` is then asked for the bank's tracker, and the bank
runs it in C from the next activation on (DESIGN.md §9). C trackers
are loaded from their Python trackers when a bank's first
activation arms it and after each window's callbacks, and written back
before the callbacks and on return; in between, a swap asks C for
membership (``on_hot_row``'s ``tracked``). :func:`replay_hot_rows`
drives one bank's C tracker the same way outside the loop (Figure 5).

All loop state lives in numpy arrays shared with C; the Python side writes
mitigation actions straight into them. Every double operation keeps
the oracle's order and ``max`` tie-breaks, and the library is built
with ``-O2 -ffp-contract=off`` (no fused multiply-add, no fast math),
so results are bit-identical to the scalar loop.

Why one request at a time: the DDR recurrence
``start_i = max(floor_i, ready_{i-1})`` followed by a chain of adds
cannot be reassociated in floating point, an ACT can fire actions that
rewrite the state a lookahead would have read, and ROB feedback makes
request k+1's issue time depend on request k's completion.

Build and cache: the shared object is compiled on the first
:func:`load` (never at import), named by a hash of the source and the
flags, cached under this package's ``__pycache__`` (or the temp
directory when that is read-only) and renamed into place atomically,
so parallel sweep workers never see a partial file. With no C
compiler or a failed build, :func:`load` returns None and
``SystemSimulator`` takes ``_run_scalar``: slower, same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import tempfile
import warnings
from collections import deque
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from repro.mitigations.base import Mitigation

__all__ = ["load", "replay_hot_rows", "run_block_loop"]

SOURCE = Path(__file__).with_name("block_loop.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

# Slot layout of block_loop.c (the enums at its top).
(I_NB, I_ROWS, I_PRE_DELAY, I_ROUTE_CALL, I_RCAP, I_STOP,
 I_SERVICED, I_BURSTS, I_PHASE, I_HEAP_N, I_CUR_CORE, I_CORE, I_IDX,
 I_INST, I_WRITE, I_ROW, I_BANK, I_PROW, I_IN, I_TRK_CAP, I_TRK_MASK,
 I_MITIGATES, I_COUNT) = range(23)
(D_LOOKUP, D_TCAS, D_TRCD, D_TRP, D_TRC, D_TRAS, D_LINE, D_TREFI,
 D_TRFC, D_WINDOW, D_NEXT_REFI, D_NEXT_WINDOW, D_DUE, D_CUR_T,
 D_ARRIVAL, D_FLOOR, D_COMPLETION, D_IN, D_COUNT) = range(19)
(P_I, P_D, P_OPEN_ROW, P_LAST_ACT, P_READY, P_CHAN, P_TOTAL, P_RT_MASK,
 P_RT_PTR, P_BUS, P_ST_I, P_ST_D, P_CH_TABLES, P_TIME, P_INST, P_RETIRED,
 P_ROB, P_IDX, P_LEN, P_WRITES, P_ROWS, P_FLATS, P_DELTAS, P_INST_AFTER,
 P_ROB_IDX, P_ROB_CMP, P_ROB_HEAD, P_ROB_N, P_HEAP_T, P_HEAP_C, P_TRK,
 P_TRK_SLOTS, P_TRK_TABLE, P_TRK_HEAP, P_COUNT) = range(35)
(EV_DONE, EV_STOP, EV_WINDOW, EV_ROUTE, EV_DELAY, EV_ACT, EV_BLOCK,
 EV_BAD_ROW) = range(8)
# Per-bank tracker fields (rows of the P_TRK array).
T_THRESH, T_ENTRIES, T_LIVE, T_SPILL, T_HEAP, T_N = range(6)
# Per-channel stats columns: int64 (reads, writes, activations,
# row-buffer hits) and double (swap-blocked, throttle, latency ns).
S_N, S_D = 4, 3

_UNRESOLVED = object()
_library = _UNRESOLVED


def load():
    """The compiled loop library, built on first use; None when this
    host cannot build or load it (the simulator then runs the scalar
    loop)."""
    global _library
    if _library is _UNRESOLVED:
        import subprocess

        try:
            _library = _build_and_load()
        except (OSError, subprocess.SubprocessError) as exc:
            warnings.warn(
                f"compiled block loop unavailable ({exc}); running the "
                "slower scalar loop",
                RuntimeWarning,
                stacklevel=2,
            )
            _library = None
    return _library


def _build_and_load():
    source = SOURCE.read_bytes()
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    digest = hashlib.sha256(
        source + " ".join(CFLAGS).encode() + platform.machine().encode()
    ).hexdigest()[:16]
    name = f"block_loop-{digest}.so"
    for directory in (
        SOURCE.parent / "__pycache__",
        Path(tempfile.gettempdir()) / "repro-kernel",
    ):
        path = _compiled(compiler, directory, name)
        if path is not None:
            break
    else:
        raise OSError("no writable directory for the compiled block loop")
    library = ctypes.CDLL(str(path))
    library.rk_layout.restype = ctypes.c_int64
    library.rk_layout.argtypes = (ctypes.c_int64,)
    layout = [library.rk_layout(which) for which in range(3)]
    if layout != [I_COUNT, D_COUNT, P_COUNT]:
        raise OSError(f"{path.name}: slot layout {layout} does not match")
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for name, restype, *argtypes in (
        ("rk_run", i64, ptr),
        ("rk_route_build", None, ptr, i64, ptr, ptr, i64),
        ("rk_route_put", None, ptr, i64, i64, i64),
        ("rk_route_get", i64, ptr, i64, i64),
        ("rk_tracker_sync", None, ptr, i64),
        ("rk_tracker_stream", i64, ptr, i64, ptr, i64, i64),
        ("rk_tracker_contains", i64, ptr, i64, i64),
    ):
        function = getattr(library, name)
        function.restype = restype
        function.argtypes = argtypes
    return library


def _compiled(compiler: str, directory: Path, name: str) -> Optional[Path]:
    """The cached shared object in ``directory``, compiling it if absent
    (into a temporary name, then renamed into place); None when the
    directory cannot be written."""
    import subprocess

    path = directory / name
    if path.exists():
        return path
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(prefix=name + ".", dir=directory)
    except OSError:
        return None
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *CFLAGS, "-o", scratch, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if done.returncode != 0:
            raise OSError(f"{compiler} failed: {done.stderr.strip()[:500]}")
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return path


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


class RouteTables:
    """C copies of per-bank route tables (``Mitigation.route_table``),
    indexed by flat bank: open addressing over ``(row, physical)``
    pairs, at most half full; ``mask`` -1 routes the bank as identity."""

    def __init__(self, lib, n_banks: int) -> None:
        self.lib = lib
        self.mask = np.full(n_banks, -1, np.int64)
        self.ptr = np.zeros(n_banks, np.uint64)
        self.arrays: list = [None] * n_banks

    def build(self, gfb: int, forward) -> None:
        """Mirror the whole table."""
        if not forward:
            self.mask[gfb] = -1
            return
        n = len(forward)
        table = self.arrays[gfb]
        if table is None or len(table) <= 4 * n:
            table = self.arrays[gfb] = np.empty(4 << (2 * n).bit_length(), np.int64)
            self.ptr[gfb] = _address(table)
        keys = np.fromiter(forward.keys(), np.int64, n)
        values = np.fromiter(forward.values(), np.int64, n)
        self.mask[gfb] = mask = len(table) // 2 - 1
        self.lib.rk_route_build(
            _address(table), mask, _address(keys), _address(values), n
        )

    def update(self, gfb: int, forward, swaps) -> None:
        """Re-mirror the rows whose routes an action's ``swaps`` (pairs
        of physical rows whose contents moved) changed: each such row
        now lives at one of those physical rows, and ``forward`` is a
        permutation, so walking the cycle through a physical row finds
        the logical row resident there."""
        mask = int(self.mask[gfb])
        if mask < 0 or 2 * len(forward) > mask:
            self.build(gfb, forward)
            return
        table = int(self.ptr[gfb])
        put = self.lib.rk_route_put
        for pair in swaps:
            for physical in pair:
                row = physical
                while (step := forward.get(row, row)) != physical:
                    row = step
                put(table, mask, row, physical)


class HotRowTrackers:  # repro-check: STA001 -- loop-local mirror, written back before every return
    """C copies of per-bank ``ArrayMisraGries`` trackers, indexed by
    flat bank (DESIGN.md §12.1): per bank the ``T_*`` fields, (row,
    count) slots, a row -> slot table and the eviction heap.

    ``load`` copies a Python tracker in (``snapshot_state``), ``store``
    writes it back (``restore_state``), ``add`` hands over one more
    bank's tracker and ``contains`` is the C tracker's membership test.
    The arrays' pointer-table slots and scalars live in this object's
    own ``P``/``I``, which the block loop copies into its tables
    (``share``)."""

    SLOTS = (P_TRK, P_TRK_SLOTS, P_TRK_TABLE, P_TRK_HEAP)

    def __init__(self, lib, trackers: list) -> None:
        """``trackers[gfb]``: a ``(tracker, threshold)`` pair, or None
        for a bank the loop does not track (yet)."""
        self.lib = lib
        self.trackers = [None] * len(trackers)
        self.banks: list = []
        self.I = np.zeros(I_COUNT, np.int64)
        self.P = np.zeros(P_COUNT, np.uint64)
        self.P[P_I] = _address(self.I)
        self._table = ctypes.c_void_p(_address(self.P))
        self.meta = np.zeros(len(trackers) * T_N, np.int64)
        self.P[P_TRK] = _address(self.meta)
        self._meta = memoryview(self.meta)
        self._allocate(max(
            (pair[0].entries for pair in trackers if pair), default=1
        ))
        for gfb, pair in enumerate(trackers):
            if pair:
                self.add(gfb, pair)

    def _allocate(self, cap: int) -> None:
        """Slots, tables and heaps for ``cap`` entries per bank."""
        n_banks = len(self.trackers)
        self.cap = cap
        self.mask = (1 << (2 * cap).bit_length()) - 1
        self.I[[I_TRK_CAP, I_TRK_MASK]] = (cap, self.mask)
        self.slots = np.zeros(n_banks * 2 * cap, np.int64)
        self.table = np.full(n_banks * (self.mask + 1), -1, np.int64)
        self.heap = np.zeros(n_banks * 2 * cap, np.int64)
        for slot, array in zip(self.SLOTS[1:], (self.slots, self.table, self.heap)):
            self.P[slot] = _address(array)

    def add(self, gfb: int, pair) -> None:
        """Track bank ``gfb`` with ``pair = (tracker, threshold)`` from
        now on, loading the tracker; a larger tracker than any before
        re-allocates (the other banks are written back and reloaded)."""
        tracker, threshold = pair
        if tracker.entries > self.cap:
            for bank in self.banks:
                self.store(bank)
            self._allocate(tracker.entries)
            for bank in self.banks:
                self.load(bank)
        self.trackers[gfb] = pair
        self.banks.append(gfb)
        self._meta[gfb * T_N + T_THRESH] = threshold
        self._meta[gfb * T_N + T_ENTRIES] = tracker.entries
        self.load(gfb)

    def share(self, P: np.ndarray, I: np.ndarray) -> None:
        """Point another pointer table at these arrays."""
        for slot in self.SLOTS:
            P[slot] = self.P[slot]
        I[I_TRK_CAP] = self.cap
        I[I_TRK_MASK] = self.mask

    def load(self, gfb: int) -> None:
        tracker = self.trackers[gfb][0]
        spill, rows, counts, heap_built = tracker.snapshot_state()
        n = len(rows)
        if not n == len(counts) <= tracker.entries:
            # A restored checkpoint could carry any lists; C must never
            # index past the bank's slots.
            raise ValueError(
                f"tracker of bank {gfb}: {n} rows and {len(counts)} counts "
                f"for {tracker.entries} entries"
            )
        base = gfb * T_N
        self._meta[base + T_LIVE] = n
        self._meta[base + T_SPILL] = spill
        self._meta[base + T_HEAP] = int(heap_built)
        offset = gfb * 2 * self.cap
        self.slots[offset:offset + 2 * n:2] = rows
        self.slots[offset + 1:offset + 2 * n:2] = counts
        self.lib.rk_tracker_sync(self._table, gfb)

    def snapshot(self, gfb: int) -> tuple:
        """The C tracker as ``ArrayMisraGries.snapshot_state`` would
        give it."""
        base = gfb * T_N
        offset = gfb * 2 * self.cap
        pairs = self.slots[offset:offset + 2 * self._meta[base + T_LIVE]]
        return (
            self._meta[base + T_SPILL],
            pairs[0::2].tolist(),
            pairs[1::2].tolist(),
            bool(self._meta[base + T_HEAP]),
        )

    def store(self, gfb: int) -> None:
        self.trackers[gfb][0].restore_state(self.snapshot(gfb))

    def contains(self, gfb: int):
        """``row -> bool``: whether the bank's C tracker holds ``row``."""
        return partial(self.lib.rk_tracker_contains, self._table, gfb)


# repro-oracle: hot-row-replay -- oracle
def replay_activations(mitigation, bank_key, rows) -> None:
    """One ``on_activation`` per logical row of ``rows``, at time 0."""
    for row in rows.tolist():
        mitigation.on_activation(bank_key, row, mitigation.route(bank_key, row), 0.0)


# repro-oracle: hot-row-replay -- kernel
def replay_hot_rows(mitigation, bank_key, rows) -> None:
    """:func:`replay_activations` for one window of one bank, with the
    bank's hot-row tracker in C: Python runs only at each hot row
    (``on_hot_row``). Falls back to the oracle when the library or the
    tracker (``hot_row_tracker``) is unavailable."""
    rows = np.ascontiguousarray(rows, np.int64)
    n = len(rows)
    lib = load()
    pair = mitigation.hot_row_tracker(bank_key) if lib is not None and n else None
    if pair is None:
        replay_activations(mitigation, bank_key, rows)
        return
    hot = HotRowTrackers(lib, [pair])
    tracked, address, start = hot.contains(0), _address(rows), -1
    while (start := lib.rk_tracker_stream(hot._table, 0, address, start + 1, n)) < n:
        mitigation.on_hot_row(bank_key, int(rows[start]), 0.0, tracked)
    hot.store(0)


# repro-oracle: system-loop -- kernel
def run_block_loop(sim, cores, stop_at: int = -1) -> int:
    """Run ``sim`` over columnar ``cores`` on the compiled loop.

    Bit-identical to ``SystemSimulator._run_scalar`` (the oracle).
    Eligibility (compiled library present, unobserved open-page banks
    without fault models, no postponed refresh) is
    decided by ``SystemSimulator._block_loop_eligible``. Returns the
    requests serviced, stopping at ``stop_at`` (-1: never) with every
    live object written back as the oracle leaves it between two
    requests, so a cut can be taken and either loop re-entered.
    """
    lib = load()
    config = sim.config.dram
    mitigation = sim.mitigation
    channels = sim.channels
    controllers = sim.controllers
    refresh = sim.refresh
    mapper = sim.mapper

    key_table = mapper.bank_key_table
    n_banks = len(key_table)
    n_channels = len(channels)
    bank_objs = [channels[ch].bank(rank, bank) for ch, rank, bank in key_table]
    chan_of = [ch for ch, _, _ in key_table]

    I = np.zeros(I_COUNT, np.int64)
    D = np.zeros(D_COUNT, np.float64)
    P = np.zeros(P_COUNT, np.uint64)
    iv = memoryview(I)
    dv = memoryview(D)
    keep = []  # every array C points into stays referenced here

    def point(slot: int, array: np.ndarray) -> np.ndarray:
        keep.append(array)
        P[slot] = _address(array)
        return array

    point(P_I, I)
    point(P_D, D)

    # ---- banks ----
    timing = [bank.timing.snapshot_state() for bank in bank_objs]
    open_row = point(P_OPEN_ROW, np.array([t[0] for t in timing], np.int64))
    last_act = point(P_LAST_ACT, np.array([t[1] for t in timing], np.float64))
    ready = point(P_READY, np.array([t[2] for t in timing], np.float64))
    ready_v = memoryview(ready)
    point(P_CHAN, np.array(chan_of, np.int64))
    total = point(
        P_TOTAL, np.array([b.total_activations for b in bank_objs], np.int64)
    )

    # ---- mitigation hand-off: trackers, route tables ----
    c0 = controllers[0]
    route = mitigation.route
    pre_delay = mitigation.pre_activate_delay_ns
    on_act = mitigation.on_activation
    on_hot_row = mitigation.on_hot_row
    # A mitigation that publishes per-bank route tables (RRS's RIT
    # forward dicts) is routed by C's hash-table mirror of them; any
    # other routing mitigation gets an EV_ROUTE call per access.
    has_tables = type(mitigation).route_table is not Mitigation.route_table
    # A bank's first activation in this call goes to ``on_activation``
    # and then arms the bank: when the mitigation hands over the bank's
    # hot-row tracker, the bank runs it in C from then on. Arming at the
    # first activation creates the mitigation's per-bank state when the
    # scalar loop creates it, so a cut holds the same state under
    # either loop.
    hands_over = type(mitigation).hot_row_tracker is not Mitigation.hot_row_tracker
    unarmed = [hands_over] * n_banks
    hot = HotRowTrackers(lib, [None] * n_banks)
    keep.append(hot)
    hot.share(P, I)
    routes = RouteTables(lib, n_banks)
    point(P_RT_MASK, routes.mask)
    point(P_RT_PTR, routes.ptr)
    keep.append(routes)
    point(P_CH_TABLES, np.full(n_channels, has_tables, np.int64))

    def arm(gfb: int) -> None:
        unarmed[gfb] = False
        pair = mitigation.hot_row_tracker(key_table[gfb])
        if pair is not None:
            hot.add(gfb, pair)
            hot.share(P, I)

    def trackers_from_py() -> None:
        for gfb in hot.banks:
            hot.load(gfb)

    def trackers_to_py() -> None:
        for gfb in hot.banks:
            hot.store(gfb)

    def sync_all_routes() -> None:
        if has_tables:
            for gfb in range(n_banks):
                routes.build(gfb, mitigation.route_table(key_table[gfb]))

    sync_all_routes()

    # ---- channels ----
    bus = point(P_BUS, np.array([c.bus_free_ns for c in channels], np.float64))
    bus_v = memoryview(bus)
    stats = [c.stats for c in controllers]
    st_i = point(P_ST_I, np.array(
        [(s.reads, s.writes, s.activations, s.row_buffer_hits) for s in stats],
        np.int64,
    ).ravel())
    st_d = point(P_ST_D, np.array(
        [(s.swap_blocked_ns, s.throttle_delay_ns, s.total_latency_ns) for s in stats],
        np.float64,
    ).ravel())
    st_d_v = memoryview(st_d)
    victims = [s.victim_refreshes for s in stats]
    swaps = [s.swaps for s in stats]
    rows_per_bank = config.rows_per_bank
    t_rc = config.t_rc
    banks_of_channel = [
        [fb for fb in range(n_banks) if chan_of[fb] == ch]
        for ch in range(n_channels)
    ]

    def apply_action(action, gfb: int, now_ns: float) -> None:
        # MemoryController._apply on the shared arrays (compiled runs
        # have no fault model, sanitizer or observer to notify).
        ch = chan_of[gfb]
        refresh_rows = action.refresh_rows
        if refresh_rows:
            bank = bank_objs[gfb]
            for victim_row in refresh_rows:
                if 0 <= victim_row < rows_per_bank:
                    bank.refresh_row(victim_row)
                    victims[ch] += 1
            end = now_ns + len(refresh_rows) * t_rc
            if ready_v[gfb] < end:
                ready_v[gfb] = end
        if action.swaps:
            swaps[ch] += len(action.swaps)
        if action.channel_block_ns > 0.0:
            st_d_v[ch * S_D] += action.channel_block_ns
            bus_free = bus_v[ch]
            end = (now_ns if now_ns >= bus_free else bus_free) + action.channel_block_ns
            bus_v[ch] = end
            for fb in banks_of_channel[ch]:
                if ready_v[fb] < end:
                    ready_v[fb] = end

    # ---- cores ----
    n_cores = len(cores)
    # Issue times first: computing one pops satisfied ROB entries.
    pending = sorted(
        (core.next_issue_time(), core_id)
        for core_id, core in enumerate(cores)
        if core._has_pending
    )
    rob_capacity = 2 + max(
        core._rob_size + len(core._outstanding) for core in cores
    ) if cores else 2
    c_time = point(P_TIME, np.array([c.time_ns for c in cores], np.float64))
    c_inst = point(P_INST, np.array([c._inst_issued for c in cores], np.int64))
    c_retired = point(
        P_RETIRED, np.array([c.instructions_retired for c in cores], np.int64)
    )
    point(P_ROB, np.array([c._rob_size for c in cores], np.int64))
    c_idx = point(P_IDX, np.array([c._idx for c in cores], np.int64))
    c_len = point(P_LEN, np.zeros(n_cores, np.int64))
    col_ptrs = {
        slot: point(slot, np.zeros(n_cores, np.uint64))
        for slot in (P_WRITES, P_ROWS, P_FLATS, P_DELTAS, P_INST_AFTER)
    }
    rob_idx = point(P_ROB_IDX, np.zeros(n_cores * rob_capacity, np.int64))
    rob_cmp = point(P_ROB_CMP, np.zeros(n_cores * rob_capacity, np.float64))
    rob_head = point(P_ROB_HEAD, np.zeros(n_cores, np.int64))
    rob_n = point(P_ROB_N, np.zeros(n_cores, np.int64))
    block_refs: list = [None] * n_cores

    def adopt(core_id: int, block, inst_issued: int, first: int) -> None:
        """Issue-time precompute for a core's block, rebased so record
        ``first`` (the pending one, mid-block after a cut) continues
        from ``inst_issued``. ``(gap / retire_width) * cycle_ns`` and
        the instruction cumsum are elementwise IEEE-754 operations, so
        they equal the scalar per-record expressions exactly."""
        core = cores[core_id]
        gaps = block["gap"]
        steps = np.cumsum(gaps.astype(np.int64) + 1)
        if first:
            inst_issued -= int(steps[first - 1])
        columns = mapper.decode_batch(block["address"])
        arrays = {
            P_WRITES: block["is_write"].astype(np.uint8),
            P_ROWS: np.ascontiguousarray(columns.row, np.int64),
            P_FLATS: np.ascontiguousarray(columns.flat_bank, np.int64),
            P_DELTAS: (gaps / core._retire_width) * core._cycle_ns,
            P_INST_AFTER: inst_issued + steps,
        }
        block_refs[core_id] = arrays
        for slot, array in arrays.items():
            col_ptrs[slot][core_id] = _address(array)
        c_len[core_id] = len(block)

    for core_id, core in enumerate(cores):
        outstanding = core._outstanding
        for k, (index, completion) in enumerate(outstanding):
            rob_idx[core_id * rob_capacity + k] = index
            rob_cmp[core_id * rob_capacity + k] = completion
        rob_n[core_id] = len(outstanding)
        if core._has_pending:
            adopt(core_id, core._block, core._inst_issued, core._idx)

    heap_t = point(P_HEAP_T, np.zeros(max(n_cores, 1), np.float64))
    heap_c = point(P_HEAP_C, np.zeros(max(n_cores, 1), np.int64))
    # A sorted list is a valid heap; the first entry is served next.
    for k, (issue_at, core_id) in enumerate(pending[1:]):
        heap_t[k] = issue_at
        heap_c[k] = core_id
    I[I_HEAP_N] = max(len(pending) - 1, 0)
    I[I_CUR_CORE] = pending[0][1] if pending else -1
    D[D_CUR_T] = pending[0][0] if pending else 0.0

    # ---- scalars ----
    I[I_NB] = n_banks
    I[I_ROWS] = rows_per_bank
    I[I_PRE_DELAY] = c0._has_pre_delay
    I[I_ROUTE_CALL] = c0._has_route
    I[I_RCAP] = rob_capacity
    I[I_STOP] = stop_at
    I[I_MITIGATES] = c0._mitigates_acts
    I[I_BANK] = -1
    D[D_LOOKUP] = c0._lookup_ns
    D[D_TCAS] = config.t_cas
    D[D_TRCD] = config.t_rcd
    D[D_TRP] = config.t_rp
    D[D_TRC] = t_rc
    D[D_TRAS] = config.t_ras_ns
    D[D_LINE] = c0._line_transfer_ns
    D[D_TREFI] = config.t_refi
    D[D_TRFC] = config.t_rfc
    D[D_WINDOW] = config.refresh_window_ns
    D[D_NEXT_REFI] = refresh._next_refi_ns
    D[D_NEXT_WINDOW] = refresh._next_window_ns
    D[D_DUE] = refresh.next_due_ns

    # ---- the event loop ----
    run = lib.rk_run
    table = ctypes.c_void_p(_address(P))
    while True:
        event = run(table)
        if event == EV_ACT:
            gfb = iv[I_BANK]
            now = dv[D_COMPLETION]
            key = key_table[gfb]
            if hot.trackers[gfb] is not None:
                action = on_hot_row(key, iv[I_ROW], now, hot.contains(gfb))
            else:
                action = on_act(key, iv[I_ROW], iv[I_PROW], now)
                if unarmed[gfb]:
                    arm(gfb)
            if action is not None and not action.is_noop:
                apply_action(action, gfb, now)
                if has_tables and action.swaps:
                    routes.update(gfb, mitigation.route_table(key), action.swaps)
        elif event == EV_ROUTE:
            gfb = iv[I_BANK]
            iv[I_IN] = route(key_table[gfb], iv[I_ROW])
        elif event == EV_DELAY:
            gfb = iv[I_BANK]
            dv[D_IN] = float(pre_delay(key_table[gfb], iv[I_PROW], dv[D_FLOOR]))
        elif event == EV_BLOCK:
            core_id = iv[I_CORE]
            core = cores[core_id]
            block = core._pull_block()
            if block is None:
                iv[I_IN] = 0
            else:
                core._block = block
                adopt(core_id, block, iv[I_INST], 0)
                iv[I_IN] = 1
        elif event == EV_WINDOW:
            trackers_to_py()
            refresh.refresh_bursts += iv[I_BURSTS]
            iv[I_BURSTS] = 0
            completed = refresh.windows_completed
            for channel in channels:
                channel.end_window()
            for callback in refresh.window_callbacks:
                callback(completed)
            refresh.windows_completed = completed + 1
            sync_all_routes()
            trackers_from_py()
        elif event == EV_BAD_ROW:
            raise ValueError(
                f"row {iv[I_PROW]} out of range [0, {rows_per_bank})"
            )
        else:
            break

    # ---- write everything back to the live objects ----
    trackers_to_py()
    for fb, state in enumerate(
        zip(open_row.tolist(), last_act.tolist(), ready.tolist())
    ):
        bank_objs[fb].timing.restore_state(state)
    for bank, count in zip(bank_objs, total.tolist()):
        bank.total_activations = count
    counts = st_i.tolist()
    times = st_d.tolist()
    for ch, (channel, s) in enumerate(zip(channels, stats)):
        channel.bus_free_ns = bus_v[ch]
        s.reads, s.writes, s.activations, s.row_buffer_hits = (
            counts[ch * S_N:(ch + 1) * S_N]
        )
        s.swap_blocked_ns, s.throttle_delay_ns, s.total_latency_ns = (
            times[ch * S_D:(ch + 1) * S_D]
        )
        s.victim_refreshes = victims[ch]
        s.swaps = swaps[ch]
    next_refi = dv[D_NEXT_REFI]
    next_window = dv[D_NEXT_WINDOW]
    refresh._next_refi_ns = next_refi
    refresh._next_window_ns = next_window
    refresh.next_due_ns = min(next_refi, next_window)
    refresh.refresh_bursts += iv[I_BURSTS]
    # Pending cores keep their cached issue time, as in the oracle.
    queued = dict(zip(heap_c[: iv[I_HEAP_N]].tolist(), heap_t[: iv[I_HEAP_N]].tolist()))
    if iv[I_CUR_CORE] >= 0:
        queued[iv[I_CUR_CORE]] = dv[D_CUR_T]
    heads = rob_head.tolist()
    sizes = rob_n.tolist()
    for core_id, core in enumerate(cores):
        core.time_ns = float(c_time[core_id])
        core.instructions_retired = int(c_retired[core_id])
        core._inst_issued = int(c_inst[core_id])
        core._idx = idx = int(c_idx[core_id])
        if core._block is not None:
            core._pending_gap = int(core._block["gap"][idx])
        core._pending_issue_ns = queued.get(core_id)
        base = core_id * rob_capacity
        ring = [
            base + (heads[core_id] + k) % rob_capacity
            for k in range(sizes[core_id])
        ]
        core._outstanding = deque(
            zip(rob_idx[ring].tolist(), rob_cmp[ring].tolist())
        )
    return iv[I_SERVICED]
