/*
 * Compiled per-request recurrence of the block-level system loop
 * (DESIGN.md section 12; driven by repro/mem/block_kernel.py).
 *
 * rk_run() serves requests until it needs Python, then returns an
 * event code; block_kernel.py handles the event and calls rk_run() again,
 * which resumes exactly where it stopped. All state lives in arrays
 * the Python side owns (numpy buffers), addressed through one table of
 * pointers, so a return and a re-entry lose nothing.
 *
 * On banks whose mitigation hands over its hot-row tracker (RRS's and
 * Graphene's ArrayMisraGries), the tracker itself runs here too: C
 * observes the logical row of every activation and returns only when
 * an estimate lands on a non-zero multiple of the threshold (a swap or
 * a refresh). It keeps the Python tracker's rules and victims in a
 * cache-sized layout: int32 slots and row table, and a min-count bitmap
 * in place of the eviction heap. On every other bank of a mitigation
 * that observes activations (I_MITIGATES), each activation returns to
 * Python.
 *
 * Bit-identity with SystemSimulator._run_scalar: every double
 * operation runs in the oracle's order, every max() is the oracle's
 * explicit comparison (same tie-break), and the build uses
 * -ffp-contract=off (no fused multiply-add) without -ffast-math.
 */
#include <stdint.h>

/* int64 scalars: configuration, loop cursors, the request in flight. */
enum {
    I_NB, I_ROWS, I_PRE_DELAY, I_ROUTE_CALL, I_RCAP, I_STOP,
    I_SERVICED, I_BURSTS, I_PHASE, I_HEAP_N, I_CUR_CORE, I_CORE, I_IDX,
    I_INST, I_WRITE, I_ROW, I_BANK, I_PROW, I_IN, I_TRK_CAP, I_TRK_MASK,
    I_MITIGATES, I_COUNT
};

/* double scalars: timing constants, refresh cursors, request times. */
enum {
    D_LOOKUP, D_TCAS, D_TRCD, D_TRP, D_TRC, D_TRAS, D_LINE, D_TREFI,
    D_TRFC, D_WINDOW, D_NEXT_REFI, D_NEXT_WINDOW, D_DUE, D_CUR_T,
    D_ARRIVAL, D_FLOOR, D_COMPLETION, D_IN, D_COUNT
};

/* Pointer table slots. Bank arrays are indexed by the mapper's flat
 * bank; channel arrays by channel; core arrays by core id. */
enum {
    P_I, P_D,
    P_OPEN_ROW, P_LAST_ACT, P_READY, P_CHAN, P_TOTAL, P_RT_MASK, P_RT_PTR,
    P_BUS, P_ST_I, P_ST_D, P_CH_TABLES,
    P_TIME, P_INST, P_RETIRED, P_ROB, P_IDX, P_LEN, P_WRITES, P_ROWS,
    P_FLATS, P_DELTAS, P_INST_AFTER, P_ROB_IDX, P_ROB_CMP, P_ROB_HEAD,
    P_ROB_N, P_HEAP_T, P_HEAP_C, P_TRK, P_TRK_SLOTS, P_TRK_TABLE,
    P_TRK_MIN, P_COUNT
};

/* Events returned to Python. */
enum {
    EV_DONE, EV_STOP, EV_WINDOW, EV_ROUTE, EV_DELAY, EV_ACT, EV_BLOCK,
    EV_BAD_ROW
};

/* Resume points. */
enum { PH_TOP, PH_WINDOW, PH_ROUTE, PH_DELAY, PH_ACT, PH_BLOCK };

/* Per-bank tracker fields (P_TRK rows); T_THRESH 0: not tracked here. */
enum { T_THRESH, T_ENTRIES, T_LIVE, T_SPILL, T_N };

/* Per-channel stats slots. */
enum { S_READS, S_WRITES, S_ACTS, S_HITS, S_N };
enum { S_THROTTLE = 1, S_LATENCY = 2, S_D = 3 };

/* Slot counts, checked by block_kernel.py against its copy of the enums. */
int64_t rk_layout(int64_t which)
{
    switch (which) {
    case 0: return I_COUNT;
    case 1: return D_COUNT;
    case 2: return P_COUNT;
    default: return -1;
    }
}

static uint64_t row_hash(int64_t row)
{
    return ((uint64_t)row * 0x9E3779B97F4A7C15ULL) >> 32;
}

/* ---- route tables: open addressing, (key, value) pairs, key -1 empty */

static int64_t route_get(const int64_t *table, int64_t mask, int64_t row)
{
    uint64_t h = row_hash(row);
    for (;;) {
        int64_t slot = (int64_t)(h & (uint64_t)mask);
        int64_t key = table[2 * slot];
        if (key == row)
            return table[2 * slot + 1];
        if (key < 0)
            return row;
        h++;
    }
}

/* Route row to physical, or drop row's pair when physical is row
 * (deletion by backward shift, as in mg_unlink). The table keeps an
 * empty slot. */
void rk_route_put(int64_t *table, int64_t mask, int64_t row, int64_t physical)
{
    const uint64_t m = (uint64_t)mask;
    uint64_t hole = row_hash(row) & m, next;
    while (table[2 * hole] >= 0 && table[2 * hole] != row)
        hole = (hole + 1) & m;
    if (physical != row) {
        table[2 * hole] = row;
        table[2 * hole + 1] = physical;
        return;
    }
    for (next = hole;;) {
        next = (next + 1) & m;
        int64_t key = table[2 * next];
        if (key < 0)
            break;
        uint64_t home = row_hash(key) & m;
        if (hole <= next ? (hole < home && home <= next)
                         : (hole < home || home <= next))
            continue;
        table[2 * hole] = key;
        table[2 * hole + 1] = table[2 * next + 1];
        hole = next;
    }
    table[2 * hole] = -1;
}

/* Fill a table of mask + 1 slots (mask + 1 > n) from n pairs. */
void rk_route_build(int64_t *table, int64_t mask, const int64_t *keys,
                    const int64_t *values, int64_t n)
{
    for (int64_t i = 0; i <= mask; i++)
        table[2 * i] = -1;
    for (int64_t i = 0; i < n; i++)
        rk_route_put(table, mask, keys[i], values[i]);
}

/* One lookup outside the loop (the route-table property tests). */
int64_t rk_route_get(const int64_t *table, int64_t mask, int64_t row)
{
    return route_get(table, mask, row);
}

/* ---- hot-row tracker: track/array_state.py's ArrayMisraGries ----
 *
 * Per bank: T_N fields, int32 (row, count) slots, an int32 row -> slot
 * table (linear probing, -1 empty, deletion by backward shift) and the
 * min-count set that picks eviction victims: the minimum count m
 * (MIN_M), how many slots hold it (MIN_N) and a bitmap of those slots.
 * Once the table is full, m never falls: a hit raises a count, and an
 * eviction writes spill + 1 > m (it evicts only when spill >= m). So a
 * hit on a slot at m and an eviction only clear that slot's bit, the
 * lowest set bit is the oracle's victim (the lowest slot among the
 * minimum-count entries), and an emptied set is rebuilt by one scan of
 * the counts at the next full-table miss. While the set is empty m is
 * INT64_MIN, which no int32 count equals, so hits leave it alone. */

enum { MIN_M, MIN_N, MIN_BITS };

struct tracker {
    int64_t *meta, *min;
    int32_t *slots, *table;
    int64_t mask;
};

static struct tracker tracker_of(const uint64_t *P, int64_t gfb)
{
    const int64_t *I = (const int64_t *)(uintptr_t)P[P_I];
    const int64_t cap = I[I_TRK_CAP];
    struct tracker t;
    t.mask = I[I_TRK_MASK];
    t.meta = (int64_t *)(uintptr_t)P[P_TRK] + gfb * T_N;
    t.slots = (int32_t *)(uintptr_t)P[P_TRK_SLOTS] + gfb * 2 * cap;
    t.table = (int32_t *)(uintptr_t)P[P_TRK_TABLE] + gfb * (t.mask + 1);
    t.min = (int64_t *)(uintptr_t)P[P_TRK_MIN] + gfb * (MIN_BITS + (cap + 63) / 64);
    return t;
}

/* The table position holding row, or the empty one ending its probe. */
static int64_t mg_probe(const struct tracker *t, int64_t row)
{
    uint64_t h = row_hash(row);
    for (;;) {
        int64_t pos = (int64_t)(h & (uint64_t)t->mask);
        int32_t slot = t->table[pos];
        if (slot < 0 || t->slots[2 * slot] == row)
            return pos;
        h++;
    }
}

static void mg_unlink(const struct tracker *t, int64_t pos)
{
    const uint64_t mask = (uint64_t)t->mask;
    uint64_t hole = (uint64_t)pos, next = (uint64_t)pos;
    for (;;) {
        next = (next + 1) & mask;
        int32_t slot = t->table[next];
        if (slot < 0)
            break;
        /* An entry may fill the hole unless its home lies cyclically
         * in (hole, next]. */
        uint64_t home = row_hash(t->slots[2 * slot]) & mask;
        if (hole <= next ? (hole < home && home <= next)
                         : (hole < home || home <= next))
            continue;
        t->table[hole] = slot;
        hole = next;
    }
    t->table[hole] = -1;
}

static uint64_t *mg_min_bits(const struct tracker *t)
{
    return (uint64_t *)(t->min + MIN_BITS);
}

/* Drop slot (which holds m) from the set. */
static void mg_min_drop(const struct tracker *t, int64_t slot)
{
    mg_min_bits(t)[slot / 64] &= ~((uint64_t)1 << (slot % 64));
    if (--t->min[MIN_N] == 0)
        t->min[MIN_M] = INT64_MIN;
}

/* Rebuild the set from the counts of a full table. */
static void mg_min_scan(const struct tracker *t)
{
    const int64_t n = t->meta[T_LIVE];
    uint64_t *bits = mg_min_bits(t);
    int64_t low = t->slots[1], held = 0;
    for (int64_t slot = 1; slot < n; slot++)
        if (t->slots[2 * slot + 1] < low)
            low = t->slots[2 * slot + 1];
    for (int64_t word = 0; word < (n + 63) / 64; word++)
        bits[word] = 0;
    for (int64_t slot = 0; slot < n; slot++)
        if (t->slots[2 * slot + 1] == low) {
            bits[slot / 64] |= (uint64_t)1 << (slot % 64);
            held++;
        }
    t->min[MIN_M] = low;
    t->min[MIN_N] = held;
}

/* ArrayMisraGries.observe: the row's new estimate (0 after a spill). */
static int64_t mg_observe(const struct tracker *t, int64_t row)
{
    int64_t *meta = t->meta, *min = t->min;
    int32_t *slots = t->slots;
    int64_t pos = mg_probe(t, row);
    int64_t slot = t->table[pos], estimate;
    if (slot >= 0) {
        estimate = slots[2 * slot + 1];
        if (estimate == min[MIN_M])
            mg_min_drop(t, slot);
        slots[2 * slot + 1] = (int32_t)++estimate;
        return estimate;
    }
    estimate = meta[T_SPILL] + 1;
    if (meta[T_LIVE] < meta[T_ENTRIES]) {
        slot = meta[T_LIVE]++;
    } else {
        const uint64_t *bits = mg_min_bits(t), *word = bits;
        if (min[MIN_N] == 0)
            mg_min_scan(t);
        if (meta[T_SPILL] < min[MIN_M]) {
            meta[T_SPILL]++;
            return 0;
        }
        while (*word == 0)
            word++;
        slot = 64 * (word - bits) + __builtin_ctzll(*word);
        mg_min_drop(t, slot);
        mg_unlink(t, mg_probe(t, slots[2 * slot]));
        pos = mg_probe(t, row);
    }
    slots[2 * slot] = (int32_t)row;
    slots[2 * slot + 1] = (int32_t)estimate;
    t->table[pos] = (int32_t)slot;
    return estimate;
}

/* Index a bank's slots after Python wrote them (and its T_LIVE and
 * T_SPILL fields): rebuild the table and empty the min-count set,
 * which the next full-table miss rebuilds from the counts. */
void rk_tracker_sync(const uint64_t *P, int64_t gfb)
{
    struct tracker t = tracker_of(P, gfb);
    for (int64_t pos = 0; pos <= t.mask; pos++)
        t.table[pos] = -1;
    for (int64_t slot = 0; slot < t.meta[T_LIVE]; slot++)
        t.table[mg_probe(&t, t.slots[2 * slot])] = (int32_t)slot;
    t.min[MIN_M] = INT64_MIN;
    t.min[MIN_N] = 0;
}

/* Observe rows[start:n) in order; the index of the first activation
 * whose estimate lands on a non-zero multiple of the bank's threshold
 * (observed: the caller acts on it and resumes after it), or n. */
int64_t rk_tracker_stream(const uint64_t *P, int64_t gfb,
                          const int64_t *rows, int64_t start, int64_t n)
{
    struct tracker t = tracker_of(P, gfb);
    const int64_t threshold = t.meta[T_THRESH];
    for (; start < n; start++) {
        int64_t estimate = mg_observe(&t, rows[start]);
        if (estimate != 0 && estimate % threshold == 0)
            break;
    }
    return start;
}

/* Whether the bank's tracker holds a counter for row. */
int64_t rk_tracker_contains(const uint64_t *P, int64_t gfb, int64_t row)
{
    struct tracker t = tracker_of(P, gfb);
    return t.table[mg_probe(&t, row)] >= 0;
}

/* ---- the core heap: (issue_at, core_id) under strict tuple order ---- */

static int before(double t1, int64_t c1, double t2, int64_t c2)
{
    return t1 < t2 || (t1 == t2 && c1 < c2);
}

static void sift_down(double *ht, int64_t *hc, int64_t n, int64_t pos)
{
    double t = ht[pos];
    int64_t c = hc[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n
            && before(ht[child + 1], hc[child + 1], ht[child], hc[child]))
            child++;
        if (!before(ht[child], hc[child], t, c))
            break;
        ht[pos] = ht[child];
        hc[pos] = hc[child];
        pos = child;
    }
    ht[pos] = t;
    hc[pos] = c;
}

#define PTR(type, slot) ((type *)(uintptr_t)P[slot])
#define CORE_COL(type, slot, core) ((const type *)(uintptr_t)PTR(uint64_t, slot)[core])

int64_t rk_run(const uint64_t *P)
{
    int64_t *I = PTR(int64_t, P_I);
    double *D = PTR(double, P_D);

    int64_t *open_row = PTR(int64_t, P_OPEN_ROW);
    double *last_act = PTR(double, P_LAST_ACT);
    double *ready = PTR(double, P_READY);
    const int64_t *chan = PTR(int64_t, P_CHAN);
    int64_t *total = PTR(int64_t, P_TOTAL);
    const int64_t *rt_mask = PTR(int64_t, P_RT_MASK);
    const uint64_t *rt_ptr = PTR(uint64_t, P_RT_PTR);
    double *bus = PTR(double, P_BUS);
    int64_t *st_i = PTR(int64_t, P_ST_I);
    double *st_d = PTR(double, P_ST_D);
    const int64_t *ch_tables = PTR(int64_t, P_CH_TABLES);
    double *c_time = PTR(double, P_TIME);
    int64_t *c_inst = PTR(int64_t, P_INST);
    int64_t *c_retired = PTR(int64_t, P_RETIRED);
    const int64_t *c_rob = PTR(int64_t, P_ROB);
    int64_t *c_idx = PTR(int64_t, P_IDX);
    const int64_t *c_len = PTR(int64_t, P_LEN);
    int64_t *rob_idx = PTR(int64_t, P_ROB_IDX);
    double *rob_cmp = PTR(double, P_ROB_CMP);
    int64_t *rob_head = PTR(int64_t, P_ROB_HEAD);
    int64_t *rob_n = PTR(int64_t, P_ROB_N);
    double *heap_t = PTR(double, P_HEAP_T);
    int64_t *heap_c = PTR(int64_t, P_HEAP_C);
    const int64_t *trk = PTR(int64_t, P_TRK);

    const int64_t n_banks = I[I_NB];
    const int64_t rows_per_bank = I[I_ROWS];
    const int64_t pre_delay = I[I_PRE_DELAY];
    const int64_t route_call = I[I_ROUTE_CALL];
    const int64_t rcap = I[I_RCAP];
    const int64_t stop = I[I_STOP];
    const int64_t mitigates = I[I_MITIGATES];
    const double lookup = D[D_LOOKUP], t_cas = D[D_TCAS], t_rcd = D[D_TRCD];
    const double t_rp = D[D_TRP], t_rc = D[D_TRC], t_ras = D[D_TRAS];
    const double line = D[D_LINE], t_refi = D[D_TREFI], t_rfc = D[D_TRFC];
    const double window = D[D_WINDOW];

    double next_refi = D[D_NEXT_REFI], next_window = D[D_NEXT_WINDOW];
    double due = D[D_DUE], cur_t = D[D_CUR_T];
    int64_t serviced = I[I_SERVICED], bursts = I[I_BURSTS];
    int64_t heap_n = I[I_HEAP_N], cur_core = I[I_CUR_CORE];

    /* the request in flight */
    int64_t core = I[I_CORE], idx = I[I_IDX], inst = I[I_INST];
    int64_t is_write = I[I_WRITE], row = I[I_ROW], gfb = I[I_BANK];
    int64_t prow = I[I_PROW];
    double arrival = D[D_ARRIVAL], start_floor = D[D_FLOOR];
    double completion = D[D_COMPLETION];
    int64_t ch = gfb >= 0 ? chan[gfb] : 0;

    int64_t ev, phase = PH_TOP, nxt, orow, slot, threshold, estimate;
    double start, data, la, act_at, pre_at, floor_at, end, bus_free;
    double issue_at;
    int hit, activated, act;
    struct tracker hot;

    switch (I[I_PHASE]) {
    case PH_WINDOW: goto resume_window;
    case PH_ROUTE: prow = I[I_IN]; goto resume_route;
    case PH_DELAY: goto resume_delay;
    case PH_ACT: goto resume_act;
    case PH_BLOCK: goto resume_block;
    default: break;
    }

    for (;;) {
        if (cur_core < 0) {
            ev = EV_DONE;
            goto out;
        }
        if (serviced == stop) {
            ev = EV_STOP;
            goto out;
        }
        core = cur_core;
        arrival = cur_t;
        idx = c_idx[core];
        c_time[core] = arrival;
        inst = CORE_COL(int64_t, P_INST_AFTER, core)[idx];
        c_inst[core] = inst;
        is_write = CORE_COL(uint8_t, P_WRITES, core)[idx];
        row = CORE_COL(int64_t, P_ROWS, core)[idx];
        gfb = CORE_COL(int64_t, P_FLATS, core)[idx];

        /* refresh gate (RefreshScheduler.advance_to) */
        if (arrival >= due) {
            while (next_refi <= arrival) {
                end = next_refi + t_rfc;
                for (int64_t fb = 0; fb < n_banks; fb++)
                    if (ready[fb] < end)
                        ready[fb] = end;
                bursts++;
                next_refi += t_refi;
            }
            while (next_window <= arrival) {
                ev = EV_WINDOW;
                phase = PH_WINDOW;
                goto out;
            resume_window:
                next_window += window;
            }
            due = next_refi <= next_window ? next_refi : next_window;
        }

        /* MemoryController.service, fused */
        ch = chan[gfb];
        if (ch_tables[ch]) {
            prow = rt_mask[gfb] < 0
                ? row
                : route_get((const int64_t *)(uintptr_t)rt_ptr[gfb],
                            rt_mask[gfb], row);
        } else if (route_call) {
            ev = EV_ROUTE;
            phase = PH_ROUTE;
            goto out;
        } else {
            prow = row;
        }
    resume_route:
        start_floor = arrival + lookup;
        if (pre_delay && open_row[gfb] != prow) {
            ev = EV_DELAY;
            phase = PH_DELAY;
            goto out;
        resume_delay:
            if (D[D_IN] > 0.0) {
                st_d[ch * S_D + S_THROTTLE] += D[D_IN];
                start_floor += D[D_IN];
            }
        }
        if (prow < 0 || prow >= rows_per_bank) {
            ev = EV_BAD_ROW;
            goto out;
        }

        start = start_floor > ready[gfb] ? start_floor : ready[gfb];
        orow = open_row[gfb];
        if (orow == prow) {
            data = start + t_cas;
            ready[gfb] = data;
            hit = 1;
            activated = 0;
        } else {
            la = last_act[gfb];
            if (orow >= 0) {
                pre_at = la + t_ras;
                if (start >= pre_at)
                    pre_at = start;
                act_at = pre_at + t_rp;
                floor_at = la + t_rc;
                if (floor_at > act_at)
                    act_at = floor_at;
            } else {
                act_at = la + t_rc;
                if (start >= act_at)
                    act_at = start;
            }
            data = act_at + t_rcd + t_cas;
            open_row[gfb] = prow;
            last_act[gfb] = act_at;
            ready[gfb] = data;
            hit = 0;
            activated = 1;
            total[gfb]++;
        }

        bus_free = bus[ch];
        completion = (data >= bus_free ? data : bus_free) + line;
        bus[ch] = completion;

        st_i[ch * S_N + (is_write ? S_WRITES : S_READS)]++;
        st_d[ch * S_D + S_LATENCY] += completion - arrival;
        if (hit)
            st_i[ch * S_N + S_HITS]++;
        if (activated) {
            st_i[ch * S_N + S_ACTS]++;
            threshold = trk[gfb * T_N + T_THRESH];
            if (threshold > 0) {
                /* the bank's tracker runs here: hand over only a hot row */
                hot = tracker_of(P, gfb);
                estimate = mg_observe(&hot, row);
                act = estimate != 0 && estimate % threshold == 0;
            } else {
                act = mitigates != 0;
            }
            if (act) {
                ev = EV_ACT;
                phase = PH_ACT;
                goto out;
            }
        }
    resume_act:

        /* Core.complete + next_issue_time, fused */
        if (inst > c_retired[core])
            c_retired[core] = inst;
        if (!is_write) {
            slot = rob_head[core] + rob_n[core];
            if (slot >= rcap)
                slot -= rcap;
            rob_idx[core * rcap + slot] = inst;
            rob_cmp[core * rcap + slot] = completion;
            rob_n[core]++;
        }
        nxt = idx + 1;
        if (nxt >= c_len[core]) {
            ev = EV_BLOCK;
            phase = PH_BLOCK;
            goto out;
        resume_block:
            if (!I[I_IN]) {
                /* the core's trace is exhausted: it leaves the heap */
                serviced++;
                if (heap_n == 0) {
                    cur_core = -1;
                } else {
                    cur_t = heap_t[0];
                    cur_core = heap_c[0];
                    heap_n--;
                    if (heap_n > 0) {
                        heap_t[0] = heap_t[heap_n];
                        heap_c[0] = heap_c[heap_n];
                        sift_down(heap_t, heap_c, heap_n, 0);
                    }
                }
                continue;
            }
            nxt = 0;
        }
        c_idx[core] = nxt;
        issue_at = arrival + CORE_COL(double, P_DELTAS, core)[nxt];
        {
            const int64_t next_index = CORE_COL(int64_t, P_INST_AFTER, core)[nxt];
            const int64_t rob_size = c_rob[core];
            int64_t head = rob_head[core], count = rob_n[core];
            while (count > 0) {
                if (next_index - rob_idx[core * rcap + head] < rob_size)
                    break;
                if (rob_cmp[core * rcap + head] > issue_at)
                    issue_at = rob_cmp[core * rcap + head];
                if (++head == rcap)
                    head = 0;
                count--;
            }
            rob_head[core] = head;
            rob_n[core] = count;
        }
        serviced++;
        /* heappushpop: the served core keeps the turn while it is earliest */
        if (heap_n > 0 && before(heap_t[0], heap_c[0], issue_at, core)) {
            cur_t = heap_t[0];
            cur_core = heap_c[0];
            heap_t[0] = issue_at;
            heap_c[0] = core;
            sift_down(heap_t, heap_c, heap_n, 0);
        } else {
            cur_t = issue_at;
            cur_core = core;
        }
    }

out:
    I[I_PHASE] = phase;
    I[I_SERVICED] = serviced;
    I[I_BURSTS] = bursts;
    I[I_HEAP_N] = heap_n;
    I[I_CUR_CORE] = cur_core;
    I[I_CORE] = core;
    I[I_IDX] = idx;
    I[I_INST] = inst;
    I[I_WRITE] = is_write;
    I[I_ROW] = row;
    I[I_BANK] = gfb;
    I[I_PROW] = prow;
    D[D_NEXT_REFI] = next_refi;
    D[D_NEXT_WINDOW] = next_window;
    D[D_DUE] = due;
    D[D_CUR_T] = cur_t;
    D[D_ARRIVAL] = arrival;
    D[D_FLOOR] = start_floor;
    D[D_COMPLETION] = completion;
    return ev;
}
