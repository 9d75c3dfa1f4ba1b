"""Fixed reference work that measures how fast the host is right now.

On a shared virtual machine the speed of a core drifts by tens of
percent within seconds (other tenants contend for the core's caches and
memory; wall and CPU time slow alike), so a raw timing measures the host
as much as the program. The benchmark therefore samples the host's speed
*while* each operation runs: a profiling timer interrupts the operation
every :data:`INTERVAL` CPU seconds and runs one short step of a fixed
reference kernel, timing it. An operation's time, less the steps, is
divided by the mean step time over the nominal one
(:data:`STEP_S`): both slow down together, so the ratio holds steady
while raw times move. A burst of steps just before and just after the
operation adds samples for short operations.

Each step has two halves of similar length, as the simulator's hot loops
mix interpreted Python with many small NumPy calls: shuffled dict
lookups with tuple unpacking over a 64 Ki-entry table plus method calls
along a chain of slotted objects (each step takes the next slice, so the
steps sweep the whole table), then small in-place NumPy adds, prefix
sums, searches and sorts on 256 elements. Either half alone tracked the
operations' slow-downs less well than both: the pure-Python half
under-corrects (operation times moved ~1.4x as much as it did, in log
terms) and the NumPy half over-corrects some operations. The step
allocates nothing that outlives it, so it never moves the program's peak
memory. Set-up is a cold start instead, so it is scaled by a fresh
interpreter that imports NumPy and a few standard modules
(:data:`START_COMMAND`). Neither imports the simulator, so a change to
the program cannot change them.
"""

from __future__ import annotations

import random
import signal
import sys
import time

import numpy as np

# Nominal times: normalized times are seconds on a host where a step takes
# STEP_S and the cold start START_S (a 2-vCPU Xeon VM takes 0.5-1.4 ms
# and 0.2-0.3 s as its load varies).
STEP_S = 0.001
START_S = 0.2
START_COMMAND = [sys.executable, "-c", "import numpy, json, hashlib, dataclasses, heapq"]

# CPU seconds between two steps while an operation runs (~8% of its time
# goes to steps), and steps run before and after each operation.
INTERVAL = 0.012
BURST = 30

TABLE_SIZE = 1 << 16
CHAIN_SIZE = 1 << 14
STEP_LOOKUPS = 200
STEP_LINKS = 1200
STEP_ARRAY = 256
STEP_CALLS = 40


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * 4096
    except (OSError, IndexError, ValueError):
        return 0


class _Link:
    __slots__ = ("scale", "offset", "next")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale, self.offset, self.next = scale, offset, None

    def step(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFF


class Reference:
    """The kernel's data, built once; :attr:`samples` holds step seconds."""

    def __init__(self) -> None:
        before = _resident_bytes()
        rng = random.Random(20220228)
        self.table = {key: (key, key % 7, key & 255) for key in range(TABLE_SIZE)}
        self.order = rng.sample(range(TABLE_SIZE), TABLE_SIZE)
        self.chain = [_Link(key | 1, key * 7) for key in range(CHAIN_SIZE)]
        for link, successor in zip(self.chain, rng.sample(range(CHAIN_SIZE), CHAIN_SIZE)):
            link.next = self.chain[successor]
        self.array = np.random.default_rng(20220228).integers(0, 1000, size=STEP_ARRAY)
        self.added = np.empty_like(self.array)
        self.summed = np.empty_like(self.array)
        self.position = 0
        self.samples: list = []
        self.resident_bytes = max(_resident_bytes() - before, 0)

    def step(self, *_signal_args) -> None:
        """Run and time one slice of the kernel (also the timer handler)."""
        started = time.perf_counter()
        table, position, total = self.table, self.position, 0
        for key in self.order[position : position + STEP_LOOKUPS]:
            low, mod, byte = table[key]
            total += mod * byte ^ low
        link, value = self.chain[position % CHAIN_SIZE], total & 0xFFFF
        for _ in range(STEP_LINKS):
            value = link.step(value)
            link = link.next
        self.position = (position + STEP_LOOKUPS) % TABLE_SIZE
        added, summed = self.added, self.summed
        for _ in range(STEP_CALLS):
            np.add(self.array, value, out=added)
            np.cumsum(added, out=summed)
            value = int(np.searchsorted(summed, value << 4)) & 0xFFFF
            added.sort()
        self.samples.append(time.perf_counter() - started)

    def burst(self) -> list:
        """Run :data:`BURST` steps now; their seconds."""
        self.samples = []
        for _ in range(BURST):
            self.step()
        return self.samples

    def sampling(self) -> "_Sampling":
        """Context that runs steps on a timer; :attr:`samples` holds them."""
        return _Sampling(self)


def speed(samples) -> float:
    """Mean step seconds over the nominal ones (above 1: the host is slow)."""
    return sum(samples) / len(samples) / STEP_S


class _Sampling:
    def __init__(self, reference: Reference) -> None:
        self.reference = reference

    def __enter__(self) -> Reference:
        self.reference.samples = []
        self.previous = signal.signal(signal.SIGPROF, self.reference.step)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self.reference

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.previous)
