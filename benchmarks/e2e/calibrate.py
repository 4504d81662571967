"""Host-speed calibration: report times at a reference host speed.

On a shared host the same work runs 15-35 % slower for seconds to minutes
at a time, and the fresh repeats of one run mostly see the same slowdown,
so medians over repeats cannot cancel it.  A 30-minute watch of steady
supersteps on this host showed what kind of slowdown it is: a tight
arithmetic loop barely notices it (1.06 while supersteps read 1.35), random
reads over tables far larger than the L2 cache notice it fully — the
neighbours contend for the memory system, not for the core.

So a fixed kernel of such reads runs just before and just after every step,
outside the step's timer.  Reference kernel time over measured kernel time,
damped by :data:`WORKLOAD_SENSITIVITY`, is the host's speed around that
step, and the step's duration is scaled by it; everything else a repeat
measures is scaled by the repeat's effective speed (scaled step time over
raw step time).  Over the ~100 full-size repeats collected while this was
built (host speeds 0.43-1.12, raw ``run_s`` differing by up to 2x on one
workload) the spread of ``run_s`` (IQR over median) was 0.18-0.33 raw and
0.05 scaled, on every workload.

All ledger times therefore read "seconds at reference host speed";
``host.speed`` says what the factor was, so ``value / host.speed`` is the
raw wall-clock of that repeat.  The kernel's tables add ~26 MiB to every
workload's ``peak_rss_mb``.
"""

import functools
from time import perf_counter

# Median duration of :func:`spin` on a quiet 2-core container of the kind
# the committed baseline was measured on (CPython 3.11).  Only ratios
# between ledgers matter, so the constant is never re-tuned.
REFERENCE_SPIN_S = 0.0300

# How much of the kernel's slowdown the workloads share.  The kernel is all
# cache misses; the workloads also compute.  Fitting log(raw run_s) against
# log(kernel speed) over those repeats gave 0.83, 0.86, 0.85 and 0.86 for
# the four workloads, so one exponent serves them all.
WORKLOAD_SENSITIVITY = 0.85

# Spin at most this often: a ~30 ms kernel after every ~0.3 s superstep is
# a few percent of the run; after every 1 ms smoke-size step it would be
# the run.
_MIN_GAP_S = 0.2

_TABLE_SIZE = 1 << 19   # float objects: 4 MiB of slots + 12 MiB of objects
_INDEX_SIZE = 1 << 18   # dict entries: ~10 MiB of hash table
_TABLE_READS = 100_000
_INDEX_READS = 60_000


def _scattered(count, modulus):
    """``count`` indices below ``modulus`` in a fixed pseudo-random order (a
    linear congruential walk: the same reads on every host, every run)."""
    indices = []
    state = 12345
    for _ in range(count):
        state = (state * 1103515245 + 12345) % 2147483648
        indices.append((state >> 8) % modulus)  # an LCG's low bits cycle
    return tuple(indices)


@functools.cache
def _tables():
    """The kernel's read targets, built once per process: a tuple of
    distinct float objects and a dict over the first half of them, both
    several times the L2 cache, plus the scattered read orders.

    A tuple of floats and an int-to-float dict hold nothing the cyclic
    garbage collector tracks, so it stops visiting them: the tables do not
    lengthen the program's collections.
    """
    table = tuple(float(i) for i in range(_TABLE_SIZE))
    index = dict(enumerate(table[:_INDEX_SIZE]))
    return (
        table, _scattered(_TABLE_READS, _TABLE_SIZE),
        index, _scattered(_INDEX_READS, _INDEX_SIZE),
    )


def spin():
    """The calibration kernel: scattered tuple reads, then scattered dict
    lookups, each dereferencing a float object; returns its own duration."""
    table, order, index, keys = _tables()
    started = perf_counter()
    total = 0.0
    for i in order:
        total += table[i]
    for key in keys:
        total += index[key]
    return perf_counter() - started


class HostClock:
    """Times the steps of one repeat, each between two speed samples."""

    def __init__(self):
        self.raw_seconds = 0.0      # wall-clock inside timed calls
        self.scaled_seconds = 0.0   # the same, at reference host speed
        self._spin = None
        self._last = float("-inf")

    def _current_spin(self):
        """The kernel's duration right now (re-measured when stale)."""
        if perf_counter() - self._last >= _MIN_GAP_S:
            self._spin = spin()
            self._last = perf_counter()
        return self._spin

    def timed(self, function, *args):
        """Call ``function(*args)``; returns ``(result, raw seconds,
        seconds at reference speed)``.  The kernel runs outside the timer.
        """
        before = self._current_spin()
        started = perf_counter()
        result = function(*args)
        raw = perf_counter() - started
        after = self._current_spin()
        kernel_speed = 2.0 * REFERENCE_SPIN_S / (before + after)
        scaled = raw * kernel_speed ** WORKLOAD_SENSITIVITY
        self.raw_seconds += raw
        self.scaled_seconds += scaled
        return result, raw, scaled

    def speed(self):
        """This repeat's effective host speed: 1.0 = the reference host,
        0.7 = its steps ran 30 % slower than they would there."""
        return self.scaled_seconds / self.raw_seconds


# Units a slower host inflates, and units it deflates.
TIME_UNITS = frozenset({"s", "ms", "us"})
RATE_UNITS = frozenset({"1/s", "MB/s"})


def to_reference_speed(value, unit, speed):
    """``value`` as it would read on the reference host."""
    if unit in TIME_UNITS:
        return value * speed
    if unit in RATE_UNITS:
        return value / speed
    return value
