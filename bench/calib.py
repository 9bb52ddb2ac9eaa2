"""Calibrated time: wall time rescaled to a fixed reference speed.

The shared virtual machines this benchmark runs on change speed for seconds
at a time: a fixed pure-Python loop reads 1.35x slower for a few seconds and
then fast again, and `engine` items read up to 1.9x slower, whatever the
benchmark does.  Process CPU time follows wall time through those swings, so
it does not help.  A 20-s run sees an arbitrary mix of fast and slow
stretches, which spread the raw wall-time figures of ten runs by 0.19-0.40
(interquartile range over median).

So every timed stretch is rescaled by a probe: a fixed pure-Python loop
(carry-less products, gcds, a small dict and a linked list; none of it qf2
code, so no change to qf2 can move it) that takes `REF_PROBE_S` at
reference speed; it takes about 0.9 ms on a 2-core Xeon VM.  A
stretch of wall time `w` during which the probe took `p` counts as
`w * REF_PROBE_S / p` calibrated seconds: the wall time the same stretch
would take on a machine where the probe takes exactly `REF_PROBE_S`.  The
probe runs between items, about every `PROBE_EVERY_S` seconds, and in a
thread every `SAMPLE_EVERY_S` (`Calibrator`), in the benchmark's process for
`kernel` and `engine` and in each CLI worker process for `cli`
(`cli_timed.py`).
"""

import statistics
import threading
import time

REF_PROBE_S = 1e-3
PROBE_EVERY_S = 0.02
SAMPLE_EVERY_S = 0.1


def _probe_work():
    """Carry-less products, gcds and a dict (the interpreter's integer and
    dispatch paths), then a linked list of small objects built and walked
    (its allocator and memory paths)."""
    acc = 0
    table = {}
    for i in range(1, 300):
        a = (i * 2654435761) & 0xFFFF | 1
        b = (i * 40503) & 0xFFF | 1
        r, x, y = 0, a, b
        while y:
            if y & 1:
                r ^= x
            x <<= 1
            y >>= 1
        while b:
            a, b = b, a % b
        table[i & 63] = (r, a, i)
        acc ^= r
    head = None
    for i in range(1500):
        head = _Node(i, (i, acc), head)
    while head is not None:
        acc ^= head.value
        head = head.next
    return acc


class _Node:
    __slots__ = ("value", "pair", "next")

    def __init__(self, value, pair, next_node):
        self.value = value
        self.pair = pair
        self.next = next_node


def probe(clock=time.perf_counter):
    """Seconds the probe loop takes now: the faster of two runs, so that an
    interrupt during one run does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = clock()
        _probe_work()
        best = min(best, clock() - t0)
    return best


def warm_up():
    """Let the interpreter specialise the probe loop before it is read."""
    for _ in range(10):
        _probe_work()


class Calibrator:
    """Calibrates stretches of work done in this thread.

    A thread reads the probe every SAMPLE_EVERY_S, so that a long item is
    read while it runs; `tick()` reads it between items once PROBE_EVERY_S
    has passed since the last reading, and `flush()` reads it at once.
    `add(times, wall)` after an item appends a placeholder to `times`, which
    the next reading between items fills with the calibrated time: the
    item's wall time times the mean of REF_PROBE_S / reading over the
    readings from the one before the item to the one after it.  Readings
    are timed in thread CPU time, so a reading does not count the time its
    thread waits for the interpreter lock or a core.
    """

    def __init__(self):
        warm_up()
        self._lock = threading.Lock()
        self._factors = []
        self._pending = []
        self._stop = threading.Event()
        self._last = self._read()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _read(self):
        factor = REF_PROBE_S / probe(time.thread_time)
        with self._lock:
            self._factors.append(factor)
        return time.perf_counter()

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._read()

    def tick(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.flush()

    def add(self, times, wall):
        times.append(None)
        self._pending.append((times, len(times) - 1, wall))

    def flush(self):
        self._last = self._read()
        with self._lock:
            factors, self._factors = self._factors, self._factors[-1:]
        scale = statistics.fmean(factors)
        for times, i, wall in self._pending:
            times[i] = wall * scale
        self._pending.clear()

    def close(self):
        """Stop the thread; fills what is pending first."""
        self.flush()
        self._stop.set()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def settled_scale():
    """A scale factor for one stretch that has just ended: REF_PROBE_S over
    the median of three probe readings."""
    warm_up()
    return REF_PROBE_S / statistics.median(probe() for _ in range(3))
