"""Host speed reference: a fixed piece of work timed next to every sample.

The benchmark runs on shared virtual machines whose speed shifts by 30-50%
for seconds to minutes at a time, alike for the interpreter, CPython big
integers and numpy.  So every timed sample comes with readings of this
reference, taken in the same process during the work, and is reported
scaled to the speed at which the reference takes its nominal time:

    scaled = raw * NOMINAL_S / reading

A change to lrlab moves `raw` and not `reading`, so it moves the scaled
figure by the same share; a change in host speed moves both and cancels.
The reference touches none of lrlab.  A reading times one block: every few
calls of a `queries` batch, after the timed import of an import probe, and
every SAMPLE_PERIOD_S seconds of a CLI or oracle rep, from a SIGALRM
handler.  The time the readings take is left out of the sample's.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0035      # one block at nominal speed
BLOCKS = 5              # blocks in one `reading()`
SAMPLE_PERIOD_S = 0.2   # wall time between the readings of `Readings.every()`

# Scrambled by multiplicative hashing; numpy.random would add 6 MB to a
# child's peak RSS.
_INTS = np.arange(50_000, dtype=np.int64) * 2_654_435_761 % (1 << 30)
_FLOATS = _INTS / float(1 << 30)
_BIG = 3**4000 + 1


def block() -> int:
    """Interpreter loops, dict and call traffic, big-integer and numpy work."""
    acc = 0
    table = {}
    for i in range(12_000):
        acc += i * i % 7
        table[i & 255] = acc
    acc += sum(map(len, (str(i) for i in range(3_000))))
    x = _BIG
    for _ in range(20):
        x = (x * _BIG) % (_BIG + 12)
    acc += x & 0xFFFF
    acc += int(np.cumsum(_FLOATS).argmax())
    acc += int(np.sort(_INTS)[100])
    mask = np.ones(50_000, dtype=bool)
    for p in (2, 3, 5, 7, 11, 13):
        mask[p * p :: p] = False
    acc += int(np.count_nonzero(mask))
    return acc


class Readings:
    """Blocks timed among a piece of timed work, with their total wall and
    CPU time, which the work's timing leaves out."""

    def __init__(self):
        self.times: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def take(self) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        block()
        took = time.perf_counter() - start
        self.times.append(took)
        self.wall_s += took
        self.cpu_s += time.process_time() - cpu

    def median(self) -> float:
        return statistics.median(self.times)

    def every(self, period: float) -> None:
        """Take a reading every `period` seconds until `stop()`.  The handler
        runs between bytecodes, so a long numpy call delays a reading."""
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> dict:
        """Stop `every()`, take a last reading and sum the readings up."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.take()
        return {"median_s": self.median(), "wall_s": self.wall_s, "cpu_s": self.cpu_s}


def reading() -> float:
    """Median wall time of BLOCKS blocks, in seconds."""
    readings = Readings()
    for _ in range(BLOCKS):
        readings.take()
    return readings.median()


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts later, to one allowed CPU,
    so that a sample and its readings always see the same CPU's speed."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
