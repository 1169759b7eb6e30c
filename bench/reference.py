"""Host-speed reference: a fixed pure-Python loop timed alongside the ops.

The shared host this benchmark was written on switches between a fast and a
slow state for seconds to minutes at a time; in the slow state an op takes
up to 2x as long, and CPU time drifts the same way, so neither wall nor CPU
time of one run is comparable with another's.  A loop made of the same kind
of interpreter work as the program (frozen dataclasses, enum lookups by
value, dict stores, string formatting) slows down by about the same factor,
and it is code of the benchmark, so no change to the program moves it.

Every time the benchmark reports is rescaled by :func:`factor` of the
loop's duration measured at about the same moment: it reads as the time on
a host on which the loop takes ``REFERENCE_MS``.  The summary lines also
print the unscaled wall figures.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

# Duration of one reference loop on the host the benchmark was written on,
# in its fast state (CPython 3.11, 2 vCPUs).  A constant: only the ratio
# between an op and the loop is measured.
REFERENCE_MS = 1.0
# Least-squares slope of log(op time) on log(reference time) over 5 s windows
# of six minutes of interleaved runs on that host: 0.94 for `sweep` sessions,
# 1.01 for in-process `corpus` probes, 0.64 for `cli_cold` processes.
CHILD_PROCESS_EXPONENT = 0.65
_ITERATIONS = 640


class _Mark(enum.Enum):
    NONE = 0
    LOW = 1
    MID = 2
    HIGH = 3


@dataclass(frozen=True)
class _Record:
    index: int
    mark: _Mark


def reference_loop() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    table = {}
    lines = []
    for i in range(_ITERATIONS):
        record = _Record(i, _Mark(i & 3))
        table[i & 63] = record
        lines.append(f"{record.index} {record.mark.name}")
    "\n".join(lines)
    return time.perf_counter() - start


def measure() -> float:
    """Median of three passes of the reference loop, in seconds."""
    return sorted(reference_loop() for _ in range(3))[1]


def factor(reference_seconds: float, exponent: float = 1.0) -> float:
    """Multiplier that turns a wall duration, measured while the loop took
    ``reference_seconds``, into the duration on the reference host.

    ``exponent`` is how strongly the measured work follows the loop: 1 for
    in-process Python work, ``CHILD_PROCESS_EXPONENT`` for whole child
    processes, whose start-up slows down less than the loop does.
    """
    return (REFERENCE_MS / (reference_seconds * 1e3)) ** exponent


def scale(seconds: float, reference_seconds: float, exponent: float = 1.0) -> float:
    """``seconds`` of wall time as milliseconds on the reference host."""
    return seconds * 1e3 * factor(reference_seconds, exponent)
