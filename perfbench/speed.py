"""Machine-speed scaling for CPU-bound timings.

On a shared 2-vCPU VM, like the one the baseline was recorded on, the same
Python code runs up to ~40% slower in some phases, which last from
seconds to minutes (another tenant on the sibling hyperthread, frequency
changes).  Process CPU time slows down with wall time, so neither clock
escapes it.

The workloads therefore time a fixed pure-Python probe (dict, tuple, set
and sort work: the interpreter mix of a compile) in the foreground,
*between* the intervals they measure: before every circuit, before every
pair of daemon jobs and before every batch of set-ups.  No probe overlaps
the program's work or lies inside a measured interval, and the probe runs
with the cyclic garbage collector off, so the size of the program's heap
does not reach it.  A measured interval is scaled by ``(REFERENCE_PROBE_S
/ median probe time) ** EXPONENT`` over the probes within ``WINDOW_S`` of
it, or the ``NEAREST`` probes closest to it when fewer are that close.
Scaled times are seconds at the reference speed; the workloads keep the
raw times too, and the run prints both.  Compiles slow down less than the
probe does; over 369 repeats of three bulk compiles (150 s), the
coefficient of variation of medians of ten was 17.6% raw, 6.0% scaled
with exponent 1 and 5.1% with exponent 0.75.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Work items per probe.
PROBE_ITEMS = 12_000

#: Median probe time on the 2-vCPU VM the baseline comes from.
REFERENCE_PROBE_S = 0.0049

#: How strongly measured code follows the probe's slowdown (fitted above).
EXPONENT = 0.75

#: Probes closer than this to a measured interval help scale it.
WINDOW_S = 1.0

#: Fewest probes a scale is taken over.
NEAREST = 5


def probe_once() -> float:
    """Time one run of the fixed probe, in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        pairs = []
        for i in range(PROBE_ITEMS):
            key = (i & 127, (i * 7) & 63)
            counts[key] = counts.get(key, 0) + 1
            if i % 3 == 0:
                pairs.append(frozenset((i & 15, i & 31)))
        sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        union: set = set()
        for pair in pairs:
            union |= pair
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale_of(probes) -> float:
    """Factor taking a time measured at the probed speed to reference speed."""
    return (REFERENCE_PROBE_S / statistics.median(probes)) ** EXPONENT


class SpeedLog:
    """Foreground probes taken between measured intervals."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, probe s)

    def probe(self) -> None:
        """Take one probe now; call it only between measured intervals."""
        self.samples.append((time.perf_counter(), probe_once()))

    def scale(self, start: float, end: float) -> float:
        """Scale for an interval, from the probes around it."""
        window = [
            s for at, s in self.samples if start - WINDOW_S <= at <= end + WINDOW_S
        ]
        if len(window) < NEAREST:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda row: abs(row[0] - middle))
            window = [s for _at, s in nearest[:NEAREST]]
        return scale_of(window) if window else 1.0

    def probed_s(self, start: float, end: float) -> float:
        """Seconds spent probing between ``start`` and ``end``."""
        return sum(s for at, s in self.samples if start <= at <= end)


class Unscaled:
    """Stand-in for raw figures and poll-bound loops: no scaling."""

    def scale(self, start: float, end: float) -> float:
        return 1.0
