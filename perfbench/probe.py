"""Drift probes and the summary statistics the benchmark reports.

The host this benchmark runs on changes speed by up to 2x within seconds
(shared CPUs).  Every timed operation is bracketed by a fixed probe, and its
wall time is rescaled to a nominal host speed:

    t = t_wall * P0 / mean(probe_before, probe_after)

``probe`` allocates objects and does ``Fraction`` and float arithmetic, like
the program's own interpreter-bound work; it corrects in-process requests.
Process start-up and imports (unmarshalling, loading extension modules)
respond to the host differently: on a 2-CPU VM the in-process probe did not
track them at all, and a probe importing only standard-library modules
tracked them within minutes but drifted by 15% against them over half an
hour.  Operations that start a Python process are therefore bracketed by
``spawn_probe``: a fresh isolated interpreter importing numpy and
``scipy.integrate``, the same kind of work that dominates a cold request.

Neither probe touches ``vfdielectric``, so no change to the program can move
a probe or the correction.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Nominal probe times (seconds): fixed constants, so corrected times keep
# their units.  Each is close to its probe's median on a 2-CPU x86-64 VM.
P0 = 1.0e-3
SPAWN_P0 = 0.65

_PROBE_ROUNDS = 110
SPAWN_CODE = "import numpy, scipy.integrate"


def _probe_work() -> int:
    acc = 0.0
    items = []
    for i in range(1, _PROBE_ROUNDS):
        f = Fraction(i % 5 + 1, 3) * Fraction(2, i % 3 + 1) + Fraction(1, i % 7 + 2)
        acc += math.sqrt(i) * 1.0001 + float(f)
        items.append((i, acc, [f]))
    return len(items)


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes right now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Seconds a fresh interpreter takes to start and import numpy and scipy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", SPAWN_CODE], check=True, timeout=60)
    return time.perf_counter() - t0


def corrected(wall: float, probe_before: float, probe_after: float,
              nominal: float = P0) -> float:
    """``wall`` rescaled from the host's current speed to the nominal one."""
    return wall * nominal / ((probe_before + probe_after) / 2.0)


class Bracket:
    """Times consecutive operations, each between two probes.

    The probe after one operation is the probe before the next, so a loop of
    n operations runs n + 1 probes.
    """

    def __init__(self, measure=probe, nominal: float = P0) -> None:
        self.measure = measure
        self.nominal = nominal
        measure()  # first run pays for code and file-cache warm-up
        self.last_probe = measure()
        self.probes = [self.last_probe]

    def time(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, corrected s, wall s)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self.measure()
        t = corrected(wall, self.last_probe, after, self.nominal)
        self.last_probe = after
        self.probes.append(after)
        return result, t, wall


def percentile_with_tail(values: list[float], wanted: float = 0.90,
                         tail: int = 10) -> tuple[float, float]:
    """The ``wanted`` quantile, or the highest one with ``tail`` samples above it.

    Returns ``(value, quantile used)``.  With fewer than 100 samples the 90th
    percentile has fewer than ten samples beyond it, so a lower quantile is
    reported instead, but never one below the upper median.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(min(math.ceil(wanted * n) - 1, n - 1 - tail), n // 2)
    return ordered[index], (index + 1) / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
