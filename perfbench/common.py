"""Small helpers shared by the workloads: order statistics, builtin
timing and the correctness tally."""

from __future__ import annotations

import functools
import gc
import math
import random
import resource
import sys
import time
from typing import Any, Callable, Iterable


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: Time of one :func:`reference` call at the speed every end-to-end
#: timing is scaled to (near its time on the 2-vCPU machine it was tuned on).
REFERENCE_S = 0.025


@functools.lru_cache(maxsize=1)
def _reference_data() -> tuple[float, ...]:
    rng = random.Random(0)
    return tuple(rng.random() for _ in range(60_000))


def reference() -> int:
    """Fixed interpreter work that no change to the program can touch.
    It builds a dict of 30 000 entries and sorts 60 000 floats, which
    takes megabytes, because slowdowns on a shared machine hit
    memory-heavy code harder than a loop that fits in cache."""
    data = _reference_data()
    table = {(i, x): [x] for i, x in enumerate(data[:30_000])}
    return len(table) + len(sorted(data))


def reference_speed() -> float:
    """Factor that scales times taken now to the reference speed.

    The machine's speed drifts: on a shared 2-vCPU machine a fixed loop
    ran up to 1.5 times slower for tens of seconds at a time, so raw
    medians of runs minutes apart spread by 0.25 and more.  One reading
    is itself noisy, so a run scales by the median of all the readings
    it took.  The cyclic garbage collector is off while it reads: a
    collection would walk the program's heap and make the reference's
    time depend on what the program left behind."""
    best = math.inf
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return REFERENCE_S / best


def scaled_median(values: Iterable[float], speed: float, what: str
                  ) -> tuple[float, str]:
    """Median of ``values`` times the run's ``speed`` factor, and a note
    with the sample count and the raw median."""
    xs = list(values)
    raw = median(xs)
    return raw * speed, (f"median of {len(xs)} {what} at reference speed "
                         f"(factor {speed:.4g}); raw median {raw:.6g}")


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def phase_times(value: Any) -> list[float]:
    """A phase's times in one iteration: one, or a list of them."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


def phase_metrics(samples: list[dict], speed: float, what: str) -> dict:
    """The end-to-end timings every workload reports.

    ``samples`` holds each iteration's phases: a phase maps to its time
    in that iteration, or to a list of times when it ran several times.
    ``iter_s`` is the median iteration (all its phases summed);
    ``phase_geomean_ms`` is the geometric mean of the phases' medians,
    so a phase counts the same however short it is.  Both are scaled by
    the run's ``speed`` factor."""
    total, note = scaled_median(
        (sum(sum(phase_times(v)) for v in phases.values())
         for phases in samples), speed, what)
    names = list(samples[0])
    medians = [median(t for phases in samples
                      for t in phase_times(phases[name])) for name in names]
    return {
        "iter_s": (total, "s", note),
        "phase_geomean_ms": (
            geomean(medians) * speed * 1e3, "ms",
            f"{len(names)} phases, each a median of {len(samples)} "
            f"{what} at reference speed: " + ", ".join(names)),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_call(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def time_builtin(fn: Callable[[], Any], min_seconds: float = 0.002
                 ) -> tuple[float, Any]:
    """Per-call time of a fast builtin: repeat until the batch takes at
    least ``min_seconds``, so timer resolution does not dominate."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / reps, result
        reps *= 4


class Checks:
    """Tally of correctness checks.  The first failures are also logged
    to stderr, so a failing run says what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok
