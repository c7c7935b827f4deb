"""Span recorder for the traced run.

It wraps calls into the program's public layer functions from the
benchmark's side (nothing inside ``src/repro`` changes) and restores
every wrapped attribute afterwards.

- A *span* records name, start, end and parent.  Self time is a span's
  duration minus the part of it that its child spans cover.
- A *counted* wrapper is for hot per-element methods (iterator steps,
  ``Storage.get``): it counts every call and times only every
  :data:`SAMPLE_EVERY`-th call, so its time is an estimate that includes
  whatever the method calls.
- A target that does not exist is reported back as missing; its metrics
  read 0 rather than failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, NamedTuple, Optional

SAMPLE_EVERY = 16


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A child interval is clipped to its parent and overlapping children
    are merged, so a parent's self time never goes below zero."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.name] = out.get(span.name, 0.0) + (
            span.end - span.start - covered)
    return out


class Recorder:
    """Spans, counts and sampled timings of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sampled: dict[str, list] = {}  # name -> [seconds, timed calls]
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def run_span(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def estimate(self, name: str) -> float:
        """Sampled time of a counted name, scaled to all its calls."""
        seconds, timed = self.sampled.get(name, (0.0, 0))
        return seconds * self.counts[name] / timed if timed else 0.0

    def reset(self) -> None:
        """Forget what was recorded (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        for slot in self.sampled.values():
            slot[0], slot[1] = 0.0, 0

    # -- installing wrappers -----------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str,
               make: Callable[[Callable], Callable]) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def span(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> bool:
        """Record a span around every call of ``owner.attr``."""
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = self.run_span(name, fn, *args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return self._patch(owner, attr, name, make)

    def counted(self, owner: Any, attr: str, name: str,
                key: Optional[Callable[..., str]] = None) -> bool:
        """Count every call of ``owner.attr``; time every
        :data:`SAMPLE_EVERY`-th.  ``key(*args)`` may name a sub-count."""
        counts = self.counts
        sample = self.sampled.setdefault(name, [0.0, 0])
        clock = self.clock

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                if key is not None:
                    counts[key(*args)] += 1
                if counts[name] % SAMPLE_EVERY:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sample[0] += clock() - t0
                    sample[1] += 1
            return wrapper
        return self._patch(owner, attr, name, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
