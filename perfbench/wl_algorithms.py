"""``algorithms``: the abstraction penalty.

Generic ``find``, ``count``, ``accumulate``, ``lower_bound`` (a batch of
probes on a sorted copy) and ``sort`` (on a fresh copy) over the four
Vector-family and list containers, each timed beside the builtin that
does the same job on a plain list.  No backend I/O, no analysis, no
simulator.  Each (op, container) cell is a phase; the builtin times
give ``penalty_geomean``, printed beside the end-to-end metrics.
"""

from __future__ import annotations

import bisect
import random

from .common import (
    Checks, geomean, median, scaled_median, time_builtin, time_call,
)

N = 10_000
PROBES = 16


def make_data(seed: int) -> tuple[list[int], int, list[int]]:
    """Distinct ints, the ``find``/``count`` target at a fixed position
    (so scan length does not depend on the seed), and the probes."""
    rng = random.Random(seed)
    data = rng.sample(range(10 * N), N)
    target = data[3 * N // 4]
    probes = [rng.randrange(10 * N) for _ in range(PROBES)]
    return data, target, probes


def containers() -> dict[str, type]:
    from repro.sequences import Deque, DList, Vector
    from repro.sequences.backends import ContiguousVector

    return {"Vector": Vector, "ContiguousVector": ContiguousVector,
            "Deque": Deque, "DList": DList}


def build(seed: int, workdir) -> dict:
    """Set-up: import the layers and build every container."""
    data, _, _ = make_data(seed)
    ordered = sorted(data)
    return {name: (cls(data), cls(ordered))
            for name, cls in containers().items()}


class Workload:
    name = "algorithms"

    def __init__(self, seed: int, workdir) -> None:
        from repro.sequences import algorithms

        self.alg = algorithms
        self.data, self.target, self.probes = make_data(seed)
        self.ordered = sorted(self.data)
        self.classes = containers()
        self.built = build(seed, workdir)

    def iteration(self, checks: Checks) -> dict:
        alg, data, ordered = self.alg, self.data, self.ordered
        target, probes = self.target, self.probes
        phases: dict = {}
        builtin: dict = {}

        def record(op: str, name: str, generic: float, plain: float) -> None:
            phases[f"{op}/{name}"] = generic
            builtin[f"{op}/{name}"] = plain

        for name, cls in self.classes.items():
            c, sc = self.built[name]
            first, last = c.begin(), c.end()

            t, it = time_call(lambda: alg.find(first, last, target))
            b, pos = time_builtin(lambda: data.index(target))
            checks.check(not it.equals(last) and it.deref() == data[pos],
                         f"find on {name}")
            record("find", name, t, b)

            t, got = time_call(lambda: alg.count(first, last, target))
            b, want = time_builtin(lambda: data.count(target))
            checks.check(got == want, f"count on {name}: {got} != {want}")
            record("count", name, t, b)

            t, got = time_call(lambda: alg.accumulate(first, last, 0))
            b, want = time_builtin(lambda: sum(data))
            checks.check(got == want, f"accumulate on {name}")
            record("accumulate", name, t, b)

            sfirst, slast = sc.begin(), sc.end()
            t, found = time_call(lambda: [
                alg.lower_bound(sfirst, slast, p) for p in probes])
            b, wanted = time_builtin(lambda: [
                bisect.bisect_left(ordered, p) for p in probes])
            for it, w in zip(found, wanted):
                ok = it.equals(slast) if w == N else (
                    not it.equals(slast) and it.deref() == ordered[w])
                checks.check(ok, f"lower_bound on {name}")
            record("lower_bound", name, t, b)

            fresh = cls(data)
            t, _ = time_call(lambda: alg.sort(fresh))
            b, want = time_builtin(lambda: sorted(data))
            checks.check(fresh.to_list() == want and fresh.has_fact("sorted"),
                         f"sort on {name}")
            record("sort", name, t, b)
        return {"phases": phases, "builtin": builtin}

    #: The first iteration fills dispatch tables and caches.
    warmup = iteration

    def info(self, samples: list[dict], speed: float) -> dict:
        """The abstraction penalty, not scaled by ``speed``: each ratio
        is of times taken side by side; and ``algo_s`` under its name."""
        ratios = [median(s["phases"][cell] for s in samples)
                  / median(s["builtin"][cell] for s in samples)
                  for cell in samples[0]["phases"]]
        algo, note = scaled_median(
            (sum(s["phases"].values()) for s in samples), speed, "iterations")
        return {"penalty_geomean": (geomean(ratios), "ratio",
                                    f"{len(ratios)} cells, medians of "
                                    f"{len(samples)} iterations each"),
                "algo_s": (algo, "s", note + "; the same as iter_s")}

    def layer_counts(self, samples: list[dict]) -> dict:
        return {}
