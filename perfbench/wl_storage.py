"""``storage``: writes beside reads on a file-backed ``SqliteSequence``.

One iteration loads a fresh database, applies a seeded mix of point
writes (``push_back``, ``set_at``; O(1)) and renumbering writes
(``insert``/``erase`` at random positions; O(n)), reads (``at``,
``find``), runs one backend ``sort``, reads through the sorted fact
(``find_in``), then closes and reopens the file, which revalidates the
persisted facts.  A plain list is the model: the sequence is compared
with it after every phase, including after the reopen.

The phases are the point writes, the renumbering writes, the reads
(``query``), the sort and the reopen.  The p50 and p99 of single writes are printed
beside the end-to-end metrics.
"""

from __future__ import annotations

import bisect
import os
import random

from .common import Checks, percentile, scaled_median, time_call

N = 3_000
#: Writes per iteration: enough for a p99 with ten writes beyond it.
MUTATIONS = 1000
#: Share of renumbering writes.  Above 1% and well below 50%, so the
#: median falls among point writes and p99 among renumbering writes.
RENUMBER = 0.05
AT_READS = 200
FIND_PROBES = 4
FIND_IN_PROBES = 50


def make_data(seed: int) -> list[int]:
    return random.Random(seed).sample(range(100 * N), N)


def build(seed: int, workdir) -> None:
    """Set-up: import the layers, load a database file, close it."""
    from repro.sequences.backends import SqliteSequence

    path = os.path.join(workdir, "setup.db")
    seq = SqliteSequence(make_data(seed), path=path)
    seq.close()
    os.remove(path)


class Workload:
    name = "storage"

    def __init__(self, seed: int, workdir) -> None:
        from repro.sequences import algorithms
        from repro.sequences.backends import SqliteSequence

        self.alg = algorithms
        self.Seq = SqliteSequence
        self.data = make_data(seed)
        self.rng = random.Random(seed + 1)
        self.workdir = workdir
        self.count = 0

    def _mutate(self, seq, model: list, latencies: list) -> float:
        """Apply the writes; returns the time the renumbering ones took."""
        rng = self.rng
        renumbering = 0.0
        for _ in range(MUTATIONS):
            value = rng.randrange(100 * N)
            if rng.random() < RENUMBER:
                k = rng.randrange(len(model))
                pos = seq.begin()
                pos.advance(k)
                if rng.random() < 0.5:
                    t, _ = time_call(lambda: seq.insert(pos, value))
                    model.insert(k, value)
                else:
                    t, _ = time_call(lambda: seq.erase(pos))
                    del model[k]
                del pos
                renumbering += t
            elif rng.random() < 0.6:
                k = rng.randrange(len(model))
                t, _ = time_call(lambda: seq.set_at(k, value))
                model[k] = value
            else:
                t, _ = time_call(lambda: seq.push_back(value))
                model.append(value)
            latencies.append(t * 1e3)
        return renumbering

    def iteration(self, checks: Checks) -> dict:
        alg, rng = self.alg, self.rng
        self.count += 1
        path = os.path.join(self.workdir, f"seq-{self.count}.db")
        seq = self.Seq(self.data, path=path)
        seq.flush()
        model = list(self.data)
        latencies: list[float] = []
        try:
            renumbering = self._mutate(seq, model, latencies)
            checks.check(seq.to_list() == model, "contents after writes")

            query = 0.0
            for _ in range(AT_READS):
                k = rng.randrange(len(model))
                t, got = time_call(lambda: seq.at(k))
                query += t
                checks.check(got == model[k], f"at({k})")
            # Scan lengths at fixed fractions of the sequence, so the work
            # does not depend on the seed; the first probe is absent.
            for i in range(FIND_PROBES):
                value = model[len(model) * i // FIND_PROBES] if i else -1
                t, it = time_call(
                    lambda: alg.find(seq.begin(), seq.end(), value))
                query += t
                want = model.index(value) if value in model else len(model)
                checks.check(it.index == want, f"find({value})")

            sort_s, _ = time_call(lambda: alg.sort(seq))
            model.sort()
            checks.check(seq.to_list() == model and seq.has_fact("sorted"),
                         "contents and fact after sort")

            for i in range(FIND_IN_PROBES):
                value = model[rng.randrange(len(model))] if i else -1
                t, it = time_call(lambda: alg.find_in(seq, value))
                query += t
                k = bisect.bisect_left(model, value)
                want = k if k < len(model) and model[k] == value \
                    else len(model)
                checks.check(it.index == want, f"find_in({value})")
        finally:
            seq.close()

        reopen_s, seq = time_call(lambda: self.Seq(path=path))
        try:
            checks.check(seq.to_list() == model, "contents after reopen")
            checks.check(seq.has_fact("sorted"), "sorted fact after reopen")
            for fact in seq.facts:
                checks.check(_holds(fact, model), f"reopened fact {fact!r}")
        finally:
            seq.close()
            os.remove(path)
        return {
            "phases": {"point_writes": sum(latencies) / 1e3 - renumbering,
                       "renumbering_writes": renumbering, "query": query,
                       "sort": sort_s, "reopen": reopen_s},
            "mutation_p50_ms": percentile(latencies, 0.50),
            "mutation_p99_ms": percentile(latencies, 0.99),
        }

    #: The first iteration fills dispatch tables and caches.
    warmup = iteration

    def info(self, samples: list[dict], speed: float) -> dict:
        """The write percentiles and each phase's median."""
        out = {}
        for name in ("mutation_p50_ms", "mutation_p99_ms"):
            value, note = scaled_median((s[name] for s in samples), speed,
                                        "iterations")
            out[name] = (value, "ms", note)
        for name in samples[0]["phases"]:
            value, note = scaled_median((s["phases"][name] for s in samples),
                                        speed, "iterations")
            out[f"{name}_s"] = (value, "s", note)
        return out

    def layer_counts(self, samples: list[dict]) -> dict:
        return {}


def _holds(fact: str, model: list) -> bool:
    """Check a fact the reopened sequence reports against the model; a
    fact with no check here counts as not holding."""
    pairs = list(zip(model, model[1:]))
    if fact == "sorted":
        return all(a <= b for a, b in pairs)
    if fact == "strictly-sorted":
        return all(a < b for a, b in pairs)
    if fact == "unique":
        return len(set(model)) == len(model)
    return False
