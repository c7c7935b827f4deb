"""Where the traced run puts its wrappers, and how it turns what they
recorded into the per-layer metrics.

Layers are named after the program's modules.  Every wrapper goes
around a call into a layer, installed from here; a missing target is
named on stderr and its metrics read 0.  Counts and time shares are per
traced iteration.
"""

from __future__ import annotations

import importlib
from typing import Any, Optional

from .spans import Recorder

ITERATOR_OPS = ("deref", "increment", "equals", "clone", "advance",
                "distance", "decrement", "set")
SQLITE_SPANS = ("set", "insert", "erase", "append", "slice", "clear",
                "index_lookup", "is_sorted", "sync_facts", "flush", "close")
MUTATION_KINDS = ("append", "write", "insert", "erase", "reverse")
#: Counts read from what a workload's calls return (``layer_counts``),
#: not from the trace; 0 on a workload that does not run the layer.
RESULT_COUNTS = (
    "analysis.session.analyzed", "optimize.plans", "optimize.verified",
    "distributed.messages_sent", "distributed.messages_delivered",
    "distributed.retransmissions", "distributed.elections_started",
    "distributed.log_commits",
)


def _module(name: str) -> Optional[Any]:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _attr(module: str, name: str) -> Optional[Any]:
    mod = _module(module)
    return getattr(mod, name, None) if mod is not None else None


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class _Sums:
    """Result hooks that add fields of a returned value to counts."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def lint(self, report: Any) -> None:
        self.rec.counts["lint.functions_checked"] += report.functions_checked
        self.rec.counts["lint.findings"] += len(report.findings)

    def cfg(self, cfg: Any) -> None:
        self.rec.counts["stllint.cfg.blocks"] += len(cfg.blocks)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point this commit has."""
    sums = _Sums(rec)
    span, counted = rec.span, rec.counted

    registry = _attr("repro.concepts.modeling", "ModelRegistry")
    if registry is not None:
        span(registry, "check", "concepts.check")
    gf = _attr("repro.concepts.overload", "GenericFunction")
    if gf is not None:
        span(gf, "__call__", "runtime.dispatch")

    alg = _module("repro.sequences.algorithms")
    if alg is not None:
        for name in ("find", "count", "accumulate", "lower_bound"):
            span(alg, name, f"sequences.algorithms.{name}")
        for name in ("sort", "find_in", "advance", "distance"):
            for overload in getattr(getattr(alg, name, None), "overloads", ()):
                span(overload, "impl", f"sequences.algorithms.{name}")

    base = _attr("repro.sequences.iterators", "IteratorBase")
    for cls in _subclasses(base) if base is not None else ():
        for op in ITERATOR_OPS:
            if op in cls.__dict__:
                counted(cls, op, "sequences.iterators")

    _module("repro.sequences.backends")  # so its Storage subclasses exist
    storage = _attr("repro.sequences.storage", "Storage")
    for cls in _subclasses(storage) if storage is not None else ():
        caps = getattr(cls, "capabilities", None)
        if caps is not None and "get" in cls.__dict__:
            counted(cls, "get", f"storage.get.{caps.name}")
    facade = _attr("repro.sequences.storage", "SequenceFacade")
    if facade is not None:
        counted(facade, "_commit_mutation", "sequences.storage.commit",
                key=lambda _self, kind, *a: f"sequences.storage.mutations.{kind}")

    contiguous = _attr("repro.sequences.backends.contiguous",
                       "ContiguousStorage")
    if contiguous is not None:
        for op in ("set", "length", "append", "slice"):
            counted(contiguous, op, "backends.contiguous")
    sqlite = _attr("repro.sequences.backends.sqlite_store", "SqliteStorage")
    if sqlite is not None:
        counted(sqlite, "_execute", "backends.sqlite.roundtrips")
        span(sqlite, "__init__", "backends.sqlite.open")
        span(sqlite, "backend_sort", "backends.sqlite.sort")
        span(sqlite, "load_facts", "backends.sqlite.load_facts")
        for op in SQLITE_SPANS:
            span(sqlite, op, f"backends.sqlite.{op}")

    cache = _attr("repro.analysis.cache", "AnalysisCache")
    if cache is not None:
        span(cache, "get", "analysis.cache.get")
        span(cache, "put", "analysis.cache.put")
    session = _attr("repro.analysis.session", "AnalysisSession")
    if session is not None:
        span(session, "lint_paths", "analysis.session")
        span(session, "optimize_paths", "analysis.session")
    for mod in ("repro.lint.driver", "repro.optimize.pipeline"):
        if _attr(mod, "_lint_source_impl") is not None:
            span(_module(mod), "_lint_source_impl", "lint", on_result=sums.lint)
        else:
            rec.missing.add("lint")
    dataflow = _module("repro.stllint.dataflow")
    if dataflow is not None:
        span(dataflow, "lower_function", "stllint.cfg", on_result=sums.cfg)
        checker = getattr(dataflow, "FixpointChecker", None)
        if checker is not None:
            span(checker, "_analyze", "stllint.dataflow")
    pipeline = _module("repro.optimize.pipeline")
    if pipeline is not None:
        span(pipeline, "_optimize_source_impl", "optimize")
        span(pipeline, "plan_rewrites", "optimize.plan")
        span(pipeline, "apply_rewrites", "optimize.apply")

    replog = _module("repro.distributed.algorithms.replog")
    if replog is not None:
        span(replog, "run_replicated_log", "distributed.run")
    reliable = _attr("repro.distributed.reliable", "ReliableProcess")
    if reliable is not None:
        counted(reliable, "on_message", "distributed.handler")


class Snapshot:
    """Counters the program already keeps, read before and after an
    iteration; a missing stats API leaves its metrics out."""

    SOURCES = {
        "runtime": ("repro.runtime", "stats"),
        "dataflow": ("repro.stllint.dataflow", "stats"),
        "cache": ("repro.analysis.cache", "stats"),
    }

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        for key, (module, name) in self.SOURCES.items():
            fn = _attr(module, name)
            if fn is not None:
                snap = fn()
                self.values[key] = snap.get("totals", snap)

    def delta(self, earlier: "Snapshot", key: str, field: str
              ) -> Optional[float]:
        if key not in self.values or key not in earlier.values:
            return None
        now, then = self.values[key], earlier.values[key]
        if field not in now or field not in then:
            return None
        return now[field] - then[field]


def metrics(rec: Recorder, before: Snapshot, after: Snapshot,
            wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration of ``wall`` seconds.

    Every layer is reported on every workload; one the workload does
    not touch reads 0.  Times are shares of ``wall`` (a layer's self
    time, or an estimate for counted methods), so an untouched layer's
    0 is not a time.  A counter whose stats API is missing is left out
    here; the result then reads 0 and names it on stderr.
    ``concepts.check.*`` come from the traced set-up instead (see
    ``setup_probe.py``)."""
    selfs = rec.self_times()
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in rec.spans:
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
    counts, est = rec.counts, rec.estimate
    out: dict[str, tuple[float, str]] = {}

    def count(name: str, value: Optional[float]) -> None:
        if value is not None:
            out[name] = (value, "count")

    def share(name: str, seconds: float) -> None:
        out[name] = (seconds / wall if wall else 0.0, "ratio")

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    def delta(key: str, field: str) -> Optional[float]:
        return after.delta(before, key, field)

    hits, misses = (delta("runtime", "dispatch_hits"),
                    delta("runtime", "dispatch_misses"))
    count("runtime.dispatch.calls",
          None if None in (hits, misses) else hits + misses)
    count("runtime.dispatch.misses", misses)
    share("runtime.dispatch.share", selfs.get("runtime.dispatch", 0.0))

    for op in ("find", "count", "accumulate", "lower_bound", "sort"):
        name = f"sequences.algorithms.{op}"
        count(f"{name}.calls", calls.get(name, 0))
        share(f"{name}.share", selfs.get(name, 0.0))

    count("sequences.iterators.ops", counts["sequences.iterators"])
    share("sequences.iterators.share", est("sequences.iterators"))

    for kind in MUTATION_KINDS:
        count(f"sequences.storage.mutations.{kind}",
              counts[f"sequences.storage.mutations.{kind}"])
    count("sequences.storage.get.calls",
          sum(v for k, v in counts.items() if k.startswith("storage.get.")))
    share("sequences.storage.commit.share", est("sequences.storage.commit"))

    count("backends.sqlite.roundtrips", counts["backends.sqlite.roundtrips"])
    share("backends.sqlite.share",
          prefixed("backends.sqlite.") + est("storage.get.sqlite"))
    share("backends.sqlite.sort.share",
          inclusive.get("backends.sqlite.sort", 0.0))
    share("backends.sqlite.load_facts.share",
          inclusive.get("backends.sqlite.load_facts", 0.0))
    share("backends.contiguous.share",
          est("storage.get.contig") + est("backends.contiguous"))

    count("analysis.cache.hits", delta("cache", "hits"))
    count("analysis.cache.misses", delta("cache", "misses"))
    share("analysis.cache.share", prefixed("analysis.cache."))

    count("lint.files", calls.get("lint", 0))
    count("lint.functions_checked", counts["lint.functions_checked"])
    count("lint.findings", counts["lint.findings"])
    share("lint.share", selfs.get("lint", 0.0))

    count("stllint.cfg.functions", calls.get("stllint.cfg", 0))
    count("stllint.cfg.blocks", counts["stllint.cfg.blocks"])
    share("stllint.cfg.share", selfs.get("stllint.cfg", 0.0))
    count("stllint.dataflow.iterations", delta("dataflow", "iterations"))
    count("stllint.dataflow.widenings", delta("dataflow", "widenings"))
    share("stllint.dataflow.share", selfs.get("stllint.dataflow", 0.0))
    count("stllint.summaries.hits", delta("dataflow", "summary_hits"))
    count("stllint.summaries.misses", delta("dataflow", "summary_misses"))

    share("optimize.plan.share", inclusive.get("optimize.plan", 0.0))
    share("optimize.apply.share", inclusive.get("optimize.apply", 0.0))
    share("optimize.share", selfs.get("optimize", 0.0))

    handler = est("distributed.handler")
    count("distributed.handler.calls", counts["distributed.handler"])
    share("distributed.handler.share", handler)
    share("distributed.loop.share",
          max(inclusive.get("distributed.run", 0.0) - handler, 0.0))

    out["trace.coverage"] = (sum(selfs.values()) / wall if wall else 0.0,
                             "ratio")
    return out
