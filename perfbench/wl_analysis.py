"""``analysis``: lint and optimize a generated corpus through
``AnalysisSession``.

One iteration lints with no cache, lints cold into a fresh cache (twice),
lints warm from it (several passes), applies several one-file edits in turn
and lints after each, then runs ``optimize_paths``.  Every result is compared with the ground truth the
generator emitted (:mod:`perfbench.corpus`).  Everything runs in this
process (``jobs=1``) with the default analysis engine.  The phases are
the cold, warm, edited and optimize passes; the pass without a cache is
not timed.
"""

from __future__ import annotations

import json
import pathlib
import shutil

from . import corpus as corpus_mod
from .common import Checks, phase_times, scaled_median, time_call

#: Cold and warm passes per iteration: more samples of each per run.
COLD_PASSES = 2
WARM_PASSES = 3


def build(seed: int, workdir) -> object:
    """Set-up: import the analysis stack and open a session."""
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.session import AnalysisSession

    return AnalysisSession(AnalysisConfig(jobs=1))


def _findings(report, root: pathlib.Path) -> set:
    return {(pathlib.Path(f.path).relative_to(root).as_posix(), x.function,
             x.check) for f in report.files for x in f.findings}


class Workload:
    name = "analysis"

    def __init__(self, seed: int, workdir) -> None:
        from repro.analysis.config import AnalysisConfig
        from repro.analysis.session import AnalysisSession

        self.Session, self.Config = AnalysisSession, AnalysisConfig
        self.corpus = corpus_mod.generate(seed)
        self.workdir = pathlib.Path(workdir)
        self.root = self.workdir / "corpus"
        self.corpus.write(self.root)
        # Files, not the directory: discovery skips any path with a
        # dot-directory in it, and the checkout may sit under one.
        self.paths = sorted(self.root.glob("*.py"))
        self.count = 0

    def _session(self, cache_dir=None):
        return self.Session(self.Config(
            jobs=1, cache=cache_dir is not None,
            cache_dir=str(cache_dir) if cache_dir else None))

    def _check_lint(self, checks: Checks, report, what: str,
                    extra_functions: int = 0) -> None:
        truth = self.corpus
        checks.check(_findings(report, self.root) == truth.findings,
                     f"{what}: findings differ from the planted ones")
        checks.check(
            sum(f.functions_checked for f in report.files)
            == sum(truth.functions.values()) + extra_functions,
            f"{what}: functions checked")

    def warmup(self, checks: Checks) -> None:
        """Lint and optimize one import chain, so lazy imports and
        tables are ready before the first timed pass."""
        truth = self.corpus
        cache_dir = self.workdir / "cache-warmup"
        session = self._session(cache_dir)
        report = session.lint_paths(
            [self.root / rel for rel in sorted(truth.reanalyze)])
        checks.check(_findings(report, self.root) == {
            f for f in truth.findings if f[0] in truth.reanalyze},
            "warm-up lint")
        results = session.optimize_paths(
            [self.root / rel for rel in sorted(truth.reanalyze)])
        checks.check(all(r.verified for r in results), "warm-up optimize")
        shutil.rmtree(cache_dir, ignore_errors=True)

    def iteration(self, checks: Checks) -> dict:
        truth, root = self.corpus, self.root
        self.count += 1
        cache_dir = self.workdir / f"cache-{self.count}"
        edited = root / truth.edit_path
        analyzed = 0
        try:
            session = self._session()
            report = session.lint_paths(self.paths)
            self._check_lint(checks, report, "lint without cache")
            analyzed += session.counters["lint_analyzed"]

            cold = []
            for _ in range(COLD_PASSES):
                shutil.rmtree(cache_dir, ignore_errors=True)
                session = self._session(cache_dir)
                t, report = time_call(lambda: session.lint_paths(self.paths))
                cold.append(t)
                self._check_lint(checks, report, "cold lint")
                checks.check(
                    session.counters["lint_analyzed"] == len(truth.files),
                    "cold lint analyzes every file")
                analyzed += session.counters["lint_analyzed"]

            warm = []
            for _ in range(WARM_PASSES):
                session = self._session(cache_dir)
                t, report = time_call(lambda: session.lint_paths(self.paths))
                warm.append(t)
                self._check_lint(checks, report, "warm lint")
                checks.check(session.counters["lint_analyzed"] == 0,
                             "warm lint analyzes nothing")

            relint = []
            for source in truth.edit_sources:
                before = set(session.cache.entries())
                edited.write_text(source, encoding="utf-8")
                session = self._session(cache_dir)
                t, report = time_call(lambda: session.lint_paths(self.paths))
                relint.append(t)
                self._check_lint(checks, report, "re-lint after edit", 1)
                redone = {
                    pathlib.Path(json.loads(p.read_text())["key"]["path"])
                    .relative_to(root).as_posix()
                    for p in set(session.cache.entries()) - before
                    if p.name.startswith("lint-")
                }
                checks.check(redone == truth.reanalyze,
                             f"re-lint re-analyzed {sorted(redone)}, "
                             f"expected {sorted(truth.reanalyze)}")
                analyzed += session.counters["lint_analyzed"]

            optimize, results = time_call(
                lambda: session.optimize_paths(self.paths))
            plans = {(pathlib.Path(r.path).relative_to(root).as_posix(),
                      p.function, p.call, p.replacement)
                     for r in results for p in r.plans}
            checks.check(plans == truth.plans,
                         "optimize plans differ from the planted ones")
            checks.check(all(r.verified and not r.reverted for r in results),
                         "every rewrite verified")
            analyzed += session.counters["optimize_analyzed"]
        finally:
            edited.write_text(truth.files[truth.edit_path], encoding="utf-8")
            shutil.rmtree(cache_dir, ignore_errors=True)
        return {
            "phases": {"lint_cold": cold, "lint_warm": warm,
                       "edit_relint": relint, "optimize": optimize},
            "analyzed": analyzed,
            "plans": sum(len(r.plans) for r in results),
            "verified": sum(1 for r in results if r.plans and r.verified),
        }

    def info(self, samples: list[dict], speed: float) -> dict:
        """The median of each kind of pass."""
        out = {}
        for name in samples[0]["phases"]:
            value, note = scaled_median(
                (t for s in samples for t in phase_times(s["phases"][name])),
                speed, "passes")
            out[f"{name}_s"] = (value, "s", note)
        return out

    def layer_counts(self, samples: list[dict]) -> dict:
        last = samples[-1]
        note = "one untraced iteration"
        return {"analysis.session.analyzed": (last["analyzed"], "count", note),
                "optimize.plans": (last["plans"], "count", note),
                "optimize.verified": (last["verified"], "count", note)}
