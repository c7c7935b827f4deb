"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import (
    corpus, layers, run, wl_algorithms, wl_analysis, wl_simulation,
    wl_storage,
)
from perfbench.common import Checks, phase_metrics
from perfbench.spans import Recorder, Span, self_times

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- the corpus generator -----------------------------------------------------


def test_generator_is_deterministic_for_a_seed():
    a, b = corpus.generate(5), corpus.generate(5)
    assert a == b
    assert a.files != corpus.generate(6).files


def test_generator_ground_truth_shape():
    c = corpus.generate(9)
    assert len(c.files) == corpus.MODULES
    # Fig. 4 plants two findings, the helper chain and sort->find one each.
    assert len(c.findings) == 4 * corpus.MODULES
    assert len(c.plans) == corpus.MODULES
    assert c.edit_path in c.reanalyze
    assert len(c.reanalyze) == corpus.GROUP
    assert len(set(c.edit_sources)) == corpus.EDITS
    assert all(s.startswith(c.files[c.edit_path]) for s in c.edit_sources)


# -- self time ----------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("b", 5.5, 7.0, 0),   # overlaps its sibling: counted once
        Span("late", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 3 - 2 - 1)
    assert got["a"] == pytest.approx(2.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["b"] == pytest.approx(1.0 + 1.5)
    assert got["late"] == pytest.approx(3.0)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class _Target:
    def work(self, n):
        return n * 2


def test_recorder_spans_counts_and_restore():
    rec = Recorder(clock=_Clock())
    original = _Target.__dict__["work"]
    assert rec.span(_Target, "work", "work")
    assert not rec.span(_Target, "absent", "absent")
    assert rec.missing == {"absent"}
    assert rec.run_span("outer", lambda: _Target().work(3)) == 6
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent == -1
    assert rec.self_times() == {"outer": 2.0, "work": 1.0}
    rec.restore()
    assert _Target.__dict__["work"] is original

    rec = Recorder()
    rec.counted(_Target, "work", "hot", key=lambda _s, n: f"hot.{n % 2}")
    for i in range(40):
        _Target().work(i)
    assert rec.counts["hot"] == 40 and rec.counts["hot.0"] == 20
    assert rec.estimate("hot") > 0
    rec.reset()
    assert rec.counts["hot"] == 0 and rec.estimate("hot") == 0
    rec.restore()
    assert _Target.__dict__["work"] is original


# -- tiny-size smoke runs of every workload ------------------------------------

TINY = {
    "algorithms": (wl_algorithms, {"N": 300, "PROBES": 4}),
    "storage": (wl_storage, {"N": 200, "MUTATIONS": 60, "AT_READS": 20,
                             "FIND_IN_PROBES": 10}),
    "analysis": (wl_analysis, {}),
    "simulation": (wl_simulation, {"N": 8}),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name, tmp_path, monkeypatch):
    module, sizes = TINY[name]
    for attr, value in sizes.items():
        monkeypatch.setattr(module, attr, value)
    monkeypatch.setattr(corpus, "MODULES", 8)
    assert run.WORKLOADS[name] is module
    module.build(3, str(tmp_path))

    wl = module.Workload(3, tmp_path)
    checks = Checks()
    samples = [wl.iteration(checks)]
    rec = Recorder()
    layers.install(rec)
    try:
        before = layers.Snapshot()
        samples.append(wl.iteration(checks))
        traced = layers.metrics(rec, before, layers.Snapshot(), 1.0)
    finally:
        rec.restore()
    assert checks.attempted > 0 and checks.failed == 0
    measured = {**phase_metrics([s["phases"] for s in samples], 1.0, "x"),
                **wl.info(samples, 1.0)}
    for value, unit, note in measured.values():
        assert value > 0 and unit and note
    assert 0 < traced["trace.coverage"][0]
    assert not rec.missing

    # The result line holds every metric of BENCHMARK.json, whatever
    # layers the workload touched, in the manifest's unit.
    units = run.manifest_units(trace=True)
    counts = {**{n: (0, "count") for n in layers.RESULT_COUNTS},
              **{n: v[:2] for n, v in wl.layer_counts(samples).items()}}
    from_setup = {"concepts.check.calls", "concepts.check.self_s",
                  "trace.wall_s", "trace.overhead_ratio"}
    assert set(traced) | set(counts) | from_setup == set(units)
    for name, (value, unit) in {**traced, **counts}.items():
        assert unit == units[name], name
    e2e = run.manifest_units(trace=False)
    assert set(measured) >= set(e2e) - {"setup_s", "peak_rss_mb"}


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algorithms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_result_holds_exactly_the_manifest_metrics():
    units = {"a": "s", "b": "count"}
    got = run.result_metrics({"a": (1.5, "s", ""), "b": (2, "count", ""),
                              "extra": (3, "ms", "")}, units, trace=False)
    assert got == {"a": {"value": 1.5, "unit": "s"},
                   "b": {"value": 2, "unit": "count"}}
    with pytest.raises(RuntimeError):
        run.result_metrics({"a": (1.5, "s", "")}, units, trace=False)
    with pytest.raises(RuntimeError):
        run.result_metrics({"a": (1.5, "ms", ""), "b": (2, "count", "")},
                           units, trace=False)
    got = run.result_metrics({"a": (1.5, "s", "")}, units, trace=True)
    assert got["b"] == {"value": 0, "unit": "count"}


# -- BENCHMARK.json and the layer map ------------------------------------------


def test_every_per_layer_metric_says_what_it_should_move():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    assert names == set(moves["per_layer"])
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in moves["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= workloads
