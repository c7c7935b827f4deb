"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload algorithms --seed 1 --seconds 25 --trace 0

Every workload is a closed loop in this one process: each call starts
after the previous one returns.  A warm-up runs first (its checks
count, its timings do not); then iterations repeat until ``--seconds``
is spent.  Every output is checked against a model.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and it holds
the per-layer metrics (:mod:`perfbench.layers`) instead.  Either way it
holds exactly the metrics ``BENCHMARK.json`` lists for that mode, in
their units.  The last line of standard output is the JSON result; the
lines before it give each metric with its unit and sample count, and
some workload-specific ones besides.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import (  # noqa: E402
    wl_algorithms, wl_analysis, wl_simulation, wl_storage,
)
from perfbench.common import (  # noqa: E402
    Checks, median, peak_rss_mb, phase_metrics, reference_speed,
    scaled_median,
)

WORKLOADS = {
    "algorithms": wl_algorithms,
    "storage": wl_storage,
    "analysis": wl_analysis,
    "simulation": wl_simulation,
}
#: Timed set-ups per run (after one untimed one that fills bytecode
#: caches), and the fewest measured iterations a run may report.
SETUPS = 5
MIN_ITERATIONS = 3
WORKDIR = ".perfbench_work"
MANIFEST = ROOT / "BENCHMARK.json"


def manifest_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run in this mode must report."""
    bench = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def probe_setup(workload: str, seed: int, workdir: pathlib.Path,
                trace: bool = False) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
           workload, str(seed), str(workdir)] + (["--trace"] if trace else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_loop(step, checks: Checks, seconds: float) -> list:
    """Closed loop: call ``step`` until ``seconds`` are spent, stopping
    before a call that would overrun once :data:`MIN_ITERATIONS` are
    done.  Returns what the calls returned, with their durations."""
    done: list = []
    start = time.perf_counter()
    last = 0.0
    while len(done) < MIN_ITERATIONS or \
            time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        try:
            result = step()
        except Exception:  # noqa: BLE001 - a raising call is a failed check
            traceback.print_exc()
            checks.check(False, "an iteration raised")
            if checks.failed > 50:
                raise
            continue
        last = time.perf_counter() - t0
        done.append((result, last))
    return done


def end_to_end(wl, args, workdir: pathlib.Path, checks: Checks
               ) -> tuple[dict, dict]:
    """(end-to-end metrics, workload-specific ones to print beside)."""
    probe_setup(args.workload, args.seed, workdir)
    setups = [probe_setup(args.workload, args.seed, workdir)
              for _ in range(SETUPS)]
    wl.warmup(checks)

    speeds = [p["speed"] for p in setups]

    def step() -> dict:
        speeds.append(reference_speed())
        return wl.iteration(checks)

    samples = [r for r, _ in run_loop(step, checks, args.seconds)]
    speeds.append(reference_speed())
    speed = median(speeds)
    metrics = phase_metrics([s["phases"] for s in samples], speed,
                            "iterations")
    value, note = scaled_median((p["setup_s"] for p in setups), speed,
                                "set-ups")
    metrics["setup_s"] = (value, "s", note)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "whole run")
    return metrics, wl.info(samples, speed)


def traced(wl, args, workdir: pathlib.Path, checks: Checks
           ) -> tuple[dict, dict]:
    """(per-layer metrics, nothing to print beside them)."""
    from perfbench import layers
    from perfbench.spans import Recorder

    setup = probe_setup(args.workload, args.seed, workdir, trace=True)
    wl.warmup(checks)
    plain = run_loop(lambda: wl.iteration(checks), checks, args.seconds / 2)

    rec = Recorder()

    def step() -> dict:
        rec.reset()
        before = layers.Snapshot()
        t0 = time.perf_counter()
        wl.iteration(checks)
        wall = time.perf_counter() - t0
        out = layers.metrics(rec, before, layers.Snapshot(), wall)
        out["trace.wall_s"] = (wall, "s")
        return out

    layers.install(rec)
    if rec.missing:
        print(f"not traced, entry point missing: {sorted(rec.missing)}",
              file=sys.stderr)
    try:
        per_iteration = [r for r, _ in run_loop(step, checks,
                                                args.seconds / 2)]
    finally:
        rec.restore()

    out: dict = {}
    for name in sorted({k for m in per_iteration for k in m}):
        values = [m[name][0] for m in per_iteration if name in m]
        unit = next(m[name][1] for m in per_iteration if name in m)
        out[name] = (median(values), unit,
                     f"median of {len(values)} traced iterations")
    if "checks" in setup:
        out["concepts.check.calls"] = (setup["checks"], "count", "one set-up")
        out["concepts.check.self_s"] = (setup["check_self_s"], "s",
                                        "one set-up")
    out.update({name: (0, "count", "layer not run")
                for name in layers.RESULT_COUNTS})
    out.update(wl.layer_counts([r for r, _ in plain]))
    out["trace.overhead_ratio"] = (
        out["trace.wall_s"][0] / median(w for _, w in plain), "ratio",
        "median traced / median untraced iteration")
    return out, {}


def result_metrics(metrics: dict, units: dict[str, str], trace: bool
                   ) -> dict:
    """The metrics of the result line: exactly those of ``units``.

    A per-layer metric the traced run could not measure (its entry
    point or stats API is missing) reads 0 and is named on stderr; a
    missing end-to-end metric, or a unit that differs from the
    manifest's, is an error in the benchmark."""
    out = {}
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                raise RuntimeError(f"end-to-end metric {name} not measured")
            print(f"not measured, reported as 0: {name}", file=sys.stderr)
            metrics[name] = (0, unit, "not measured")
        if metrics[name][1] != unit:
            raise RuntimeError(f"{name} measured in {metrics[name][1]}, "
                               f"BENCHMARK.json says {unit}")
        out[name] = {"value": metrics[name][0], "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    units = manifest_units(bool(args.trace))
    workdir = ROOT / WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep sqlite's and Python's temporary files inside the checkout too
    # (inherited by the set-up probes).
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(workdir)
    checks = Checks()
    try:
        wl = WORKLOADS[args.workload].Workload(args.seed, workdir)
        metrics, info = (traced if args.trace else end_to_end)(
            wl, args, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORKDIR).rmdir()
        except OSError:
            pass

    result = result_metrics(metrics, units, bool(args.trace))
    for name, (value, unit, note) in {**metrics, **info}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
    print(f"{args.workload} fail_ratio = "
          f"{checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
