"""Experiment R-resilience: the price of reliability under loss.

Reliable echo (Ring) and synchronizer-driven FloodSet (Complete) run
across a grid of loss probabilities.  The *shape* asserted:

- every run reaches the correct decision at every loss rate (that is the
  transport's whole guarantee — plain echo already fails at p=0.2);
- at p=0 the wrapper is transparent: zero retransmissions, zero
  duplicates;
- retransmissions grow monotonically (per seed-averaged totals) with the
  loss rate, and stay within the retry policy's budget — reliability
  costs messages, never correctness.

Standalone mode (CI chaos-smoke job)::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick

writes ``benchmarks/out/resilience.json`` and exits nonzero if any run
misses its decision or exhausts a retry budget.

Scaling mode (CI bench-smoke job)::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick --scale

runs the replicated log over a processes x loss x partition-count grid
and re-asserts the acceptance scenario (commits preserved under a seeded
partition->heal->churn plan at loss 0.3).  Writes
``benchmarks/out/resilience_scale.json``; exits nonzero on any
violation.
"""

import json
import pathlib
import time

OUT_DIR = pathlib.Path(__file__).parent / "out"
OUT_JSON = OUT_DIR / "resilience.json"
SCALE_JSON = OUT_DIR / "resilience_scale.json"

LOSS_GRID = (0.0, 0.1, 0.3, 0.5)


def _measure(seeds: range, n: int = 6) -> dict:
    from repro.distributed import (
        FailurePlan,
        Ring,
        run_echo_reliable,
        run_floodset_reliable,
    )

    rows = []
    ok = True
    for loss in LOSS_GRID:
        for seed in seeds:
            failures = (
                FailurePlan(loss_probability=loss, seed=seed)
                if loss else None
            )
            echo = run_echo_reliable(Ring(n), failures=failures)
            flood = run_floodset_reliable(
                n, f=1,
                failures=FailurePlan(loss_probability=loss, seed=seed)
                if loss else None)
            correct = (
                echo.decisions.get(0) == n
                and flood.consensus() == 0
                and len(flood.decisions) == n
                and echo.retries_gave_up == 0
                and flood.retries_gave_up == 0
            )
            ok &= correct
            rows.append({
                "loss": loss,
                "seed": seed,
                "echo_decision": echo.decisions.get(0),
                "echo_messages": echo.messages_sent,
                "echo_retx": echo.retransmissions,
                "echo_dups": echo.duplicates_suppressed,
                "echo_finish_time": echo.finish_time,
                "flood_consensus": flood.consensus(),
                "flood_retx": flood.retransmissions,
                "correct": correct,
            })

    def avg_retx(loss: float) -> float:
        sub = [r["echo_retx"] + r["flood_retx"]
               for r in rows if r["loss"] == loss]
        return sum(sub) / len(sub)

    curve = {loss: avg_retx(loss) for loss in LOSS_GRID}
    monotone = all(
        curve[a] <= curve[b]
        for a, b in zip(LOSS_GRID, LOSS_GRID[1:])
    )
    return {
        "n": n,
        "seeds": len(seeds),
        "rows": rows,
        "avg_retx_by_loss": {str(k): v for k, v in curve.items()},
        "retx_monotone_in_loss": monotone,
        "lossless_transparent": curve[0.0] == 0.0,
        "ok": ok and monotone and curve[0.0] == 0.0,
    }


def _render(m: dict) -> str:
    lines = [f"{'loss':>6s} {'avg retx (echo+flood)':>22s}"]
    for loss, retx in m["avg_retx_by_loss"].items():
        lines.append(f"{float(loss):>6.1f} {retx:>22.1f}")
    lines.append(
        f"all {len(m['rows'])} runs correct: {m['ok']}; "
        f"retx monotone in loss: {m['retx_monotone_in_loss']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scaling mode: replicated log across processes x loss x partitions
# ---------------------------------------------------------------------------


def _acceptance_plan():
    """The ISSUE acceptance fault schedule: partition -> heal -> churn
    with state loss, all at loss probability 0.3, seeded."""
    from repro.distributed import FailurePlan, heal, partition

    plan = FailurePlan(loss_probability=0.3, seed=7,
                       churn={4: [(40.0, 70.0)]})
    plan = partition(10.0, [{0, 1, 2}, {3, 4}], plan=plan)
    return heal(35.0, plan=plan)


def _measure_acceptance() -> dict:
    """Replicated log at loss 0.3 under partition->heal->churn: every
    replica — including the churned one that lost all state — must end
    on the full committed command set, and no applied prefix may be
    lost from any final state."""
    from repro.distributed.algorithms.replog import (
        record_run,
        run_replicated_log,
    )

    m = run_replicated_log(
        5, {0: ["a", "b", "c"], 3: ["x"]}, failures=_acceptance_plan(),
        seed=2, heartbeat_interval=4.0, max_time=5000,
        on_limit="truncate")
    rec = record_run(m, 5)
    expected = set(rec.expected_commands())
    finals = rec.final_prefixes()
    committed_preserved = all(
        any(f[: len(p)] == p for f in finals)
        for p in rec.applied_prefixes()
    )
    ok = (
        not m.truncated
        and len(m.decisions) == 5
        and all(set(p) == expected for p in m.decisions.values())
        and committed_preserved
        and m.recoveries == 1
    )
    return {
        "ok": ok,
        "decided": len(m.decisions),
        "committed_preserved": committed_preserved,
        "log_commits": m.log_commits,
        "elections_started": m.elections_started,
        "term_changes": m.term_changes,
        "partition_drops": m.partition_drops,
        "partition_retx": m.partition_retx,
        "recoveries": m.recoveries,
        "recovery_replays": m.recovery_replays,
        "finish_time": m.finish_time,
    }


def _scale_row(n: int, loss: float, parts: int) -> dict:
    """One curve point: an n-replica log at the given loss rate, split
    into ``parts`` groups (healing mid-run) when parts > 1."""
    from repro.distributed import FailurePlan, heal, partition
    from repro.distributed.algorithms.replog import run_replicated_log

    plan = FailurePlan(loss_probability=loss, seed=11) \
        if loss or parts > 1 else None
    if parts > 1:
        # Contiguous split; the first group keeps a quorum.
        cut = n // 2 + 1
        plan = partition(10.0, [set(range(cut)), set(range(cut, n))],
                         plan=plan)
        plan = heal(30.0, plan=plan)
    t0 = time.perf_counter()
    m = run_replicated_log(
        n, {0: ["a", "b"], 1: ["z"]}, failures=plan, seed=3,
        max_time=5000, on_limit="truncate")
    wall = time.perf_counter() - t0
    expected = set(m.expected_commands)
    ok = (
        not m.truncated
        and len(m.decisions) == n
        and all(set(p) == expected for p in m.decisions.values())
    )
    return {
        "processes": n,
        "loss": loss,
        "partitions": parts,
        "ok": ok,
        "messages": m.messages_sent,
        "elections_started": m.elections_started,
        "term_changes": m.term_changes,
        "partition_retx": m.partition_retx,
        "finish_time": m.finish_time,
        "wall_s": round(wall, 3),
    }


def _measure_scale(quick: bool) -> dict:
    """The --scale payload: acceptance scenario and scaling curve."""
    acceptance = _measure_acceptance()

    n_grid = (16, 64) if quick else (16, 64, 256)
    rows = [
        _scale_row(n, loss, parts)
        for n in n_grid
        for loss in (0.0, 0.1)
        for parts in (1, 2)
    ]
    return {
        "acceptance": acceptance,
        "curve": rows,
        "ok": acceptance["ok"] and all(r["ok"] for r in rows),
    }


def _render_scale(m: dict) -> str:
    lines = [
        "acceptance (n=5, loss 0.3, partition->heal->churn): "
        f"ok={m['acceptance']['ok']} "
        f"commits={m['acceptance']['log_commits']} "
        f"replays={m['acceptance']['recovery_replays']}",
        f"{'n':>6s} {'loss':>5s} {'parts':>5s} "
        f"{'msgs':>8s} {'elect':>5s} {'wall s':>7s} {'ok':>3s}",
    ]
    for r in m["curve"]:
        lines.append(
            f"{r['processes']:>6d} {r['loss']:>5.2f} "
            f"{r['partitions']:>5d} "
            f"{r['messages']:>8d} {r['elections_started']:>5d} "
            f"{r['wall_s']:>7.2f} {str(r['ok']):>3s}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_replicated_log_acceptance_scenario(record):
    m = _measure_acceptance()
    record("resilience-acceptance",
           "replicated log, loss 0.3 partition->heal->churn: "
           f"ok={m['ok']} commits={m['log_commits']} "
           f"partition_retx={m['partition_retx']} "
           f"replays={m['recovery_replays']}")
    assert m["ok"], m
    assert m["committed_preserved"]


def test_scale_curve_small(record):
    rows = [
        _scale_row(n, loss, parts)
        for n in (16, 64)
        for loss in (0.0, 0.1)
        for parts in (1, 2)
    ]
    record("resilience-scale", "\n".join(
        f"n={r['processes']} loss={r['loss']} parts={r['partitions']} "
        f"msgs={r['messages']} ok={r['ok']}" for r in rows))
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]


def test_reliability_is_correct_at_every_loss_rate(record):
    m = _measure(seeds=range(3))
    record("resilience", _render(m))
    assert all(r["correct"] for r in m["rows"]), [
        r for r in m["rows"] if not r["correct"]
    ]
    # Transparency at p=0: the wrapper adds no retransmissions.
    assert m["lossless_transparent"]
    # Retransmission volume tracks the loss rate.
    assert m["retx_monotone_in_loss"], m["avg_retx_by_loss"]


# ---------------------------------------------------------------------------
# standalone mode (CI chaos-smoke job)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer seeds / smaller curve (CI smoke mode)")
    parser.add_argument("--scale", action="store_true",
                        help="replicated-log scaling mode: processes x "
                             "loss x partition curve and acceptance "
                             "scenario at loss 0.3")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help=f"summary JSON output path (default {OUT_JSON}"
                             f", or {SCALE_JSON} with --scale)")
    args = parser.parse_args(argv)

    if args.scale:
        m = _measure_scale(quick=args.quick)
        print(_render_scale(m))
        out = args.json if args.json is not None else SCALE_JSON
        fail_msg = ("FAIL: a replicated-log run lost a commit or missed a "
                    "decision")
    else:
        m = _measure(seeds=range(2 if args.quick else 10))
        print(_render(m))
        out = args.json if args.json is not None else OUT_JSON
        fail_msg = ("FAIL: a reliable run missed its decision, exhausted "
                    "its retry budget, or broke the retx-vs-loss shape")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(m, indent=2) + "\n")
    print(f"summary written to {out}")
    if not m["ok"]:
        print(fail_msg)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
