"""``simulation``: the serial replicated log under faults.

``run_replicated_log`` with :data:`N` replicas over ``ReliableChannel``
with the heartbeat failure detector on, under a seeded fault plan: loss
0.1, a partition then a heal, and one churned replica; several ranks
propose.  The same inputs run every iteration, so iterations differ
only by machine noise.  ``record_run`` is the check: every applied log
is prefix-ordered with every other and holds only proposed commands,
once each, and every command reached at least a quorum of replicas.
"""

from __future__ import annotations

import random

from .common import Checks, scaled_median, time_call

N = 64
PROPOSERS = 4


def make_inputs(seed: int) -> tuple[dict, dict]:
    """(proposals, fault-plan arguments) for ``seed``."""
    rng = random.Random(seed)
    ranks = list(range(N))
    rng.shuffle(ranks)
    majority = set(ranks[: N // 2 + N // 8])
    proposals = {r: [f"c{r}-{i}" for i in range(2)]
                 for r in sorted(rng.sample(range(N), PROPOSERS))}
    plan = {"loss": 0.1, "seed": seed, "groups": [majority,
                                                   set(ranks) - majority],
            "churned": rng.choice(ranks)}
    return proposals, plan


def make_plan(plan: dict):
    from repro.distributed.failures import FailurePlan, heal, partition

    failures = FailurePlan(loss_probability=plan["loss"], seed=plan["seed"],
                           churn={plan["churned"]: [(40.0, 70.0)]})
    failures = partition(10.0, plan["groups"], plan=failures)
    return heal(35.0, plan=failures)


def build(seed: int, workdir) -> object:
    """Set-up: import the simulator and build the fault plan."""
    from repro.distributed.algorithms import replog  # noqa: F401

    return make_plan(make_inputs(seed)[1])


def _prefix(a: tuple, b: tuple) -> bool:
    return b[: len(a)] == a


class Workload:
    name = "simulation"

    def __init__(self, seed: int, workdir) -> None:
        from repro.distributed.algorithms import replog

        self.replog = replog
        self.seed = seed
        self.proposals, self.plan = make_inputs(seed)

    def warmup(self, checks: Checks) -> None:
        """A five-replica run: loads what the first run would load."""
        m = self.replog.run_replicated_log(5, {0: ["w"]}, seed=self.seed)
        checks.check(len(m.decisions) == 5, "warm-up run")

    def iteration(self, checks: Checks) -> dict:
        replog = self.replog
        failures = make_plan(self.plan)
        wall, m = time_call(lambda: replog.run_replicated_log(
            N, self.proposals, failures=failures, seed=self.seed,
            heartbeat_interval=4.0, max_time=5000, on_limit="truncate"))
        checks.check(not m.truncated, "run reached quiescence")
        rec = replog.record_run(m, N)
        expected = set(rec.expected_commands())
        prefixes = rec.applied_prefixes()
        longest = max(prefixes, key=len, default=())
        checks.check(all(_prefix(p, longest) for p in prefixes),
                     "applied logs are prefix-ordered")
        checks.check(set(longest) <= expected
                     and len(set(longest)) == len(longest),
                     "applied commands are proposed ones, once each")
        complete = sum(1 for p in rec.final_prefixes()
                       if set(p) >= expected)
        checks.check(complete >= rec.quorum(),
                     "every command reached a quorum of replicas")
        return {"phases": {"run": wall}, "messages_sent": m.messages_sent,
                "messages_delivered": m.messages_delivered,
                "retransmissions": m.retransmissions,
                "elections_started": m.elections_started,
                "log_commits": m.log_commits}

    def info(self, samples: list[dict], speed: float) -> dict:
        """One run is the only phase: ``sim_wall_s`` is ``iter_s``."""
        value, note = scaled_median((s["phases"]["run"] for s in samples),
                                    speed, "runs")
        return {"sim_wall_s": (value, "s", note + "; the same as iter_s")}

    def layer_counts(self, samples: list[dict]) -> dict:
        last = samples[-1]
        return {f"distributed.{k}": (last[k], "count", "one untraced run")
                for k in ("messages_sent", "messages_delivered",
                          "retransmissions", "elections_started",
                          "log_commits")}
