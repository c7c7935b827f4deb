"""Run metrics: the measurements the taxonomy organizes.

"In most of the literature, the performance of parallel and distributed
algorithms is typically indicated only in terms of asymptotic bounds on
numbers of messages and time complexities, omitting other performance
issues.  For example, local computation at a node is rarely accounted for."

So we account for all three: messages (total and per-process), time
(makespan; equals rounds under synchronous timing), and local computation
(explicitly charged by algorithms via ``ctx.charge``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass
class RunMetrics:
    n: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    per_process_sent: Counter = field(default_factory=Counter)
    local_computation: Counter = field(default_factory=Counter)
    decisions: dict[int, Any] = field(default_factory=dict)
    finish_time: float = 0.0
    rounds: int = 0
    #: Reliable-transport accounting (zero unless processes run over a
    #: :class:`~repro.distributed.reliable.ReliableChannel`): data
    #: retransmissions, duplicate deliveries suppressed at receivers,
    #: acks sent, sends abandoned after the retry budget, and failure-
    #: detector suspicion events.
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0
    retries_gave_up: int = 0
    fd_suspicions: int = 0
    #: Partition/churn accounting: messages deterministically dropped by
    #: an active partition, retransmissions attempted across an active
    #: partition, processes recovered from churn, and leader-driven log
    #: replays after a follower lost state (next_index rollbacks).
    partition_drops: int = 0
    partition_retx: int = 0
    recoveries: int = 0
    recovery_replays: int = 0
    #: Replicated-log accounting: elections started, term adoptions,
    #: entries newly committed at a leader, every leadership assumption
    #: (term, rank), and the applied-prefix history
    #: (time, rank, applied-commands tuple) the safety axioms check.
    elections_started: int = 0
    term_changes: int = 0
    log_commits: int = 0
    leadership_events: list = field(default_factory=list)
    commit_history: list = field(default_factory=list)
    #: True when the run was cut off by ``max_time``/``max_messages``
    #: rather than reaching quiescence — a truncated run is NOT a
    #: completed one, and every consumer can (and should) tell them apart.
    truncated: bool = False
    truncation_reason: str = ""

    @property
    def total_local_computation(self) -> int:
        return sum(self.local_computation.values())

    @property
    def max_local_computation(self) -> int:
        return max(self.local_computation.values(), default=0)

    def consensus(self) -> Any:
        """The common decision, or None when processes disagree/undecided."""
        values = set(self.decisions.values())
        if len(values) == 1 and len(self.decisions) > 0:
            return next(iter(values))
        return None

    def agreement_among(self, ranks: list[int]) -> Any:
        values = {self.decisions.get(r) for r in ranks}
        if len(values) == 1:
            return next(iter(values))
        return None

    def summary(self) -> str:
        out = (
            f"n={self.n} messages={self.messages_sent} "
            f"(delivered={self.messages_delivered}, "
            f"dropped={self.messages_dropped}) time={self.finish_time:.2f} "
            f"rounds={self.rounds} local-comp={self.total_local_computation} "
            f"(max/node={self.max_local_computation})"
        )
        if self.retransmissions or self.duplicates_suppressed \
                or self.retries_gave_up:
            out += (
                f" reliable[retx={self.retransmissions} "
                f"dups={self.duplicates_suppressed} acks={self.acks_sent} "
                f"gave-up={self.retries_gave_up}]"
            )
        if self.partition_drops or self.recoveries:
            out += (
                f" faults[part-drops={self.partition_drops} "
                f"part-retx={self.partition_retx} "
                f"recoveries={self.recoveries}]"
            )
        if self.elections_started or self.log_commits:
            out += (
                f" replog[elections={self.elections_started} "
                f"terms={self.term_changes} commits={self.log_commits} "
                f"replays={self.recovery_replays}]"
            )
        if self.truncated:
            out += f" TRUNCATED[{self.truncation_reason}]"
        return out

    def as_comparable(self) -> dict:
        """Every field as plain data — the run-level determinism oracle:
        two runs of one seeded schedule must compare equal
        (``a.as_comparable() == b.as_comparable()``), including runs
        truncated at the same ``max_time``."""
        return {
            "n": self.n,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "per_process_sent": dict(self.per_process_sent),
            "local_computation": dict(self.local_computation),
            "decisions": dict(self.decisions),
            "finish_time": self.finish_time,
            "rounds": self.rounds,
            "retransmissions": self.retransmissions,
            "duplicates_suppressed": self.duplicates_suppressed,
            "acks_sent": self.acks_sent,
            "retries_gave_up": self.retries_gave_up,
            "fd_suspicions": self.fd_suspicions,
            "partition_drops": self.partition_drops,
            "partition_retx": self.partition_retx,
            "recoveries": self.recoveries,
            "recovery_replays": self.recovery_replays,
            "elections_started": self.elections_started,
            "term_changes": self.term_changes,
            "log_commits": self.log_commits,
            "leadership_events": list(self.leadership_events),
            "commit_history": list(self.commit_history),
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
        }
