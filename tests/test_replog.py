"""Tests for the Raft-style replicated log: leader election, quorum
commit, safety under partition/heal/churn at loss 0.3 (the acceptance
scenario), the ReplicatedLogSafety semantic axioms, run-level
determinism of a seeded schedule, and the new taxonomy rows."""

import pytest

from repro.concepts import models
from repro.distributed import (
    Complete,
    FailurePlan,
    Simulator,
    Synchronous,
    churn,
    heal,
    partition,
    refines,
    standard_taxonomy,
)
from repro.distributed.algorithms.replog import (
    ReplicatedLog,
    ReplicatedLogRecord,
    record_run,
    run_replicated_log,
)
from repro.distributed.reliable import wrap_reliable
from repro.resilience.concepts import (
    ReplicatedLogSafety,
    register_replicated_log_models,
)

ALL_CMDS = (("cmd", 0, 0, "a"), ("cmd", 0, 1, "b"), ("cmd", 0, 2, "c"),
            ("cmd", 3, 0, "x"))


def acceptance_plan() -> FailurePlan:
    """The ISSUE's acceptance scenario: partition -> heal -> churn at
    loss 0.3, seeded."""
    plan = FailurePlan(loss_probability=0.3, seed=7,
                       churn={4: [(40.0, 70.0)]})
    plan = partition(10.0, [{0, 1, 2}, {3, 4}], plan=plan)
    return heal(35.0, plan=plan)


def run_acceptance(**kwargs):
    return run_replicated_log(
        5, {0: ["a", "b", "c"], 3: ["x"]}, failures=acceptance_plan(),
        seed=2, heartbeat_interval=4.0, max_time=5000,
        on_limit="truncate", **kwargs)


class TestReplicatedLogBasics:
    def test_clean_run_commits_everywhere(self):
        m = run_replicated_log(5, {0: ["a", "b", "c"], 3: ["x"]}, seed=1)
        assert len(m.decisions) == 5
        assert m.consensus() is not None
        assert set(m.consensus()) == set(ALL_CMDS)
        assert m.log_commits > 0
        assert not m.truncated

    def test_single_node_degenerates_to_local_log(self):
        m = run_replicated_log(1, {0: ["only"]}, seed=0)
        assert m.decisions[0] == (("cmd", 0, 0, "only"),)

    def test_one_leader_per_term_clean(self):
        m = run_replicated_log(7, {2: ["v"]}, seed=3)
        rec = record_run(m, 7)
        assert all(len(v) == 1 for v in rec.leaders_by_term().values())

    def test_followers_forward_proposals_to_leader(self):
        # Proposals originate at three different ranks; at most one of
        # them can be the leader, so forwarding must carry the rest.
        m = run_replicated_log(5, {1: ["p"], 2: ["q"], 4: ["r"]}, seed=4)
        assert len(m.decisions) == 5
        assert set(m.consensus()) == {
            ("cmd", 1, 0, "p"), ("cmd", 2, 0, "q"), ("cmd", 4, 0, "r")}

    def test_commit_history_prefixes_grow(self):
        m = run_replicated_log(5, {0: ["a", "b"]}, seed=5)
        rec = record_run(m, 5)
        per_rank: dict = {}
        for _t, rank, prefix in rec.history:
            prev = per_rank.get(rank, ())
            assert prefix[: len(prev)] == prev
            per_rank[rank] = prefix


class TestReplicatedLogUnderFaults:
    """The tentpole acceptance: commits survive partition, heal, and
    churn with state loss at loss 0.3."""

    def test_acceptance_scenario_commits_and_preserves(self):
        m = run_acceptance()
        assert not m.truncated
        assert len(m.decisions) == 5
        # Every replica — including the churned rank 4 that lost all
        # state mid-run — ends on the full committed prefix.
        for prefix in m.decisions.values():
            assert set(prefix) == set(ALL_CMDS)
        rec = record_run(m, 5)
        # No committed entry was ever lost: every applied prefix
        # survives into some final state.
        finals = rec.final_prefixes()
        for p in rec.applied_prefixes():
            assert any(f[: len(p)] == p for f in finals)
        assert m.recoveries == 1
        assert m.partition_drops > 0

    def test_state_loss_triggers_leader_replay(self):
        m = run_acceptance()
        # The churned follower came back empty; the leader walked
        # next_index back and replayed the log.
        assert m.recovery_replays > 0

    def test_prevote_prevents_deposing_healthy_leader(self):
        # A minority replica isolated for a long stretch must not
        # inflate its term and depose the leader on heal (pre-vote).
        plan = FailurePlan(loss_probability=0.15, seed=13)
        plan = partition(14.0, [{0}, {1, 2, 3, 4}], plan=plan)
        plan = heal(60.0, plan=plan)
        m = run_replicated_log(
            5, {1: ["p", "q"], 2: ["r"]}, failures=plan, seed=5,
            heartbeat_interval=4.0, max_time=5000, on_limit="truncate")
        assert len(m.decisions) == 5          # rank 0 catches up post-heal
        rec = record_run(m, 5)
        assert len(rec.leaders_by_term()) == 1  # nobody was deposed

    def test_metrics_summary_reports_replog_section(self):
        m = run_acceptance()
        s = m.summary()
        assert "replog[" in s
        assert "faults[" in s


class TestReplicatedLogSafetyConcept:
    """Safety laws as semantic axioms, checked through the standard
    concept machinery over seeded partition/heal/churn runs."""

    def test_record_models_the_concept(self):
        register_replicated_log_models()
        models.check(ReplicatedLogSafety, ReplicatedLogRecord)

    def test_axioms_hold_over_sampled_runs(self):
        register_replicated_log_models()
        models.check_semantics(ReplicatedLogSafety, ReplicatedLogRecord)

    def test_axioms_reject_a_forged_double_leader(self):
        from repro.concepts.errors import SemanticAxiomViolation
        register_replicated_log_models()
        forged = ReplicatedLogRecord(
            n=3, leadership=((1, 0), (1, 2)), history=(),
            finals=((0, ()), (1, ()), (2, ())), expected=())
        with pytest.raises(SemanticAxiomViolation):
            models.check_semantics(ReplicatedLogSafety, ReplicatedLogRecord,
                                   samples=[(forged,)])

    def test_axioms_reject_lost_commits(self):
        from repro.concepts.errors import SemanticAxiomViolation
        register_replicated_log_models()
        forged = ReplicatedLogRecord(
            n=3, leadership=((1, 0),),
            history=((5.0, 1, (("cmd", 0, 0, "a"),)),),
            finals=((0, ()), (1, ()), (2, ())),
            expected=())
        with pytest.raises(SemanticAxiomViolation):
            models.check_semantics(ReplicatedLogSafety, ReplicatedLogRecord,
                                   samples=[(forged,)])


class TestRunDeterminism:
    """A seeded run is reproducible: RunMetrics.as_comparable() is the
    oracle, and a run truncated at the same max_time must match too."""

    def _build(self):
        proposals = {0: ["a", "b", "c"], 3: ["x"]}
        procs = [ReplicatedLog(r, n=5, proposals=proposals.get(r, ()),
                               seed=2, expected=4)
                 for r in range(5)]
        return wrap_reliable(procs, heartbeat_interval=4.0)

    def _assert_reproducible(self, max_time, truncated):
        a, b = (Simulator(Complete(5), self._build(), Synchronous(),
                          acceptance_plan(), max_time=max_time,
                          on_limit="truncate").run()
                for _ in range(2))
        assert a.truncated is b.truncated is truncated
        assert a.as_comparable() == b.as_comparable()

    def test_full_fault_schedule_is_reproducible(self):
        self._assert_reproducible(5000, truncated=False)

    def test_truncated_run_is_reproducible(self):
        self._assert_reproducible(50.0, truncated=True)


class TestReplogTaxonomy:
    def test_crash_recovery_refinement_chain(self):
        assert refines("failures", "none", "crash")
        assert refines("failures", "crash", "crash-recovery")
        assert refines("failures", "crash-recovery", "byzantine")
        assert not refines("failures", "crash-recovery", "crash")
        assert refines("problem", "replication", "consensus")

    def test_replication_row_registered(self):
        tax = standard_taxonomy()
        names = {e.name for e in tax.query(problem="replication")}
        assert names == {"raft-replicated-log"}

    def test_crash_recovery_environment_selects_raft(self):
        tax = standard_taxonomy()
        usable = {e.name for e in tax.query(problem="consensus",
                                            failures="crash-recovery")}
        assert "raft-replicated-log" in usable
        # Plain crash-stop consensus does not survive crash-recovery.
        assert "floodset" not in usable

    def test_resilient_floodset_row_registered(self):
        tax = standard_taxonomy()
        names = {e.name for e in tax.query(problem="consensus",
                                           failures="crash")}
        assert "resilient-floodset" in names

    def test_classification_coordinates(self):
        tax = standard_taxonomy()
        c = tax.entries["raft-replicated-log"].classification
        assert c.failures == "crash-recovery"
        assert c.strategy == "heart beat"
        assert c.timing == "partially synchronous"
