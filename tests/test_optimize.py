"""Tests for the event-graph optimization passes (Figure 8)."""

import pytest

from repro.core.events import EventGraph, EventKind, SyncDir
from repro.core.fsmplan import build_process_plan
from repro.core.graph_builder import GraphBuilder
from repro.core.optimize import (
    optimize,
    pass_merge_labels,
    pass_remove_branch_joins,
    pass_shift_branch_joins,
    pass_unbalanced_joins,
)
from repro.core.oracle import OracleLimitError, TimingOracle

from helpers import branch_await_process, port_traces


class TestMergeLabels:
    def test_merges_identical_delays(self):
        """Figure 8 (a): two #N successors of one event merge."""
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.DELAY, (r.eid,), delay=2)
        b = g.add(EventKind.DELAY, (r.eid,), delay=2)
        ta = g.add(EventKind.DELAY, (a.eid,), delay=1)
        tb = g.add(EventKind.DELAY, (b.eid,), delay=1)
        new, mapping, removed = pass_merge_labels(g)
        assert removed >= 1
        assert mapping[a.eid] == mapping[b.eid]

    def test_keeps_different_delays(self):
        g = EventGraph()
        r = g.root()
        g.add(EventKind.DELAY, (r.eid,), delay=1)
        g.add(EventKind.DELAY, (r.eid,), delay=2)
        _, _, removed = pass_merge_labels(g)
        assert removed == 0

    def test_never_merges_a_successor_with_two_predecessors(self):
        """Both delays are #1 successors of the root, but the second also
        waits for a sync: merging it into the first would stop the wait."""
        g = EventGraph()
        r = g.root()
        s = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
                  direction=SyncDir.RECV)
        g.add(EventKind.DELAY, (r.eid,), delay=1)
        g.add(EventKind.DELAY, (r.eid, s.eid), delay=1)
        _, _, removed = pass_merge_labels(g)
        assert removed == 0

    def test_never_merges_syncs(self):
        g = EventGraph()
        r = g.root()
        g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
              direction=SyncDir.SEND)
        g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
              direction=SyncDir.SEND)
        _, _, removed = pass_merge_labels(g)
        assert removed == 0


class TestUnbalancedJoins:
    def test_removes_join_dominated_by_one_pred(self):
        """Figure 8 (b): join(a, b) with a <= b and a an ancestor of b."""
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.DELAY, (r.eid,), delay=1)
        b = g.add(EventKind.DELAY, (a.eid,), delay=2)
        j = g.add(EventKind.JOIN_ALL, (a.eid, b.eid))
        tail = g.add(EventKind.DELAY, (j.eid,), delay=1)
        new, mapping, removed = pass_unbalanced_joins(g)
        assert removed == 1
        assert mapping[j.eid] == mapping[b.eid]

    def test_keeps_joins_of_incomparable_preds(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="a",
                  direction=SyncDir.RECV)
        b = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="b",
                  direction=SyncDir.RECV)
        g.add(EventKind.JOIN_ALL, (a.eid, b.eid))
        _, _, removed = pass_unbalanced_joins(g)
        assert removed == 0

    def test_requires_structural_dominance(self):
        """Timing-equality alone must not merge: a zero-slack sync is
        timing-equal to its sibling but carries a data dependency."""
        g = EventGraph()
        r = g.root()
        s = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
                  direction=SyncDir.RECV, static_slack=0)
        j = g.add(EventKind.JOIN_ALL, (r.eid, s.eid))
        new, mapping, removed = pass_unbalanced_joins(g)
        # merged into the sync, never into the root
        assert removed == 1
        assert mapping[j.eid] == mapping[s.eid]

    def test_merged_join_appends_its_effects_after_the_syncs(self):
        """The join's latches and commits follow the sync's, in order:
        latch order is the overlay's insertion order, which state
        images hash."""
        from repro.codegen.rexpr import RLit
        from repro.core.events import (CommitPrint, CommitReg, LatchExpr,
                                       LatchRecv)
        g = EventGraph()
        r = g.root()
        s = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
                  direction=SyncDir.RECV)
        s.latches.append(LatchRecv(0))
        s.commits.append(CommitPrint("got", None))
        j = g.add(EventKind.JOIN_ALL, (r.eid, s.eid))
        cond, value = RLit(1, 1), RLit(7, 8)
        j.latches.append(LatchExpr(1, cond))
        j.commits.append(CommitReg("x", value))
        new, mapping, removed = pass_unbalanced_joins(g)
        assert removed == 1
        merged = new[mapping[j.eid]]
        assert merged.kind is EventKind.SYNC
        assert merged.latches == [LatchRecv(0), LatchExpr(1, cond)]
        assert merged.commits == [CommitPrint("got", None),
                                  CommitReg("x", value)]

    def test_keeps_join_whose_pred_is_an_ancestor_on_one_arm_only(self):
        """The sync is an ancestor of the any-join through the true arm
        only: on the false arm the any-join fires without it."""
        g = EventGraph()
        r = g.root()
        s = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
                  direction=SyncDir.RECV)
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        wait = g.add(EventKind.JOIN_ALL, (bt.eid, s.eid))
        d = g.add(EventKind.DELAY, (bf.eid,), delay=1)
        arms = g.add(EventKind.JOIN_ANY, (wait.eid, d.eid))
        g.add(EventKind.JOIN_ALL, (s.eid, arms.eid))
        assert g.is_ancestor(s.eid, arms.eid)
        assert not g.must_precede(s.eid, arms.eid)
        _, _, removed = pass_unbalanced_joins(g)
        assert removed == 0


    def test_keeps_an_any_join_of_two_ordered_predecessors(self):
        """The root must precede the delay, but an any-join of the two
        fires with the root, a cycle before the delay."""
        g = EventGraph()
        r = g.root()
        d = g.add(EventKind.DELAY, (r.eid,), delay=1)
        g.add(EventKind.JOIN_ANY, (r.eid, d.eid))
        assert g.must_precede(r.eid, d.eid)
        _, _, removed = pass_unbalanced_joins(g)
        assert removed == 0

    def test_merges_an_any_join_left_with_one_predecessor(self):
        g = EventGraph()
        r = g.root()
        d = g.add(EventKind.DELAY, (r.eid,), delay=1)
        j = g.add(EventKind.JOIN_ANY, (d.eid,))
        _, mapping, removed = pass_unbalanced_joins(g)
        assert removed == 1
        assert mapping[j.eid] == mapping[d.eid]


class TestOptimizedRunsLikeUnoptimized:
    """Programs whose joins read values bound through one arm of an
    ``if``: the optimized and unoptimized plans transfer the same values
    in the same cycles on both backends."""

    @pytest.mark.parametrize("backend", ["interp", "pycompiled"])
    def test_await_of_a_one_armed_binding_is_kept(self, backend):
        p = branch_await_process("B")
        traces = port_traces(p, backend)
        assert traces == port_traces(p, backend, do_optimize=False)
        assert [c for c, _v in traces["out"]] == [1, 7, 14, 21, 28, 35, 42]

    def test_join_the_oracle_cannot_decide_is_merged(self):
        """``x`` is an any-join whose sides the oracle sees as reachable
        together (a join conflict), so no ``<=G`` query over it is
        decided; the root must precede it all the same."""
        p = branch_await_process("C")
        g = GraphBuilder(p, p.threads[0]).build().graph
        (j,) = [e for e in g.events if e.kind is EventKind.JOIN_ALL]
        root, outer = j.preds
        assert (g[root].kind, g[outer].kind) == (EventKind.ROOT,
                                                 EventKind.JOIN_ANY)
        with pytest.raises(OracleLimitError, match="multiple reachable"):
            TimingOracle(g).event_le(root, outer)
        _, mapping, removed = pass_unbalanced_joins(g)
        assert removed == 1 and mapping[j.eid] == mapping[outer]
        stats = build_process_plan(p).optimize_stats[0]
        assert stats.removed["unbalanced_joins"] == 1

    @pytest.mark.parametrize("backend", ["interp", "pycompiled"])
    def test_merged_join_over_nested_branches_runs_alike(self, backend):
        p = branch_await_process("C")
        traces = port_traces(p, backend)
        assert traces == port_traces(p, backend, do_optimize=False)
        assert len(traces["out"]) > 10


class TestBranchJoins:
    def test_removes_empty_branch_join(self):
        """Figure 8 (d): a join of two empty branches folds into parent."""
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        j = g.add(EventKind.JOIN_ANY, (bt.eid, bf.eid))
        tail = g.add(EventKind.DELAY, (j.eid,), delay=1)
        new, mapping, removed = pass_remove_branch_joins(g)
        assert removed == 3  # join + both branch events
        assert mapping[j.eid] == mapping[r.eid]

    def test_keeps_join_with_actions_in_branches(self):
        from repro.core.events import CommitReg
        from repro.codegen.rexpr import RLit
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        bt.commits.append(CommitReg("r", RLit(1, 1)))
        g.add(EventKind.JOIN_ANY, (bt.eid, bf.eid))
        _, _, removed = pass_remove_branch_joins(g)
        assert removed == 0

    def test_shift_branch_joins(self):
        """Figure 8 (c): identical action-free #N tails shift past join."""
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        dt = g.add(EventKind.DELAY, (bt.eid,), delay=2)
        df = g.add(EventKind.DELAY, (bf.eid,), delay=2)
        j = g.add(EventKind.JOIN_ANY, (dt.eid, df.eid))
        new, mapping, removed = pass_shift_branch_joins(g)
        assert removed == 1
        # one fewer event: two delays became one
        assert len(new) == len(g) - 1


    def test_never_shifts_a_delay_with_two_parents(self):
        """The true arm's delay also waits for a sync; a join of the two
        arms' first parents would drop that wait."""
        g = EventGraph()
        r = g.root()
        s = g.add(EventKind.SYNC, (r.eid,), endpoint="e", message="m",
                  direction=SyncDir.RECV)
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        dt = g.add(EventKind.DELAY, (bt.eid, s.eid), delay=2)
        df = g.add(EventKind.DELAY, (bf.eid,), delay=2)
        g.add(EventKind.JOIN_ANY, (dt.eid, df.eid))
        new, _, removed = pass_shift_branch_joins(g)
        assert removed == 0
        assert new is g


class TestOptimizePipeline:
    def test_fixpoint_reduces_and_preserves_reachability(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.DELAY, (r.eid,), delay=1)
        b = g.add(EventKind.DELAY, (r.eid,), delay=1)
        j = g.add(EventKind.JOIN_ALL, (a.eid, b.eid))
        tail = g.add(EventKind.DELAY, (j.eid,), delay=2)
        opt, mapping, stats = optimize(g)
        assert stats.total_removed >= 2  # duplicate delay + trivial join
        assert len(opt) < len(g)
        # the mapped tail still exists and is 3 cycles after the root
        o = TimingOracle(opt)
        t = mapping[tail.eid]
        case = ()
        assert o.ts(t, case).evaluate({}) == 3

    def test_identity_when_nothing_to_do(self):
        g = EventGraph()
        r = g.root()
        g.add(EventKind.DELAY, (r.eid,), delay=1)
        opt, mapping, stats = optimize(g)
        assert stats.total_removed == 0
        assert len(opt) == len(g)

    def test_actions_preserved_across_merge(self):
        from repro.core.events import CommitReg
        from repro.codegen.rexpr import RLit
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.DELAY, (r.eid,), delay=1)
        b = g.add(EventKind.DELAY, (r.eid,), delay=1)
        b.commits.append(CommitReg("x", RLit(1, 1)))
        opt, mapping, stats = optimize(g)
        total_actions = sum(len(e.commits) for e in opt.events)
        assert total_actions == 1
