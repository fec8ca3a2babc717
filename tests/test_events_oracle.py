"""Tests for the event graph and the ``<=G`` timing oracle."""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anvil_designs.aes import aes_core
from repro.anvil_designs.axi import axi_demux, axi_mux
from repro.anvil_designs.memory import (
    cached_memory_process,
    cached_memory_static_process,
    memory_process,
)
from repro.anvil_designs.mmu import ptw_process, tlb_process
from repro.anvil_designs.pipeline import pipelined_alu, systolic_array
from repro.anvil_designs.streams import (
    fifo_buffer,
    passthrough_stream_fifo,
    spill_register,
)
from repro.anvil_designs.y86 import y86_core
from repro.core.events import EventGraph, EventKind, SyncDir
from repro.core.graph_builder import GraphBuilder
from repro.core.maxplus import MaxExpr, MinExpr
from repro.core.oracle import OracleLimitError, TimingOracle
from repro.core.patterns import Duration, EndSet, EventPattern
from repro.semantics import concrete_times

DESIGN_FACTORIES = (
    fifo_buffer, spill_register, passthrough_stream_fifo, memory_process,
    cached_memory_process, cached_memory_static_process, tlb_process,
    ptw_process, aes_core, axi_demux, axi_mux, pipelined_alu,
    systolic_array, y86_core,
)


def linear_graph():
    """root -> #2 -> sync -> #1"""
    g = EventGraph("linear")
    r = g.root()
    d2 = g.add(EventKind.DELAY, (r.eid,), delay=2)
    sync = g.add(EventKind.SYNC, (d2.eid,), endpoint="ep", message="m",
                 direction=SyncDir.RECV)
    d1 = g.add(EventKind.DELAY, (sync.eid,), delay=1)
    return g, r, d2, sync, d1


class TestEventGraph:
    def test_topological_construction_enforced(self):
        g = EventGraph()
        with pytest.raises(ValueError):
            g.add(EventKind.DELAY, (3,), delay=1)

    def test_ancestors(self):
        g, r, d2, sync, d1 = linear_graph()
        assert g.ancestors(d1.eid) == {r.eid, d2.eid, sync.eid}
        assert g.is_ancestor(r.eid, d1.eid)
        assert not g.is_ancestor(d1.eid, r.eid)

    def test_must_precede_through_branches(self):
        """An event on one arm is an ancestor of the arms' any-join but
        does not precede it; an all-join waits for both arms."""
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        d = g.add(EventKind.DELAY, (bt.eid,), delay=1)
        any_ = g.add(EventKind.JOIN_ANY, (d.eid, bf.eid))
        all_ = g.add(EventKind.JOIN_ALL, (d.eid, bf.eid))
        assert g.is_ancestor(d.eid, any_.eid)
        assert not g.must_precede(d.eid, any_.eid)
        assert g.must_precede(r.eid, any_.eid)
        assert g.must_precede(d.eid, all_.eid)
        assert g.must_precede(bf.eid, all_.eid)
        assert not g.must_precede(all_.eid, all_.eid)

    def test_sync_events_index(self):
        g, r, d2, sync, d1 = linear_graph()
        assert g.sync_events("ep", "m") == [sync]
        assert g.sync_events("ep", "other") == []

    def test_dot_rendering(self):
        g, *_ = linear_graph()
        dot = g.to_dot()
        assert "digraph" in dot and "e0 -> e1" in dot

    def test_stats(self):
        g, *_ = linear_graph()
        s = g.stats()
        assert s["total"] == 4 and s["delay"] == 2 and s["sync"] == 1


class TestOracleStatic:
    def test_fixed_delays_ordered(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        assert o.event_le(r.eid, d2.eid)
        assert o.event_lt(r.eid, d2.eid)
        assert not o.event_le(d2.eid, r.eid)

    def test_sync_slack_is_unbounded(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        # the sync may take arbitrarily long: no bound above it
        assert o.event_le(d2.eid, sync.eid)
        assert not o.event_le(sync.eid, d2.eid)
        # ... and anything after it stays after
        assert o.event_lt(sync.eid, d1.eid)

    def test_parallel_paths_incomparable(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="a",
                  direction=SyncDir.RECV)
        b = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="b",
                  direction=SyncDir.RECV)
        o = TimingOracle(g)
        assert not o.event_le(a.eid, b.eid)
        assert not o.event_le(b.eid, a.eid)

    def test_join_all_is_upper_bound(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="a",
                  direction=SyncDir.RECV)
        b = g.add(EventKind.DELAY, (r.eid,), delay=3)
        j = g.add(EventKind.JOIN_ALL, (a.eid, b.eid))
        o = TimingOracle(g)
        assert o.event_le(a.eid, j.eid)
        assert o.event_le(b.eid, j.eid)

    def test_same_message_syncs_serialized(self):
        """A later sync of the same message never completes earlier."""
        g = EventGraph()
        r = g.root()
        s1 = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="m",
                   direction=SyncDir.RECV)
        d = g.add(EventKind.DELAY, (r.eid,), delay=1)
        s2 = g.add(EventKind.SYNC, (d.eid,), endpoint="x", message="m",
                   direction=SyncDir.RECV)
        o = TimingOracle(g)
        assert o.event_le(s1.eid, s2.eid)


class TestOracleBranches:
    def make_branchy(self):
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        dt = g.add(EventKind.DELAY, (bt.eid,), delay=1)
        df = g.add(EventKind.DELAY, (bf.eid,), delay=3)
        j = g.add(EventKind.JOIN_ANY, (dt.eid, df.eid))
        return g, r, dt, df, j

    def test_join_after_either_branch(self):
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        assert o.event_le(r.eid, j.eid)
        assert o.event_lt(r.eid, j.eid)

    def test_branch_events_vacuously_ordered(self):
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        # dt and df never co-occur: each comparison is vacuous in the case
        # where the left side is unreachable
        assert o.event_le(dt.eid, j.eid)
        assert o.event_le(df.eid, j.eid)

    def test_join_not_bounded_by_short_unconditional_delay(self):
        g, r, dt, df, j = self.make_branchy()
        d1 = g.add(EventKind.DELAY, (r.eid,), delay=1)
        o = TimingOracle(g)
        # the join can be 3 cycles after root (else-branch), so j <= root+1
        # fails, while root+1 <= j holds in both branch cases
        assert not o.event_le(j.eid, d1.eid)
        assert o.event_le(d1.eid, j.eid)

    def test_unreached_side_is_infinite(self):
        """Per Definition C.9 an unreached event has timestamp infinity, so
        any event compares <= to an event of the opposite branch."""
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        assert o.event_le(j.eid, dt.eid)  # vacuous/infinite in else-case


class TestOraclePatterns:
    def test_static_pattern_end(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(r.eid, Duration.static(2))
        # [r, r+2) ends exactly when d2 occurs
        assert o.end_le_event(end, d2.eid)
        assert o.event_le_end(r.eid, end, shift=2)

    def test_dynamic_pattern_resolves_to_next_sync(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(r.eid, Duration.dynamic("ep", "m"))
        # the first ep.m after root is `sync`; d1 is one cycle later
        assert o.end_le_event(end, d1.eid)
        assert not o.end_le_event(end, r.eid)

    def test_dynamic_pattern_without_candidates_is_infinite(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(d1.eid, Duration.dynamic("ep", "m"))
        # no ep.m occurs after d1: the lifetime never ends
        assert not o.end_le_event(end, d1.eid)
        assert o.event_le_end(d1.eid, end, shift=100)

    def test_eternal_endset(self):
        g, r, *_ = linear_graph()
        o = TimingOracle(g)
        assert o.event_le_end(r.eid, EndSet.eternal(), shift=10**6)
        assert not o.end_le_event(EndSet.eternal(), r.eid)

    def test_end_le_end_static(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        req = EndSet.single(r.eid, Duration.static(1))
        ava = EndSet.single(r.eid, Duration.static(2))
        assert o.end_le_end(req, ava)
        assert not o.end_le_end(ava, req)

    def test_lifetime_within(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        inner = EndSet.single(d2.eid, Duration.static(1))
        outer = EndSet.single(d2.eid, Duration.static(4))
        assert o.lifetime_within(d2.eid, inner, r.eid, outer)
        assert not o.lifetime_within(r.eid, outer, d2.eid, inner)


class TestOracleMatchesSemantics:
    """Symbolic timestamps, evaluated at concrete handshake slacks, equal
    the fire cycles of the execution semantics.  One oracle per graph
    serves every case, the way the type checker shares it across
    queries."""

    CASES_PER_GRAPH = 8

    @pytest.mark.parametrize("factory", DESIGN_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_ts_matches_concrete_times(self, factory):
        rng = random.Random(20)
        process = factory()
        for thread in process.threads:
            built = GraphBuilder(process, thread).build(1)
            g = built.graph
            oracle = TimingOracle(g)
            dynamic = [e.eid for e in g.events
                       if e.kind is EventKind.SYNC and e.static_slack is None]
            for _ in range(self.CASES_PER_GRAPH):
                branches = {c: rng.random() < 0.5 for c in g.conditions()}
                slacks = {eid: rng.randrange(4) for eid in dynamic}
                case = tuple(sorted(branches.items()))
                times = concrete_times(g, slacks, branches)
                for ev in g.events:
                    # infinity (unreached) evaluates to None, like the
                    # semantics' unreached events
                    assert oracle.ts(ev.eid, case).evaluate(slacks) == \
                        times[ev.eid], (g.name, ev, case, slacks)


class TestOracleMemo:
    def test_timestamps_shared_across_cases(self):
        """Each event's timestamps form one case tree over the conditions
        that move it: an event under the first branch has one leaf per
        value of that condition, whatever the query it is read in, and
        asking again builds no new node."""
        g = EventGraph()
        r = g.root()
        arms = []
        for cond, (t_delay, f_delay) in enumerate(((1, 2), (3, 5))):
            bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=cond, polarity=True)
            bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=cond,
                       polarity=False)
            dt = g.add(EventKind.DELAY, (bt.eid,), delay=t_delay)
            df = g.add(EventKind.DELAY, (bf.eid,), delay=f_delay)
            arms.append((dt, g.add(EventKind.JOIN_ANY, (dt.eid, df.eid))))
        (d0, j0), (_d1, j1) = arms
        o = TimingOracle(g)
        # j0 in {1, 2} never exceeds j1 in {3, 5}: all four cases hold
        assert o.event_le(j0.eid, j1.eid)
        relevant = o._timing_relevant_conditions()
        assert relevant == 0b11

        def leaves(eid):
            found, stack = set(), [o._tree(eid, relevant)]
            while stack:
                node = stack.pop()
                if node.var < 0:
                    found.add(node)
                else:
                    stack += (node.lo, node.hi)
            return found

        assert len(leaves(j0.eid)) == 2
        assert len(leaves(j1.eid)) == 2
        assert len(leaves(d0.eid)) == 2  # its delay, or unreached
        assert o._tree(r.eid, relevant).var < 0  # one leaf
        built = (len(o._nodes), len(o._leaves))
        o._verdict_cache.clear()
        assert o.event_le(j0.eid, j1.eid)
        assert (len(o._nodes), len(o._leaves)) == built

    def test_sync_memo_covers_earlier_same_message_syncs(self):
        """A sync waits for earlier syncs of its message, so the branch
        guarding an earlier one moves it even though that branch is not
        among its ancestors: the memo must tell the two cases apart."""
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        d3 = g.add(EventKind.DELAY, (bt.eid,), delay=3)
        g.add(EventKind.SYNC, (d3.eid,), endpoint="x", message="m",
              direction=SyncDir.SEND, static_slack=0)
        d1 = g.add(EventKind.DELAY, (r.eid,), delay=1)
        s2 = g.add(EventKind.SYNC, (d1.eid,), endpoint="x", message="m",
                   direction=SyncDir.SEND, static_slack=0)
        o = TimingOracle(g)
        assert o.ts(s2.eid, ((0, True),)).evaluate({}) == 3
        assert o.ts(s2.eid, ((0, False),)).evaluate({}) == 1

    def test_a_case_that_leaves_condition_0_out_takes_both_arms(self):
        """Condition 0 is relevant to both delays; a case without it must
        not read either of its arms."""
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        g.add(EventKind.BRANCH, (r.eid,), cond_id=1, polarity=True)
        dt = g.add(EventKind.DELAY, (bt.eid,), delay=3)
        df = g.add(EventKind.DELAY, (bf.eid,), delay=2)
        o = TimingOracle(g)
        for case in ((), ((1, True),)):
            assert o.ts(dt.eid, case).evaluate({}) == 3, case
            assert o.ts(df.eid, case).evaluate({}) == 2, case
        # unreached: no finite time
        assert o.ts(dt.eid, ((0, False),)).evaluate({}) is None
        assert o.ts(df.eid, ((0, True),)).evaluate({}) is None


# ----------------------------------------------------------------------
# timing relevance of branch conditions
# ----------------------------------------------------------------------
def reference_relevant(g: EventGraph) -> int:
    """The relevance rule applied literally: a condition is relevant iff
    one of its arms takes time and fixing it one way or the other changes
    the timestamp of some event outside its arms (every other condition
    transparent, any-joins taking the max over reachable sides)."""
    gated = []
    for ev in g.events:
        sets = [gated[p] for p in ev.preds]
        if not sets:
            acc = frozenset()
        elif ev.kind is EventKind.JOIN_ANY:
            acc = frozenset.intersection(*sets)
        else:
            acc = frozenset().union(*sets)
        if ev.kind is EventKind.BRANCH:
            acc |= {(ev.cond_id, ev.polarity)}
        gated.append(acc)

    def approx(eid, cond, value, memo):
        if eid in memo:
            return memo[eid]
        ev = g[eid]
        alts = [approx(p, cond, value, memo) for p in ev.preds]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.BRANCH and ev.cond_id == cond \
                and ev.polarity != value:
            out = MaxExpr.inf()
        elif ev.kind is EventKind.JOIN_ANY:
            reachable = [a for a in alts if not a.infinite]
            out = MaxExpr.maximum(reachable) if reachable else MaxExpr.inf()
        else:
            out = MaxExpr.maximum(alts)
            if ev.kind is EventKind.DELAY:
                out = out.shifted(ev.delay)
            elif ev.kind is EventKind.SYNC:
                out = (out.with_var(eid) if ev.static_slack is None
                       else out.shifted(ev.static_slack))
        memo[eid] = out
        return out

    candidates = set()
    for ev in g.events:
        if (ev.kind is EventKind.DELAY and ev.delay > 0) or (
                ev.kind is EventKind.SYNC and ev.static_slack != 0):
            candidates.update(c for c, _pol in gated[ev.eid])
    relevant = 0
    for cond in candidates:
        memo_t, memo_f = {}, {}
        for ev in g.events:
            if any(c == cond for c, _pol in gated[ev.eid]):
                continue
            if approx(ev.eid, cond, True, memo_t) != \
                    approx(ev.eid, cond, False, memo_f):
                relevant |= 1 << cond
                break
    return relevant


@st.composite
def branchy_graphs(draw):
    """Random event graphs: branch pairs, zero and positive delays, static
    and dynamic syncs sharing two messages, and any-/all-joins over
    arbitrary earlier events."""
    g = EventGraph("random")
    g.root()
    conds = 0
    for _ in range(draw(st.integers(1, 24))):
        earlier = st.integers(0, len(g.events) - 1)
        kind = draw(st.sampled_from(
            ("branch", "delay", "sync", "join_any", "join_all")))
        if kind == "branch":
            parent = draw(earlier)
            g.add(EventKind.BRANCH, (parent,), cond_id=conds, polarity=True)
            g.add(EventKind.BRANCH, (parent,), cond_id=conds, polarity=False)
            conds += 1
        elif kind == "delay":
            g.add(EventKind.DELAY, (draw(earlier),),
                  delay=draw(st.integers(0, 2)))
        elif kind == "sync":
            g.add(EventKind.SYNC, (draw(earlier),), endpoint="ep",
                  message=draw(st.sampled_from("ab")),
                  direction=SyncDir.SEND,
                  static_slack=draw(st.sampled_from((None, 0, 1))))
        else:
            preds = draw(st.lists(earlier, min_size=1, max_size=3,
                                  unique=True))
            g.add(EventKind.JOIN_ANY if kind == "join_any"
                  else EventKind.JOIN_ALL, preds)
    return g


class TestRelevance:
    @given(branchy_graphs())
    @settings(max_examples=400, deadline=None)
    def test_exit_joins_decide_like_the_full_sweep(self, g):
        assert TimingOracle(g)._timing_relevant_conditions() == \
            reference_relevant(g)

    def test_arms_that_never_rejoin_are_irrelevant(self):
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        g.add(EventKind.DELAY, (bt.eid,), delay=2)
        g.add(EventKind.DELAY, (bf.eid,), delay=1)
        g.add(EventKind.DELAY, (r.eid,), delay=4)
        assert reference_relevant(g) == 0
        assert TimingOracle(g)._timing_relevant_conditions() == 0

    def test_exit_join_with_an_unconditional_third_side(self):
        """The unconditional side comes first, so only the later
        predecessors show that the join leaves the condition's arms."""
        g = EventGraph()
        r = g.root()
        d1 = g.add(EventKind.DELAY, (r.eid,), delay=1)
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        d3 = g.add(EventKind.DELAY, (bt.eid,), delay=3)
        j = g.add(EventKind.JOIN_ANY, (d1.eid, d3.eid, bf.eid))
        g.add(EventKind.DELAY, (j.eid,), delay=1)
        assert reference_relevant(g) == 1
        assert TimingOracle(g)._timing_relevant_conditions() == 1

    @pytest.mark.parametrize("factory", DESIGN_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_design_graphs_match_the_full_sweep(self, factory):
        process = factory()
        for thread in process.threads:
            g = GraphBuilder(process, thread).build(1).graph
            assert TimingOracle(g)._timing_relevant_conditions() == \
                reference_relevant(g), g.name


# ----------------------------------------------------------------------
# case trees against the case-by-case enumeration
# ----------------------------------------------------------------------
def reference_oracle(g: EventGraph, max_cases: int):
    """The five relations decided by enumerating every case of the
    timing-relevant conditions in the cones of the events a query reads,
    the lowest condition varying fastest, and computing each timestamp
    under the case (memoized on the case restricted to the event's cone).
    A query holds iff it holds in every case: it is false at the first
    case where it fails, and raises at the first one where it reads an
    any-join whose reachable sides differ."""
    relevant = reference_relevant(g)
    cones = []
    for ev in g.events:
        acc = 0
        for p in ev.preds:
            acc |= cones[p]
        if ev.kind is EventKind.BRANCH:
            acc |= 1 << ev.cond_id
        elif ev.kind is EventKind.SYNC:
            for other in g.sync_events(ev.endpoint, ev.message):
                if other.eid < ev.eid:
                    acc |= cones[other.eid]
        cones.append(acc)
    memo = {}

    def ts(eid, case):
        """``case``: {condition: value} for every condition of the query."""
        key = (eid, tuple(sorted((c, v) for c, v in case.items()
                                 if cones[eid] >> c & 1)))
        if key in memo:
            return memo[key]
        ev = g[eid]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.BRANCH and case.get(ev.cond_id,
                                                      ev.polarity) \
                != ev.polarity:
            out = MaxExpr.inf()
        elif ev.kind is EventKind.JOIN_ANY:
            reachable = [t for t in (ts(p, case) for p in ev.preds)
                         if not t.infinite]
            if not reachable:
                out = MaxExpr.inf()
            elif any(t != reachable[0] for t in reachable[1:]):
                raise OracleLimitError(
                    f"join e{eid} has multiple reachable branches under "
                    f"case {tuple(sorted(case.items()))}; condition set "
                    f"was incomplete")
            else:
                out = reachable[0]
        else:
            parts = [ts(p, case) for p in ev.preds]
            if ev.kind is EventKind.SYNC and \
                    not any(t.infinite for t in parts):
                for other in g.sync_events(ev.endpoint, ev.message):
                    if other.eid < eid:
                        t = ts(other.eid, case)
                        if not t.infinite:
                            parts.append(t)
            out = MaxExpr.maximum(parts)
            if ev.kind is EventKind.DELAY:
                out = out.shifted(ev.delay)
            elif ev.kind is EventKind.SYNC:
                out = (out.with_var(eid) if ev.static_slack is None
                       else out.shifted(ev.static_slack))
        memo[key] = out
        return out

    def candidates(pattern, guaranteed):
        dur = pattern.duration
        return [ev.eid for ev in g.sync_events(dur.endpoint, dur.message)
                if ev.eid != pattern.base
                and not g.must_precede(ev.eid, pattern.base)
                and (not guaranteed or g.must_precede(pattern.base, ev.eid))]

    def end_state(end, case, upper):
        alts, reachable = [], False
        for p in end.patterns:
            base = ts(p.base, case)
            if not base.infinite:
                reachable = True
            if base.infinite:
                continue
            if p.duration.is_static:
                alts.append(base.shifted(p.duration.cycles))
                continue
            for c in candidates(p, upper):
                t = ts(c, case)
                if not t.infinite:
                    alts.append(t)
        return MinExpr(alts), reachable

    def cases(eids, ends):
        involved = set(eids)
        for end in ends:
            for p in end.patterns:
                involved.add(p.base)
                if not p.duration.is_static:
                    involved.update(candidates(p, False))
        conds = 0
        for eid in involved:
            conds |= cones[eid]
        conds = [c for c in range(conds.bit_length())
                 if (conds & relevant) >> c & 1]
        if 2 ** len(conds) > max_cases:
            raise OracleLimitError(
                f"{len(conds)} relevant branch conditions exceed the case "
                f"limit")
        for values in range(2 ** len(conds)):
            yield {c: bool(values >> i & 1) for i, c in enumerate(conds)}

    def event_le(a, b):
        return all(ts(a, case).infinite or ts(a, case).le(ts(b, case))
                   for case in cases((a, b), ()))

    def event_lt(a, b):
        return all(ts(a, case).infinite or ts(a, case).lt(ts(b, case))
                   for case in cases((a, b), ()))

    def event_le_end(a, end, shift):
        if end.is_eternal:
            return True
        return all(ts(a, case).infinite or
                   end_state(end, case, False)[0].ge_expr(
                       ts(a, case).shifted(shift))
                   for case in cases((a,), (end,)))

    def end_le_event(end, a, shift):
        if end.is_eternal:
            return False
        for case in cases((a,), (end,)):
            if ts(a, case).infinite:
                continue
            bound, reachable = end_state(end, case, True)
            if reachable and not bound.le_expr(ts(a, case).shifted(shift)):
                return False
        return True

    def end_le_end(required, available):
        if available.is_eternal:
            return True
        if required.is_eternal:
            return False
        for case in cases((), (required, available)):
            req, reachable = end_state(required, case, True)
            if reachable and not req.le(end_state(available, case, False)[0]):
                return False
        return True

    return SimpleNamespace(
        event_le=event_le, event_lt=event_lt, event_le_end=event_le_end,
        end_le_event=end_le_event, end_le_end=end_le_end)


@st.composite
def diamond_graphs(draw):
    """Branch diamonds hung off earlier events: each condition's arms take
    zero to two cycles, may sync, and meet in an any-join (now and then
    with a third, earlier side), so many conditions are relevant at once
    and nested ones can leave an outer join with unequal sides."""
    g = EventGraph("diamonds")
    g.root()
    for cond in range(draw(st.integers(1, 8))):
        earlier = st.integers(0, len(g.events) - 1)
        parent = draw(earlier)
        ends = []
        for polarity in (True, False):
            arm = g.add(EventKind.BRANCH, (parent,), cond_id=cond,
                        polarity=polarity).eid
            if draw(st.booleans()):
                arm = g.add(EventKind.SYNC, (arm,), endpoint="ep",
                            message=draw(st.sampled_from("ab")),
                            direction=SyncDir.SEND,
                            static_slack=draw(st.sampled_from((None, 0, 1)))
                            ).eid
            ends.append(g.add(EventKind.DELAY, (arm,),
                              delay=draw(st.integers(0, 2))).eid)
        if draw(st.integers(0, 4)) == 0:
            ends.append(draw(earlier))
        g.add(EventKind.JOIN_ANY, ends)
    return g


def end_sets(n_events: int):
    """Eternal or one to three patterns, static (#0..#3) or dynamic on the
    two messages the graph strategies sync on."""
    duration = st.one_of(
        st.integers(0, 3).map(Duration.static),
        st.sampled_from("ab").map(lambda m: Duration.dynamic("ep", m)))
    pattern = st.builds(EventPattern, st.integers(0, n_events - 1), duration)
    return st.lists(pattern, max_size=3).map(lambda ps: EndSet(tuple(ps)))


def queries(n_events: int):
    event = st.integers(0, n_events - 1)
    end = end_sets(n_events)
    shift = st.integers(-1, 2)
    return st.one_of(
        st.tuples(st.just("event_le"), event, event),
        st.tuples(st.just("event_lt"), event, event),
        st.tuples(st.just("event_le_end"), event, end, shift),
        st.tuples(st.just("end_le_event"), end, event, shift),
        st.tuples(st.just("end_le_end"), end, end),
    )


def outcome(relation, *args):
    try:
        return relation(*args)
    except OracleLimitError as exc:
        return "OracleLimitError", str(exc)


class TestCaseTrees:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_relations_match_the_case_enumeration(self, data):
        g = data.draw(st.one_of(branchy_graphs(), diamond_graphs()))
        asked = data.draw(st.lists(queries(len(g.events)), min_size=1,
                                   max_size=12))
        for max_cases in (4, 64, 4096):
            # one oracle answers every query, as in the type checker
            oracle = TimingOracle(g, max_cases=max_cases)
            reference = reference_oracle(g, max_cases)
            for name, *args in asked:
                assert outcome(getattr(oracle, name), *args) == \
                    outcome(getattr(reference, name), *args), \
                    (max_cases, name, args)

    def test_join_conflict_raises_where_the_query_reads_it(self):
        """Condition 1 is nested in condition 0's true arm; condition 0's
        arms take two cycles either way, so only condition 1 is relevant,
        and the outer any-join sees both of its sides under ``1 = True``."""
        g = EventGraph()
        r = g.root()
        t0 = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        f0 = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        t1 = g.add(EventKind.BRANCH, (t0.eid,), cond_id=1, polarity=True)
        f1 = g.add(EventKind.BRANCH, (t0.eid,), cond_id=1, polarity=False)
        d1 = g.add(EventKind.DELAY, (t1.eid,), delay=1)
        d2 = g.add(EventKind.DELAY, (f1.eid,), delay=2)
        inner = g.add(EventKind.JOIN_ANY, (d1.eid, d2.eid))
        other = g.add(EventKind.DELAY, (f0.eid,), delay=2)
        outer = g.add(EventKind.JOIN_ANY, (inner.eid, other.eid))
        assert (len(g.events), outer.eid) == (10, 9)
        o = TimingOracle(g)
        assert o._timing_relevant_conditions() == reference_relevant(g) \
            == 0b10
        message = ("join e9 has multiple reachable branches under case "
                   "((1, True),); condition set was incomplete")
        for _ in range(2):  # a conflict is never cached as a verdict
            with pytest.raises(OracleLimitError) as exc:
                o.event_le(r.eid, outer.eid)
            assert str(exc.value) == message
        assert outcome(reference_oracle(g, 4096).event_le, r.eid,
                       outer.eid) == ("OracleLimitError", message)
        # a query that never reads the join is unaffected
        assert o.event_le(r.eid, inner.eid)


def firing_sets(g: EventGraph):
    """Per event, every set of events that fires in an activation reaching
    it, itself included, by brute force: an any-join fires after the set
    of one predecessor, any other event after the sets of all of its
    predecessors together."""
    sets = []
    for ev in g.events:
        me = frozenset((ev.eid,))
        if ev.kind is EventKind.JOIN_ANY:
            sets.append({s | me for p in ev.preds for s in sets[p]})
        else:
            sets.append({me.union(*combo) for combo in
                         itertools.product(*(sets[p] for p in ev.preds))})
    return sets


class TestPrecedence:
    @given(st.one_of(branchy_graphs(), diamond_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_relations_match_the_firing_sets(self, g):
        """``a`` is an ancestor of ``b`` iff it is in some set that fires
        in an activation reaching ``b``, and must precede ``b`` iff it is
        in every such set."""
        for b, fired in enumerate(firing_sets(g)):
            some = frozenset().union(*fired) - {b}
            every = frozenset.intersection(*fired) - {b}
            assert g.ancestors(b) == some
            for a in range(len(g.events)):
                assert g.is_ancestor(a, b) == (a in some), (a, b)
                assert g.must_precede(a, b) == (a in every), (a, b)

    @given(st.one_of(branchy_graphs(), diamond_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_must_precede_implies_event_le_where_decided(self, g):
        oracle = TimingOracle(g)
        for b in range(len(g.events)):
            for a in range(len(g.events)):
                if g.must_precede(a, b):
                    verdict = outcome(oracle.event_le, a, b)
                    assert verdict is True or \
                        verdict[0] == "OracleLimitError", (a, b)
