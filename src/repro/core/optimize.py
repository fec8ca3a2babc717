"""Event graph optimization passes (Section 6.1, Figure 8).

Each pass shrinks the event graph while preserving its timing semantics;
two events may be merged whenever they always occur at the same time.  The
four passes of the paper:

(a) **Merge identical outbound edge labels** -- two successors of the same
    event that wait for the same fixed delay (or the same branch condition
    polarity) always fire together and are merged.
(b) **Remove unbalanced joins** -- a join of ``ea`` and ``eb`` where
    ``ea`` must precede ``eb`` (it fires, no later, in every activation
    that reaches ``eb``) always fires exactly when ``eb`` does.  The paper
    states the rule with ``ea <=G eb``, which must-precede implies; it is
    a bit test on :class:`~repro.core.events.EventGraph`, so the optimizer
    queries no timing oracle.
(c) **Shift branch joins** -- when both sides of a branch end in an
    effect-free ``#N`` delay, join first and delay once after.
(d) **Remove branch joins** -- a join of two empty branches collapses into
    the branching event itself.

The optimizer runs passes to a fixpoint and reports how many events each
pass removed (regenerated for the Figure 8 experiment).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .events import Event, EventGraph, EventKind

#: fixpoint rounds of :func:`optimize` at most
MAX_ROUNDS = 8


class OptimizeStats:
    def __init__(self):
        self.removed: Dict[str, int] = {
            "merge_labels": 0,
            "unbalanced_joins": 0,
            "shift_branch_joins": 0,
            "remove_branch_joins": 0,
        }
        self.passes_run = 0

    @property
    def total_removed(self) -> int:
        return sum(self.removed.values())

    def __repr__(self):
        return f"OptimizeStats({self.removed}, passes={self.passes_run})"


def _copy(graph: EventGraph, ev: Event, preds) -> Event:
    """Add a copy of ``ev``, effects included, to ``graph`` over ``preds``."""
    copy = graph.add(
        ev.kind, preds, delay=ev.delay, endpoint=ev.endpoint,
        message=ev.message, direction=ev.direction,
        static_slack=ev.static_slack, conditional=ev.conditional,
        cond_id=ev.cond_id, polarity=ev.polarity, note=ev.note,
    )
    copy.latches.extend(ev.latches)
    copy.commits.extend(ev.commits)
    copy.payload = ev.payload
    copy.guard = ev.guard
    copy.cond_expr = ev.cond_expr
    return copy


def _rebuild(graph: EventGraph, redirect: Dict[int, int],
             drop: set) -> Tuple[EventGraph, Dict[int, int]]:
    """Rebuild the graph applying a redirect map and dropping events.

    ``redirect[x] = y`` means every reference to ``x`` becomes ``y`` (after
    chasing chains); a redirected event's latches and commits are
    appended, in order, to its target's (no pass redirects a sync).
    """

    def resolve(eid: int) -> int:
        seen = set()
        while eid in redirect:
            if eid in seen:  # pragma: no cover - defensive
                raise AssertionError("redirect cycle")
            seen.add(eid)
            eid = redirect[eid]
        return eid

    new = EventGraph(graph.name)
    mapping: Dict[int, int] = {}
    for ev in graph.events:
        if ev.eid in drop or ev.eid in redirect:
            continue
        preds = []
        for p in ev.preds:
            np = mapping.get(resolve(p))
            if np is not None and np not in preds:
                preds.append(np)
        mapping[ev.eid] = _copy(new, ev, preds).eid
    # migrate the effects of merged events
    for eid, target in redirect.items():
        tgt = mapping.get(resolve(eid))
        if tgt is not None:
            new[tgt].latches.extend(graph[eid].latches)
            new[tgt].commits.extend(graph[eid].commits)
        mapping[eid] = tgt if tgt is not None else 0
    for eid in drop:
        if eid not in mapping:
            mapping[eid] = 0
    return new, mapping


def _compose(outer: Dict[int, int], inner: Dict[int, int]) -> Dict[int, int]:
    return {k: inner.get(v, v) for k, v in outer.items()}


# ----------------------------------------------------------------------
# individual passes: each returns (new_graph, mapping, n_removed)
# ----------------------------------------------------------------------
def pass_merge_labels(graph: EventGraph):
    """(a) merge successors of one event that share an identical label."""
    redirect: Dict[int, int] = {}
    for ev in graph.events:
        succs = [graph[s] for s in graph.successors(ev.eid)]
        groups: Dict[tuple, List[Event]] = {}
        for s in succs:
            if s.eid in redirect or len(s.preds) != 1:
                continue
            if s.kind is EventKind.DELAY:
                key = ("delay", s.delay)
            elif s.kind is EventKind.BRANCH:
                key = ("branch", s.cond_id, s.polarity)
            elif s.kind is EventKind.SYNC:
                continue  # sync events have handshake state; never merged
            else:
                continue
            groups.setdefault(key, []).append(s)
        for key, members in groups.items():
            if len(members) > 1:
                keep = members[0]
                for other in members[1:]:
                    redirect[other.eid] = keep.eid
    if not redirect:
        return graph, None, 0
    new, mapping = _rebuild(graph, redirect, set())
    return new, mapping, len(redirect)


def pass_unbalanced_joins(graph: EventGraph):
    """(b) an all-join (or a join left with one predecessor) is merged into
    the predecessor that every other predecessor must precede.

    The rule is exact in the FSM.  An all-join fires in the cycle its
    last predecessor fires, and no event fires before one that must
    precede it: an all-join, a delay or a sync waits for every
    predecessor, an any-join for one of them, and an event that must
    precede an any-join is, or must precede, each of its predecessors.
    So where the dominant predecessor fires, every other one has fired
    and the join fires with it; where it never fires, neither does the
    join.  The paper states the rule with ``<=G``, which must-precede
    implies, since no timestamp is earlier than one its event waits for.
    Ancestry alone is not enough: an ancestor through one arm of a
    branch has not fired when the dominant predecessor is reached
    through the other arm, and the merged join would stop waiting for
    it."""
    redirect: Dict[int, int] = {}
    for ev in graph.events:
        if not (ev.kind is EventKind.JOIN_ALL
                or (ev.kind is EventKind.JOIN_ANY and len(ev.preds) == 1)):
            continue
        dominant = next((cand for cand in ev.preds
                         if all(graph.must_precede(p, cand)
                                for p in ev.preds if p != cand)), None)
        if dominant is not None and dominant not in redirect:
            redirect[ev.eid] = dominant
    if not redirect:
        return graph, None, 0
    new, mapping = _rebuild(graph, redirect, set())
    return new, mapping, len(redirect)


def pass_shift_branch_joins(graph: EventGraph):
    """(c) join-then-delay instead of delay-then-join when both branch arms
    end in an identical, effect-free ``#N`` delay."""
    for ev in graph.events:
        if ev.kind is not EventKind.JOIN_ANY or len(ev.preds) != 2:
            continue
        a, b = graph[ev.preds[0]], graph[ev.preds[1]]
        if a.kind is not EventKind.DELAY or b.kind is not EventKind.DELAY:
            continue
        if a.delay != b.delay or a.delay == 0:
            continue
        if a.latches or a.commits or b.latches or b.commits:
            continue
        if len(graph.successors(a.eid)) != 1 or len(graph.successors(b.eid)) != 1:
            continue
        if len(a.preds) != 1 or len(b.preds) != 1:
            continue
        # rebuild: new join of the delay parents, then one delay
        new = EventGraph(graph.name)
        mapping: Dict[int, int] = {}
        for old in graph.events:
            if old.eid in (a.eid, b.eid, ev.eid):
                continue
            preds = [mapping[p] for p in old.preds if p in mapping]
            mapping[old.eid] = _copy(new, old, preds).eid
            # insert the shifted join right after both parents are present
            if (
                a.preds[0] in mapping
                and b.preds[0] in mapping
                and ev.eid not in mapping
            ):
                join = new.add(
                    EventKind.JOIN_ANY,
                    (mapping[a.preds[0]], mapping[b.preds[0]]),
                    cond_id=ev.cond_id,
                    note="shifted join",
                )
                delay = new.add(EventKind.DELAY, (join.eid,), delay=a.delay)
                delay.latches.extend(ev.latches)
                delay.commits.extend(ev.commits)
                mapping[ev.eid] = delay.eid
                mapping[a.eid] = join.eid
                mapping[b.eid] = join.eid
        if ev.eid in mapping:
            return new, mapping, 1
    return graph, None, 0


def pass_remove_branch_joins(graph: EventGraph):
    """(d) a join of two *empty* branches folds into the branching event."""
    redirect: Dict[int, int] = {}
    drop = set()
    for ev in graph.events:
        if ev.kind is not EventKind.JOIN_ANY or len(ev.preds) != 2:
            continue
        a, b = graph[ev.preds[0]], graph[ev.preds[1]]
        if a.kind is not EventKind.BRANCH or b.kind is not EventKind.BRANCH:
            continue
        if a.latches or a.commits or b.latches or b.commits:
            continue
        if a.preds != b.preds or len(a.preds) != 1:
            continue
        # the branches must be empty: the join is their only successor
        if graph.successors(a.eid) != [ev.eid] or \
                graph.successors(b.eid) != [ev.eid]:
            continue
        if a.eid in redirect or b.eid in redirect or ev.eid in redirect:
            continue
        parent = a.preds[0]
        redirect[ev.eid] = parent
        drop.add(a.eid)
        drop.add(b.eid)
    if not redirect:
        return graph, None, 0
    new, mapping = _rebuild(graph, redirect, drop)
    return new, mapping, len(redirect) + len(drop)


# ----------------------------------------------------------------------
def optimize(graph: EventGraph):
    """Run all passes to a fixpoint (at most :data:`MAX_ROUNDS` rounds).

    Returns ``(graph, mapping, stats)`` where ``mapping`` maps original
    event ids to ids in the optimized graph (identity when nothing fired).
    """
    stats = OptimizeStats()
    total_map = {e.eid: e.eid for e in graph.events}
    passes = [
        ("merge_labels", pass_merge_labels),
        ("unbalanced_joins", pass_unbalanced_joins),
        ("shift_branch_joins", pass_shift_branch_joins),
        ("remove_branch_joins", pass_remove_branch_joins),
    ]
    for _ in range(MAX_ROUNDS):
        changed = False
        for name, fn in passes:
            new_graph, mapping, removed = fn(graph)
            stats.passes_run += 1
            if removed:
                stats.removed[name] += removed
                graph = new_graph
                total_map = _compose(total_map, mapping)
                changed = True
        if not changed:
            break
    return graph, total_map, stats
