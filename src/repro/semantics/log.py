"""Execution logs (Definition C.1) sampled from event graphs.

A *timestamp sample* fixes a concrete handshake slack for every dynamic
synchronization event and an outcome for every branch; the event graph
then maps deterministically to concrete cycles, and the thread's check
obligations map to concrete operations:

* ``ValCreate``/``ValUse`` from use obligations,
* ``RegMut`` from mutations,
* ``ValSend``/``ValRecv`` from message synchronizations.

Sampling many logs and checking each against the Definition C.15 safety
condition gives a *dynamic oracle* for the type system: a well-typed
process must produce only safe logs (Theorem C.20), an ill-typed one
should exhibit unsafe logs under some sample.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.events import EventGraph, EventKind
from ..core.graph_builder import BuildResult, GraphBuilder
from ..core.patterns import EndSet
from ..lang.process import Process


class ConcreteWindow:
    """A value's concrete life: creation, uses, deps, availability."""

    __slots__ = ("name", "creation", "use_start", "use_end", "regs",
                 "avail_end", "context")

    def __init__(self, name, creation, use_start, use_end, regs, avail_end,
                 context):
        self.name = name
        self.creation = creation
        self.use_start = use_start
        self.use_end = use_end          # exclusive; None = unbounded
        self.regs = regs                # {reg: read_cycle}
        self.avail_end = avail_end      # exclusive; None = eternal
        self.context = context

    def __repr__(self):
        return (f"Window({self.context}: create@{self.creation}, "
                f"use [{self.use_start},{self.use_end}))")


class ConcreteSend:
    __slots__ = ("message", "start", "end", "context")

    def __init__(self, message, start, end, context):
        self.message = message
        self.start = start
        self.end = end
        self.context = context


class ExecutionLog:
    """One concrete execution: windows, mutations, sends."""

    def __init__(self, slacks, branches):
        self.slacks = slacks
        self.branches = branches
        self.windows: List[ConcreteWindow] = []
        self.mutations: List[Tuple[str, int, str]] = []  # (reg, cycle, ctx)
        self.sends: List[ConcreteSend] = []

    def __repr__(self):
        return (f"ExecutionLog({len(self.windows)} windows, "
                f"{len(self.mutations)} mutations)")


def concrete_times(g: EventGraph, slacks: Dict[int, int],
                   branches: Dict[int, bool]) -> List[Optional[int]]:
    """Concrete fire cycle per event of ``g`` (None = unreached)."""
    times: List[Optional[int]] = []
    for ev in g.events:
        preds = [times[p] for p in ev.preds]
        if ev.kind is EventKind.ROOT:
            t: Optional[int] = 0
        elif any(p is None for p in preds) and \
                ev.kind is not EventKind.JOIN_ANY:
            t = None
        elif ev.kind is EventKind.DELAY:
            t = max(preds) + ev.delay
        elif ev.kind is EventKind.SYNC:
            base = max(preds)
            # serialized with earlier syncs of the same message
            for other in g.sync_events(ev.endpoint, ev.message):
                if other.eid < ev.eid and times[other.eid] is not None:
                    base = max(base, times[other.eid])
            slack = (
                ev.static_slack if ev.static_slack is not None
                else slacks.get(ev.eid, 0)
            )
            t = base + slack
        elif ev.kind is EventKind.BRANCH:
            taken = branches.get(ev.cond_id, True) == ev.polarity
            t = preds[0] if taken else None
        elif ev.kind is EventKind.JOIN_ANY:
            reached = [p for p in preds if p is not None]
            t = min(reached) if reached else None
        else:  # JOIN_ALL
            t = max(preds)
        times.append(t)
    return times


def _end_time(end: EndSet, times, g: EventGraph) -> Optional[int]:
    """Concrete earliest satisfaction of an end set (None = never)."""
    if end.is_eternal:
        return None
    best: Optional[int] = None
    for p in end.patterns:
        base = times[p.base]
        if base is None:
            continue
        if p.duration.is_static:
            cand: Optional[int] = base + p.duration.cycles
        else:
            # the next occurrence *in program order*: a sync the base
            # event must precede (it may land in the same cycle), or an
            # unordered sync that happens later -- the same convention
            # the static oracle uses.  Ancestry through one arm of an
            # ``if`` orders neither way.
            cand = None
            for s in g.sync_events(
                p.duration.endpoint, p.duration.message
            ):
                t = times[s.eid]
                if t is None or s.eid == p.base:
                    continue
                if g.must_precede(s.eid, p.base):
                    continue  # before the base event
                if not g.must_precede(p.base, s.eid) and t <= base:
                    continue  # unordered and not after
                cand = t if cand is None else min(cand, t)
        if cand is not None:
            best = cand if best is None else min(best, cand)
    return best


def sample_log(result: BuildResult, rng: random.Random,
               max_slack: int = 3) -> ExecutionLog:
    """Sample one execution log from a built thread."""
    slacks = {
        ev.eid: rng.randint(0, max_slack)
        for ev in result.graph.events
        if ev.kind is EventKind.SYNC and ev.static_slack is None
    }
    conds = set()
    for ev in result.graph.events:
        if ev.kind is EventKind.BRANCH:
            conds.add(ev.cond_id)
    branches = {c: rng.random() < 0.5 for c in conds}
    times = concrete_times(result.graph, slacks, branches)
    log = ExecutionLog(slacks, branches)

    for use in result.uses:
        v = use.value
        creation = times[v.start]
        use_start = times[use.window_start]
        if creation is None or use_start is None:
            continue  # this use never happens in the sampled run
        use_end = _end_time(use.window_end, times, result.graph)
        avail_end = _end_time(v.end, times, result.graph)
        regs = {}
        for reg, read_at in v.reg_reads:
            t = times[read_at]
            if t is not None:
                regs[reg] = t
        log.windows.append(ConcreteWindow(
            id(v), creation, use_start, use_end, regs, avail_end,
            use.context,
        ))
    for mut in result.mutations:
        t = times[mut.at]
        if t is not None:
            log.mutations.append((mut.register, t, mut.context))
    for send in result.sends:
        t = times[send.sync]
        if t is None:
            continue
        end = _end_time(send.required_end, times, result.graph)
        log.sends.append(ConcreteSend(
            (send.endpoint, send.message), t, end, send.context,
        ))
    return log


def sample_process_logs(process: Process, samples: int = 20,
                        iterations: int = 2, seed: int = 0,
                        max_slack: int = 3) -> List[ExecutionLog]:
    """Sample execution logs for every thread of a process."""
    rng = random.Random(seed)
    logs: List[ExecutionLog] = []
    for thread in process.threads:
        result = GraphBuilder(process, thread).build(iterations)
        for _ in range(samples):
            logs.append(sample_log(result, rng, max_slack))
    return logs
