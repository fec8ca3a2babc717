"""Backend-neutral FSM execution plans (the middle of the Anvil backend).

The event graph (:mod:`repro.core.events`) is the compiler's IR; executing
it needs one more lowering step.  A :class:`ProcessPlan` is that step's
output: a frozen, backend-neutral description of how a compiled process
runs cycle by cycle --

* per-thread event firing order (graphs are built in topological order,
  so plan order *is* evaluation order), with every event's predecessor
  list, delay, branch condition and handshake role pre-resolved;
* per-event **latch specs** (the combinational overlay writes: received
  data, sync success flags, latched expressions) and **commit specs**
  (register writes and debug prints; the clock edge commits slots by
  merging the overlay), extracted once from the action lists so no
  backend ever runs ``isinstance`` over
  :class:`~repro.core.events.Action` objects in its inner loop;
* the **port table**: every ``(endpoint, message)`` pair the process
  actually synchronizes on or queries readiness of, with its
  sender/receiver role -- the exact combinational sensitivity of the
  generated FSM.  Handshake wires of messages a process is bound to but
  never uses appear nowhere in the plan, so simulation backends derive
  *precise* ``comb_inputs``/``comb_outputs`` sets instead of the
  conservative "every bound wire" hint.

The plan is the only compiled artifact.  Four consumers read it: the
reference interpreter in :mod:`repro.codegen.simfsm`, the generated-Python
backend in :mod:`repro.codegen.pysim`, the SystemVerilog emitter in
:mod:`repro.codegen.sysverilog` and the Table 1 cost model in
:mod:`repro.synth.cost`.  What an event does when it fires is decided
here once, so the two simulators stay observationally identical and the
emitted circuit is the one they simulate.

A plan is a pure function of ``(process, do_optimize)``, so
:func:`build_process_plan` keeps the plans it built in a process-wide
:class:`~repro.compile_cache.SourceCache` keyed by :func:`plan_key`: an
equal process planned again -- a fresh factory build, the SystemVerilog
path after the simulation path, a campaign rebuilding its scenario --
gets the first plan back, skipping graph building, the optimizer and
planning, and through the plan's ``_backend`` memo the pysim source
generation too.  A hit's ``plan.process`` is the first equal process, so
readers take from it only what equal processes share (its name,
registers and endpoints).
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..codegen import rexpr as rx
from ..compile_cache import SourceCache
from .events import (
    DebugPrintAction,
    EventGraph,
    EventKind,
    RecvBindAction,
    RegWriteAction,
    SendDataAction,
    SyncDir,
    SyncFlagAction,
    SyncGuardAction,
)
from .graph_builder import GraphBuilder, LatchAction
from .optimize import optimize


# ---------------------------------------------------------------------------
# latch specs: combinational overlay writes executed when an event fires
# ---------------------------------------------------------------------------
class LatchRecv(NamedTuple):
    """overlay[slot] = port.data (the bypass path of a receive)."""
    port: int
    slot: int


class LatchFlag(NamedTuple):
    """overlay[slot] = 1 iff the handshake transferred this cycle."""
    port: int
    slot: int


class LatchExpr(NamedTuple):
    """overlay[slot] = eval(source) (let bindings, branch conditions)."""
    slot: int
    source: rx.RExpr


# ---------------------------------------------------------------------------
# commit specs: clock-edge effects of a fired event
# ---------------------------------------------------------------------------
class CommitReg(NamedTuple):
    reg: str
    source: rx.RExpr


class CommitPrint(NamedTuple):
    fmt: str
    source: Optional[rx.RExpr]


class PortPlan:
    """One synchronized (or readiness-queried) message of the process."""

    __slots__ = ("index", "endpoint", "message", "is_sender", "width",
                 "drives")

    def __init__(self, index: int, endpoint: str, message: str,
                 is_sender: bool, width: int):
        self.index = index
        self.endpoint = endpoint
        self.message = message
        self.is_sender = is_sender
        self.width = width
        #: True once a SYNC event uses the key: the process then *drives*
        #: its handshake side (valid/data as sender, ack as receiver).
        #: Readiness-only ports observe the counterpart but drive nothing.
        self.drives = False

    @property
    def key(self) -> Tuple[str, str]:
        return (self.endpoint, self.message)

    def __repr__(self):
        role = "send" if self.is_sender else "recv"
        return f"PortPlan(#{self.index} {self.endpoint}.{self.message} {role})"


class EventPlan:
    """One event, fully resolved for execution."""

    __slots__ = ("eid", "kind", "preds", "delay", "conditional", "cond_id",
                 "polarity", "direction", "port", "sync_key", "guard",
                 "payload", "latches", "commits", "cond_expr")

    def __init__(self, eid: int, kind: EventKind, preds: Tuple[int, ...],
                 delay: int = 0, conditional: bool = False,
                 cond_id: int = -1, polarity: bool = True,
                 direction: Optional[SyncDir] = None, port: int = -1,
                 sync_key: Optional[Tuple[str, str]] = None):
        self.eid = eid
        self.kind = kind
        self.preds = preds
        self.delay = delay
        self.conditional = conditional
        self.cond_id = cond_id
        self.polarity = polarity
        self.direction = direction
        self.port = port
        self.sync_key = sync_key
        self.guard: Optional[rx.RExpr] = None      # SYNC only; last wins
        self.payload: Optional[rx.RExpr] = None    # SYNC SEND only
        self.latches: Tuple = ()
        self.commits: Tuple = ()
        self.cond_expr: Optional[rx.RExpr] = None  # BRANCH only

    def __repr__(self):
        return f"EventPlan(e{self.eid} {self.kind.value})"


class ThreadPlan:
    """One thread's executable plan."""

    __slots__ = ("index", "kind", "anchor", "events", "n_events",
                 "graph", "delays")

    def __init__(self, index: int, kind: str, anchor: int,
                 events: Tuple[EventPlan, ...], graph: EventGraph):
        self.index = index
        self.kind = kind
        self.anchor = anchor
        self.events = events
        self.n_events = len(events)
        #: the optimized event graph: the cost model reads its handshake
        #: slacks and concrete fire times
        self.graph = graph
        #: DELAY events with their predecessors -- what the activation
        #: dedup in tick() needs to compute outstanding due-times
        self.delays: Tuple[Tuple[int, Tuple[int, ...], int], ...] = tuple(
            (e.eid, e.preds, e.delay)
            for e in events if e.kind is EventKind.DELAY
        )

    def __repr__(self):
        return f"ThreadPlan(t{self.index} {self.kind}, {self.n_events} events)"


class ProcessPlan:
    """Everything an execution backend needs, and nothing it must re-derive."""

    __slots__ = ("process", "name", "optimized", "threads", "ports",
                 "port_index", "optimize_stats", "reg_masks",
                 "_scanned_exprs", "_backend")

    def __init__(self, process, optimized: bool):
        self.process = process
        self.name = process.name
        self.optimized = optimized
        #: register name -> width mask applied to every committed write
        self.reg_masks: Dict[str, int] = {
            name: (1 << r.dtype.width) - 1
            for name, r in process.registers.items()
        }
        self.threads: List[ThreadPlan] = []
        self.ports: List[PortPlan] = []
        self.port_index: Dict[Tuple[str, str], int] = {}
        self.optimize_stats: List = []
        # expression nodes already scanned for readiness reads -- shared
        # subexpression DAGs (e.g. AES xtime chains) must be walked as
        # DAGs, not trees, or extraction goes exponential
        self._scanned_exprs: set = set()
        # per-plan memo of the generated-Python backend (set by
        # repro.codegen.pysim.backend_for), so repeat instantiation of
        # one compiled process skips even the source regeneration
        self._backend = None

    # -- port registry ----------------------------------------------------
    def _port(self, endpoint: str, message: str) -> PortPlan:
        key = (endpoint, message)
        idx = self.port_index.get(key)
        if idx is not None:
            return self.ports[idx]
        ep = self.process.get_endpoint(endpoint)
        msg = ep.message(message)
        pp = PortPlan(len(self.ports), endpoint, message,
                      ep.sends(message), msg.dtype.width)
        self.port_index[key] = pp.index
        self.ports.append(pp)
        return pp

    def __repr__(self):
        return (f"ProcessPlan({self.name!r}, {len(self.threads)} threads, "
                f"{len(self.ports)} ports)")


def _collect_cond_exprs(graph: EventGraph) -> Dict[int, rx.RExpr]:
    """Map each branch condition id to the slot its latch writes (the
    slot overlay makes the latched value combinationally visible in the
    latching cycle, surviving optimizer merges)."""
    out: Dict[int, rx.RExpr] = {}
    for ev in graph.events:
        for act in ev.actions:
            if isinstance(act, LatchAction) and act.cond_id >= 0:
                out[act.cond_id] = rx.RSlot(act.slot, 1, f"c{act.cond_id}")
    return out


def _register_ready_reads(plan: ProcessPlan, expr: Optional[rx.RExpr]):
    """Readiness queries are combinational reads of the counterpart's
    handshake wire; they belong in the port table even without a sync."""
    if expr is None:
        return
    seen = plan._scanned_exprs
    stack = [expr]
    while stack:
        node = stack.pop()
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        if isinstance(node, rx.RReady):
            plan._port(node.endpoint, node.message)
        stack.extend(node.children())


def _extract_event(plan: ProcessPlan, ev) -> EventPlan:
    ep = EventPlan(
        ev.eid, ev.kind, ev.preds, delay=ev.delay,
        conditional=ev.conditional, cond_id=ev.cond_id,
        polarity=ev.polarity, direction=ev.direction,
    )
    if ev.kind is EventKind.SYNC:
        pp = plan._port(ev.endpoint, ev.message)
        pp.drives = True
        ep.port = pp.index
        ep.sync_key = pp.key
    latches: List = []
    commits: List = []
    for act in ev.actions:
        if isinstance(act, RecvBindAction):
            pp = plan._port(act.endpoint, act.message)
            latches.append(LatchRecv(pp.index, act.target))
        elif isinstance(act, SyncFlagAction):
            pp = plan._port(act.endpoint, act.message)
            latches.append(LatchFlag(pp.index, act.target))
        elif isinstance(act, LatchAction):
            latches.append(LatchExpr(act.slot, act.source))
            _register_ready_reads(plan, act.source)
        elif isinstance(act, RegWriteAction):
            commits.append(CommitReg(act.reg, act.source))
            _register_ready_reads(plan, act.source)
        elif isinstance(act, SendDataAction):
            ep.payload = act.source          # driven combinationally
            _register_ready_reads(plan, act.source)
        elif isinstance(act, SyncGuardAction):
            ep.guard = act.source
            _register_ready_reads(plan, act.source)
        elif isinstance(act, DebugPrintAction):
            commits.append(CommitPrint(act.fmt, act.source))
            _register_ready_reads(plan, act.source)
    ep.latches = tuple(latches)
    ep.commits = tuple(commits)
    return ep


def build_thread_plan(plan: ProcessPlan, thread, index: int,
                      do_optimize: bool) -> ThreadPlan:
    result = GraphBuilder(plan.process, thread).build(iterations=1)
    graph, anchor = result.graph, result.anchor
    if do_optimize:
        graph, mapping, stats = optimize(graph)
        anchor = mapping.get(anchor, anchor)
        plan.optimize_stats.append(stats)
    cond_exprs = _collect_cond_exprs(graph)
    events = []
    for ev in graph.events:
        epl = _extract_event(plan, ev)
        if ev.kind is EventKind.BRANCH:
            epl.cond_expr = cond_exprs.get(ev.cond_id)
            _register_ready_reads(plan, epl.cond_expr)
        events.append(epl)
    return ThreadPlan(index, thread.kind, anchor, tuple(events), graph)


def plan_key(process, do_optimize: bool) -> Optional[str]:
    """The plan cache's key for ``(process, do_optimize)``: the SHA-256
    of their pickle, or ``None`` when pickle refuses the process (a
    local function or class in it, say).  The pickler's memo keeps
    shared subterms shared, so equal keys mean equal processes down to
    which subterms are one object."""
    try:
        image = pickle.dumps((process, bool(do_optimize)), protocol=5)
    except (pickle.PicklingError, AttributeError, TypeError,
            RecursionError):
        return None         # planned cold, every time
    return hashlib.sha256(image).hexdigest()


def _plan(process, do_optimize: bool) -> ProcessPlan:
    plan = ProcessPlan(process, do_optimize)
    for i, thread in enumerate(process.threads):
        plan.threads.append(build_thread_plan(plan, thread, i, do_optimize))
    return plan


_PLANS = SourceCache()

#: plan-cache counters (``hits``/``misses``/``entries``/``evictions``;
#: a process without a key counts a miss) and their reset (tests)
cache_stats = _PLANS.stats
clear_cache = _PLANS.clear


def build_process_plan(process, do_optimize: bool = True) -> ProcessPlan:
    """Lower every thread of ``process`` to an executable plan, or
    return the plan of an equal process built earlier (thread-safe).

    This is the single entry point every plan consumer compiles
    through; :func:`repro.codegen.simfsm.compile_process` is its public
    name."""
    return _PLANS.get(plan_key(process, do_optimize),
                      lambda: _plan(process, do_optimize))


# ---------------------------------------------------------------------------
# sensitivity: which wires of a port a backend reads/writes
# ---------------------------------------------------------------------------
def port_reads(pp: PortPlan) -> Tuple[str, ...]:
    """Wire roles ``eval_comb`` is sensitive to for this port."""
    if pp.is_sender:
        return ("ack",)
    if pp.drives:
        return ("valid", "data")
    return ("valid",)        # readiness query only


def port_writes(pp: PortPlan) -> Tuple[str, ...]:
    """Wire roles ``eval_comb`` may drive for this port."""
    if not pp.drives:
        return ()
    if pp.is_sender:
        return ("valid", "data")
    return ("ack",)
