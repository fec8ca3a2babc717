"""Executable FSMs: compiled Anvil processes on the RTL simulator.

The paper's compiler lowers the event graph to an FSM with one ``current``
wire per event plus state registers for joins, cycle delays and dynamic
sends/receives (Section 6.2).  This module is the executable analogue,
split into three layers:

1. :func:`compile_process` lowers a process into a backend-neutral
   **FSM plan** (:class:`repro.core.fsmplan.ProcessPlan`: per-thread
   firing order over events that carry their latches and commits, the
   exact handshake sensitivity sets), the one compiled artifact the
   simulators, the SystemVerilog emitter and the cost model all read;
2. :class:`AnvilProcessModule` owns the run-time state -- activations,
   per-activation slots, the register file, handshake ports -- and the
   **reference interpreter** that walks the plan cycle by cycle;
3. ``backend="pycompiled"`` replaces the module's ``eval_comb`` and
   ``tick`` with the process's cycle step, generated, ``compile()``d
   and ``exec``'d from the same plan by :mod:`repro.codegen.pysim` --
   semantically identical, several times faster.  The rare paths stay
   here and are shared: the first evaluation (``_start``), the runaway
   errors (``_runaway``), activation dedup (``_dedup``, ``_state_key``)
   and the re-fire of an activation whose settle cache went stale
   (``_interp_fire``).

Execution semantics (identical across backends):

* event firing is computed *combinationally* each settle iteration (the
  ``current`` wires), monotonically within a cycle;
* actions (register writes, data latching, debug prints) commit at the
  clock edge;
* ``loop`` threads respawn an activation at the loop-back anchor; a
  ``recursive`` thread respawns at its ``recurse`` event, so iterations
  overlap exactly as the language semantics prescribe.

Because the type checker has already guaranteed timing safety, the
backends need no value buffering beyond what the FSM itself has --
which is why the generated hardware carries no lifetime bookkeeping.
"""

from __future__ import annotations

from itertools import chain
from types import MethodType
from typing import Dict, List, Optional, Tuple

from ..core.events import CommitReg, EventKind, LatchFlag, LatchRecv, SyncDir
from ..core.fsmplan import (
    ProcessPlan,
    ThreadPlan,
    build_process_plan,
    port_reads,
    port_writes,
)
from ..errors import ContractViolationError, SimulationError
from ..lang.channels import Side
from ..lang.process import Process, System
from ..rtl.module import Module
from ..rtl.signal import Wire
from . import rexpr as rx

#: execution backends an :class:`AnvilProcessModule` can run on
BACKENDS = ("interp", "pycompiled")


def compile_process(process: Process, do_optimize: bool = True
                    ) -> ProcessPlan:
    """Compile each thread to a single-iteration event graph and its
    FSM plan (type-check free)."""
    return build_process_plan(process, do_optimize)


class MessagePort:
    """The wire triplet of one message on one channel instance."""

    def __init__(self, name: str, width: int):
        self.data = Wire(f"{name}.data", width)
        self.valid = Wire(f"{name}.valid", 1)
        self.ack = Wire(f"{name}.ack", 1)

    def wires(self):
        return (self.data, self.valid, self.ack)

    @property
    def fires(self) -> bool:
        return bool(self.valid.value and self.ack.value)

    def __repr__(self):
        return (
            f"MessagePort(data={self.data.value:#x} "
            f"v={self.valid.value} a={self.ack.value})"
        )


class _SlotView:
    """Committed slots with a same-cycle overlay (the hardware's bypass
    path: data latched this cycle is combinationally visible)."""

    __slots__ = ("base", "overlay")

    def __init__(self, base: Dict[int, int], overlay: Dict[int, int]):
        self.base = base
        self.overlay = overlay

    def get(self, key, default=0):
        if key in self.overlay:
            return self.overlay[key]
        return self.base.get(key, default)


class Activation:
    """One in-flight iteration of a thread."""

    __slots__ = ("start", "fired", "dead", "slots", "spawned", "cache")

    def __init__(self, start: int):
        self.start = start
        self.fired: Dict[int, int] = {}  # eid -> cycle
        self.dead: set = set()
        self.slots: Dict[int, int] = {}
        self.spawned = False
        # (cycle, fired_now, dead_now, overlay) from the last settled
        # fire pass; consumed by tick() so the clock edge does not
        # recompute the fire set the settle phase already produced
        self.cache: Optional[Tuple] = None


class AnvilProcessModule(Module):
    """Run-time instance of a compiled process.

    ``backend`` selects how the cycle step executes: ``"interp"`` runs
    the class's ``eval_comb`` and ``tick``, which walk the plan with the
    reference interpreter; ``"pycompiled"`` binds the process's
    generated ``_EVAL``/``_TICK`` from :mod:`repro.codegen.pysim` as the
    instance's ``eval_comb`` and ``tick``.  Both keep the same state in
    the same attributes and share the rare paths -- ``_start``,
    ``_runaway``, ``_dedup``, and ``_interp_fire`` for a stale settle
    cache -- so the two backends are observationally identical.  The
    choice lives only in the bound methods, which are not plain data,
    never in module state, so snapshots, prefix keys and campaign
    digests do not depend on it.
    """

    MAX_ACTIVATIONS = 64
    MAX_SPAWNS_PER_CYCLE = 16

    def __init__(self, plan: ProcessPlan, name: str = "",
                 backend: str = "interp"):
        super().__init__(name or plan.name)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (use 'interp' or 'pycompiled')"
            )
        self.plan = plan
        self.process = plan.process
        self.regs: Dict[str, int] = {
            r.name: r.init for r in self.process.registers.values()
        }
        # endpoint -> message -> MessagePort (shared with the counterpart)
        self.ports: Dict[str, Dict[str, MessagePort]] = {}
        self.sides: Dict[str, Side] = {}
        self.cycle = 0
        self.debug_log: List[Tuple[int, str, Optional[int]]] = []
        self.print_debug = False
        self._threads_rt: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        self._tentative: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        # the interpreter's register writes of one clock edge (the
        # generated tick keeps its own locally): empty between cycles
        self._reg_writes: List[Tuple[str, int]] = []
        self._started = False
        # flat port-wire table: [data, valid, ack] per plan port, filled
        # by bind_endpoint (None until the endpoint is wired)
        self._pw: List[Optional[Wire]] = [None] * (3 * len(self.plan.ports))
        self._ready_wires: Dict[Tuple[str, str], Wire] = {}
        self._release_wires: List[Wire] = []   # handshake outputs to drop
        if backend == "pycompiled":
            from .pysim import backend_for

            # the generated cycle step, bound to this instance; a bound
            # method is not plain data, so snapshots skip it
            be = backend_for(self.plan)
            self.eval_comb = MethodType(be.eval, self)
            self.tick = MethodType(be.tick, self)

    # -- wiring -----------------------------------------------------------
    def bind_endpoint(self, endpoint: str, side: Side,
                      ports: Dict[str, MessagePort]):
        self.ports[endpoint] = ports
        self.sides[endpoint] = side
        for m, p in ports.items():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        for pp in self.plan.ports:
            if pp.endpoint != endpoint:
                continue
            port = ports[pp.message]
            base = 3 * pp.index
            self._pw[base] = port.data
            self._pw[base + 1] = port.valid
            self._pw[base + 2] = port.ack
            self._ready_wires[pp.key] = (
                port.ack if pp.is_sender else port.valid
            )
            if pp.drives:
                self._release_wires.append(
                    port.valid if pp.is_sender else port.ack
                )

    def _ready(self, endpoint: str, message: str) -> int:
        return self._ready_wires[(endpoint, message)].value

    # -- scheduler registration --------------------------------------------
    # The compiled FSM's combinational block is exactly its handshake
    # logic, and the plan's port table records precisely which messages
    # the process synchronizes on or observes: as a sender it drives
    # valid/data and reacts to the ack, as a receiver it drives the ack
    # and reacts to valid/data, and a readiness query reads the
    # counterpart's handshake bit.  Registers, slots and activation
    # state only change at the clock edge, so they need no sensitivity
    # edges.  Wires of messages the process is bound to but never uses
    # appear in neither set -- the levelized scheduler gets the exact
    # dependency surface of the generated hardware.
    _ROLE = {"data": 0, "valid": 1, "ack": 2}

    def comb_inputs(self):
        ins = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_reads(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    ins.append(w)
        return ins

    def comb_outputs(self):
        outs = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_writes(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    outs.append(w)
        return outs

    # -- combinational phase ---------------------------------------------
    # Between ticks a thread's list holds only live activations (tick
    # drops retired ones), so a settle pass walks it as is, then the
    # activations it spawns: the walk over ``tentative`` sees the
    # children appended while it runs.
    def eval_comb(self):
        if not self._started:
            self._start()
        # release our handshake outputs, then re-drive below
        for w in self._release_wires:
            w.value = 0
        now = self.cycle
        for ti, tp in enumerate(self.plan.threads):
            acts = self._threads_rt[ti]
            tentative = self._tentative[ti]
            tentative.clear()
            anchor = tp.anchor
            busy: set = set()
            spawns = 0
            for act in chain(acts, tentative):
                fired_now, dead_now, overlay = self._interp_fire(
                    tp, act, busy)
                act.cache = (now, fired_now, dead_now, overlay)
                if act.spawned or not (anchor in fired_now
                                       or anchor in act.fired):
                    continue
                spawns += 1
                if (spawns > self.MAX_SPAWNS_PER_CYCLE
                        or len(acts) + len(tentative)
                        >= self.MAX_ACTIVATIONS):
                    self._runaway(ti, spawns)
                tentative.append(Activation(now))

    def _start(self):
        """The first evaluation: every thread starts an activation at
        cycle 0."""
        for acts in self._threads_rt:
            if not acts:
                acts.append(Activation(0))
        self._started = True

    def _runaway(self, ti: int, spawns: int):
        """Raise thread ``ti``'s runaway error: more than
        ``MAX_SPAWNS_PER_CYCLE`` spawns this cycle, else
        ``MAX_ACTIVATIONS`` activations live."""
        where = (f"{self.name}: cycle {self.cycle}: thread {ti} "
                 f"({self.process.threads[ti].name}):")
        if spawns > self.MAX_SPAWNS_PER_CYCLE:
            raise SimulationError(
                f"{where} zero-delay loop detected (more than "
                f"{self.MAX_SPAWNS_PER_CYCLE} activations spawned in one "
                f"cycle, anchored at e{self.plan.threads[ti].anchor})"
            )
        raise SimulationError(
            f"{where} too many concurrent activations (limit "
            f"{self.MAX_ACTIVATIONS})"
        )

    # -- the reference interpreter ----------------------------------------
    def _apply_latches(self, ev, overlay, env):
        pw = self._pw
        base = 3 * ev.port      # a recv or flag latches its own handshake
        for latch in ev.latches:
            t = type(latch)
            if t is LatchRecv:
                overlay[latch.slot] = pw[base].value
            elif t is LatchFlag:
                overlay[latch.slot] = (
                    1 if (pw[base + 1].value and pw[base + 2].value) else 0
                )
            else:   # LatchExpr
                overlay[latch.slot] = latch.source.eval(env)

    def _interp_fire(self, tp: ThreadPlan, act: Activation, busy: set):
        """Compute events firing *this* cycle for one activation and drive
        handshake wires for active syncs.  Pure function of settled state;
        re-run every settle iteration (permanent state only commits at the
        clock edge).  The generated tick calls it too, for an activation
        whose settle cache is stale."""
        now = self.cycle
        fired_now: Dict[int, int] = {}
        dead_now: set = set()
        overlay: Dict[int, int] = {}
        env = rx.REnv(self.regs, _SlotView(act.slots, overlay), self._ready)
        af = act.fired
        ad = act.dead
        af_get = af.get
        fn_get = fired_now.get
        pw = self._pw
        start = act.start

        for epl in tp.events:
            eid = epl.eid
            if eid in af or eid in ad or eid in fired_now \
                    or eid in dead_now:
                continue
            kind = epl.kind
            if kind is EventKind.ROOT:
                if start == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl, overlay, env)
                continue
            preds = epl.preds
            if kind is EventKind.JOIN_ANY:
                ready = False
                alive = False
                for p in preds:
                    c = af_get(p)
                    if c is None:
                        c = fn_get(p)
                    if c is not None:
                        ready = alive = True
                        break
                    if not (p in ad or p in dead_now):
                        alive = True
                if ready:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl, overlay, env)
                elif not alive:
                    dead_now.add(eid)
                continue
            # all other kinds require every predecessor
            dead = False
            for p in preds:
                if p in ad or p in dead_now:
                    dead = True
                    break
            if dead:
                dead_now.add(eid)
                continue
            base = start
            blocked = False
            for p in preds:
                c = af_get(p)
                if c is None:
                    c = fn_get(p)
                    if c is None:
                        blocked = True
                        break
                if c > base:
                    base = c
            if blocked:
                continue
            if kind is EventKind.DELAY:
                if base + epl.delay == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl, overlay, env)
                continue
            if kind is EventKind.JOIN_ALL:
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl, overlay, env)
                continue
            if kind is EventKind.BRANCH:
                expr = epl.cond_expr
                cond = expr.eval(env) & 1 if expr is not None else 0
                if bool(cond) == epl.polarity:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl, overlay, env)
                else:
                    dead_now.add(eid)
                continue
            # SYNC
            port = epl.port
            if port in busy:
                continue  # an older activation owns the handshake
            busy.add(port)
            base3 = 3 * port
            guard = 1 if epl.guard is None else epl.guard.eval(env) & 1
            if epl.direction is SyncDir.SEND:
                if guard:
                    pw[base3 + 1].value = 1
                    dw = pw[base3]
                    payload = (
                        epl.payload.eval(env)
                        if epl.payload is not None else 0
                    )
                    dw.value = payload & dw.mask
            else:
                if guard:
                    pw[base3 + 2].value = 1
            if epl.conditional or (pw[base3 + 1].value
                                   and pw[base3 + 2].value):
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl, overlay, env)
        return fired_now, dead_now, overlay

    def _interp_commit(self, tp: ThreadPlan, act: Activation,
                       fired_now: Dict[int, int]):
        env = None
        now = self.cycle
        events = tp.events
        for eid in fired_now:
            for c in events[eid].commits:
                if env is None:
                    # tick() has merged the overlay into the slots already
                    env = rx.REnv(self.regs, act.slots, self._ready)
                if type(c) is CommitReg:
                    self._reg_writes.append((c.reg, c.source.eval(env)))
                else:   # CommitPrint
                    value = (
                        c.source.eval(env)
                        if c.source is not None else None
                    )
                    self.debug_log.append((now, c.fmt, value))
                    if self.print_debug:
                        suffix = "" if value is None else f" {value:#x}"
                        print(f"[{now}] {self.name}: {c.fmt}{suffix}")

    # -- clock edge ---------------------------------------------------------
    def tick(self):
        """Commit each activation's settled fire pass: its dead and
        fired events, its overlay into its slots (every slot a fired
        event writes is there, at its final value), then its register
        writes and prints."""
        now = self.cycle
        for ti, tp in enumerate(self.plan.threads):
            acts = self._threads_rt[ti]
            tentative = self._tentative[ti]
            if tentative:
                acts.extend(tentative)
                tentative.clear()
            n_events = tp.n_events
            anchor = tp.anchor
            busy: set = set()
            live = []
            for act in acts:
                cache = act.cache
                act.cache = None
                if cache is not None and cache[0] == now:
                    # the settle phase already computed this activation's
                    # fire set on the settled wires; reuse it
                    _cyc, fired_now, dead_now, overlay = cache
                else:
                    fired_now, dead_now, overlay = self._interp_fire(
                        tp, act, busy)
                if dead_now:
                    act.dead.update(dead_now)
                if fired_now:
                    act.fired.update(fired_now)
                    act.slots.update(overlay)
                    self._interp_commit(tp, act, fired_now)
                    if anchor in fired_now:
                        act.spawned = True
                if len(act.fired) + len(act.dead) != n_events:
                    live.append(act)
            self._threads_rt[ti] = (
                self._dedup(tp, live) if len(live) > 1 else live
            )
        if self._reg_writes:
            masks = self.plan.reg_masks
            regs = self.regs
            for reg, value in self._reg_writes:
                regs[reg] = value & masks[reg]
            self._reg_writes = []
        self.cycle = now + 1

    def _dedup(self, tp: ThreadPlan, live: List[Activation]
               ) -> List[Activation]:
        """Activations with identical FSM state are indistinguishable
        (the generated hardware holds one copy of that state); keep only
        the oldest of each equivalence class.  This is what stops
        stalled ``recursive`` iterations from piling up.

        Equal states have equal fired/dead/slot counts and ``spawned``
        flags, so the full state key is built only for activations that
        share that cheap signature with an earlier one."""
        first: Dict[Tuple, Activation] = {}
        keys: Dict[Tuple, set] = {}
        kept = []
        for a in live:
            sig = (len(a.fired), len(a.dead), len(a.slots), a.spawned)
            other = first.setdefault(sig, a)
            if other is not a:
                seen = keys.get(sig)
                if seen is None:
                    seen = keys[sig] = {self._state_key(tp, other)}
                key = self._state_key(tp, a)
                if key in seen:
                    continue
                seen.add(key)
            kept.append(a)
        return kept

    def _state_key(self, tp: ThreadPlan, a: Activation) -> Tuple:
        dues = []
        for eid, preds, delay in tp.delays:
            if eid not in a.fired and eid not in a.dead and preds \
                    and all(p in a.fired for p in preds):
                base = max(a.fired[p] for p in preds)
                dues.append((eid, base + delay - self.cycle))
        return (
            frozenset(a.fired),
            frozenset(a.dead),
            tuple(sorted(a.slots.items())),
            tuple(sorted(dues)),
            a.spawned,
        )


class ExternalEndpoint(Module):
    """Test-bench driver for the far side of an exposed channel.

    Provides queue-based ``send``/``always_receive`` so tests and
    baseline co-simulations can interact with Anvil modules through
    ordinary valid/ack handshakes.

    A send queue keeps every value ever queued: the ones already
    handed over are exactly those recorded in ``sent``, so
    ``len(sent[m])`` is the queue's read cursor."""

    def __init__(self, name: str, channel, side: Side,
                 ports: Dict[str, MessagePort]):
        super().__init__(name)
        self.channel = channel
        self.side = side
        self.ports = ports
        for p in ports.values():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        self._send_queues: Dict[str, List[int]] = {}
        self._recv_enabled: Dict[str, bool] = {}
        self.received: Dict[str, List[Tuple[int, int]]] = {}
        self.sent: Dict[str, List[Tuple[int, int]]] = {}
        self.cycle = 0
        self._sender_memo: Dict[str, bool] = {
            m: channel.message(m).sender_side() is side for m in ports
        }
        # each message's (name, valid, ack, data), split by role in port
        # order so eval_comb/tick never look the role up.  Kept as one
        # attribute that always holds wires: snapshots and state
        # signatures skip it as structural (an empty plain tuple would
        # enter them).
        entries = [(m, p.valid, p.ack, p.data) for m, p in ports.items()]
        self._roles = (
            tuple(e for e in entries if self._sender_memo[e[0]]),
            tuple(e for e in entries if not self._sender_memo[e[0]]),
        )

    def _is_sender(self, message: str) -> bool:
        hit = self._sender_memo.get(message)
        if hit is None:
            hit = self.channel.message(message).sender_side() is self.side
            self._sender_memo[message] = hit
        return hit

    def send(self, message: str, *values: int):
        """Queue ``values`` on ``message``, in order (none: queue
        nothing)."""
        if not self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is not the sender of {message!r}"
            )
        if values:
            self._send_queues.setdefault(message, []).extend(values)

    def always_receive(self, message: str, enabled: bool = True):
        if self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is the sender of {message!r}"
            )
        self._recv_enabled[message] = enabled

    def comb_inputs(self):
        return ()      # drives from queues/flags; reads no wires

    def comb_outputs(self):
        outs = []
        for m, port in self.ports.items():
            if self._is_sender(m):
                outs.append(port.valid)
                outs.append(port.data)
            else:
                outs.append(port.ack)
        return outs

    def eval_comb(self):
        sends, receives = self._roles
        queues = self._send_queues
        sent = self.sent
        for m, valid, _ack, data in sends:
            queue = queues.get(m)
            if queue:
                k = len(sent.get(m, ()))
                if k < len(queue):
                    valid.value = 1
                    data.value = queue[k] & data.mask
                    continue
            valid.value = 0
        enabled = self._recv_enabled
        for m, _valid, ack, _data in receives:
            ack.value = 1 if enabled.get(m) else 0

    def tick(self):
        sends, receives = self._roles
        cycle = self.cycle
        queues = self._send_queues
        sent = self.sent
        for m, valid, ack, _data in sends:
            if valid.value and ack.value:
                queue = queues.get(m)
                if queue:
                    k = len(sent.get(m, ()))
                    if k < len(queue):
                        sent.setdefault(m, []).append((cycle, queue[k]))
        received = self.received
        for m, valid, ack, data in receives:
            if valid.value and ack.value:
                received.setdefault(m, []).append((cycle, data.value))
        self.cycle = cycle + 1


class SimulatedSystem:
    """A :class:`~repro.lang.process.System` elaborated onto the simulator."""

    def __init__(self, system: System, sim, modules, externals,
                 backend: str = "interp"):
        self.system = system
        self.sim = sim
        self.backend = backend
        self.modules: Dict[str, AnvilProcessModule] = modules
        self.externals: Dict[int, ExternalEndpoint] = externals

    def module(self, name: str) -> AnvilProcessModule:
        return self.modules[name]

    def external(self, chan) -> ExternalEndpoint:
        cid = chan.cid if hasattr(chan, "cid") else chan
        return self.externals[cid]


def build_simulation(system: System, sim=None, do_optimize: bool = True,
                     backend: str = "interp",
                     engine: str = "levelized") -> SimulatedSystem:
    """Elaborate a system: compile every process, create channel wires and
    external drivers for exposed endpoints.

    ``backend`` selects the execution backend of every compiled process
    module (``"interp"`` or ``"pycompiled"``); ``engine`` the settle
    engine of the simulator created when ``sim`` is not supplied (an
    existing ``sim`` keeps its own engine).  All combinations are
    observationally identical."""
    from ..rtl.simulator import Simulator

    sim = sim or Simulator(system.name, engine=engine)
    plans: Dict[str, ProcessPlan] = {}
    modules: Dict[str, AnvilProcessModule] = {}
    for inst in system.instances.values():
        if inst.process.name not in plans:
            plans[inst.process.name] = compile_process(
                inst.process, do_optimize
            )
        modules[inst.name] = AnvilProcessModule(
            plans[inst.process.name], inst.name, backend=backend
        )
    externals: Dict[int, ExternalEndpoint] = {}
    for chan in system.channels:
        ports = {
            m.name: MessagePort(
                f"ch{chan.cid}.{m.name}", m.dtype.width
            )
            for m in chan.channel
        }
        for side in (Side.LEFT, Side.RIGHT):
            bound = chan.ends.get(side)
            if bound is not None:
                inst_name, ep_name = bound
                modules[inst_name].bind_endpoint(ep_name, side, ports)
            else:
                ext = ExternalEndpoint(
                    f"ext_ch{chan.cid}", chan.channel, side, ports
                )
                externals[chan.cid] = ext
    for m in modules.values():
        sim.add(m)
    for e in externals.values():
        sim.add(e)
    return SimulatedSystem(system, sim, modules, externals, backend=backend)
