"""Generated-Python FSM backend: compile the plan, not interpret it.

The reference interpreter in :mod:`repro.codegen.simfsm` re-walks a
process's :class:`~repro.core.fsmplan.ProcessPlan` on every settle
iteration of every cycle -- generic dispatch on event kinds, recursive
``RExpr.eval`` per expression node.  This module removes all of that
per-cycle interpretation: from the plan it emits straight-line Python
source for the process's whole cycle step -- one **settle** function
``_EVAL(m)`` (every thread's fire body: compute the events firing this
cycle, drive handshake wires, latch slots) and one **clock-edge**
function ``_TICK(m)`` (commit each thread's settled event states and
slots, register writes and prints) -- with every runtime
expression lowered to an inline Python expression by
:meth:`~repro.codegen.rexpr.RExpr.to_python`.  The source is
``compile()``d and ``exec``'d once per distinct plan and cached, so
harness sweeps that rebuild the same design row after row never pay
the compilation twice.

Both backends must stay observationally identical -- same waveforms,
same toggle counts, same diagnostics; ``tests/test_pysim.py`` pins that
over randomized workloads of all six design families.

Gate blocks
-----------

The hardware evaluates every event's fire logic in parallel each
cycle; the interpreter visits every event of every live activation on
every settle pass.  A generated fire body skips, instead, what cannot
change this pass.  It works on ``cur`` and ``_sl``, the pass's copies
of the activation's event-state and slot lists (see
:class:`~repro.codegen.simfsm.Activation`), so every test, mark, latch
and slot read is one list index.  An event's *gates* are its proper
dominators (events on every path from the root to it) that can stay
unresolved after their predecessors fired, or die: a branch, a delay of
at least one cycle, a handshaking (not ``conditional``) sync.  Events
are still emitted one by one in event order, but each run of
consecutive events that share a gate ``g`` is nested in ``if cur[g] >
0:``, followed by ``elif cur[g] < 0 and not cur[a]:`` and one slice
store of a pooled tuple of ``-1`` over the run ``a..b`` (a run is
consecutive events, so their ids are contiguous).  The test of ``a``,
the run's first event, skips the store for a gate that died in an
earlier cycle, whose run is dead already.  Inside the block, the
predecessor tests that an open gate answers are dropped, and a delay's
base is its latest predecessor's fire cycle (no event fires before its
activation starts, so the start cycle never wins).

This is exact.  If ``g`` dominates ``e``, every predecessor of ``e`` is
``g`` or is dominated by ``g``, so nothing under ``g`` fires or dies
before ``g`` does: while ``g`` is pending, the skipped events would
have been pending too, and they never touch ``busy`` or a wire.  When
``g`` dies, everything under it dies in that same pass, which is what
the event-by-event code would have marked.  An event nests in at most
:data:`MAX_GATE_DEPTH` gate blocks, those of its outermost gates, which
keeps the source below Python's limit of 100 indentation levels; gates
past the cap open no block, and the events under them test those
predecessors as usual.

Cycle step
----------

:class:`~repro.codegen.simfsm.AnvilProcessModule` binds the two
functions as the instance's ``eval_comb`` and ``tick``.  ``_EVAL``
binds the cycle, its fire mark ``mark = now + 1``, the register file,
the thread lists and the port wires its fire bodies use once per call,
releases the handshake outputs, then per thread walks ``chain(acts,
tentative)`` with the thread's gate-nested fire body inlined in the
loop, so an activation binds only the pass's copies ``cur =
act.st[:]`` and ``_sl = act.slots[:]`` and its start cycle.  It stores
the pass as ``act.cache = (now, cur, _sl)`` and spawns at the anchor,
with the interpreter's runaway limits.  ``_TICK`` takes each
activation's cached pass; where ``cur`` differs from ``act.st`` it
adopts both copies (``act.st = cur``, ``act.slots = _sl``), runs the
thread's commit body inline (an event fired this cycle holds ``mark``;
each register write is masked to its register's width by a constant,
in a local ``_rw`` dict), marks the spawn and retires the activation
once no event is pending (``_dedup`` when more than one is live), and
it applies every write with one ``m.regs.update``.

A cache is stale only when something moved the module's ``cycle``
between settle and tick -- a fault on that attribute.  ``_TICK`` then
re-fires that activation with the reference ``_interp_fire``, which is
exact: the suites pin the interpreter's fire pass bit-identical to the
generated one, so the fire body is emitted once.  The rare paths stay
shared with the interpreter: ``_start`` (the first evaluation),
``_runaway`` (both runaway errors), ``_dedup`` and ``_state_key``.  A
bound method is not plain data, so snapshots, ``state_sig`` and
``matches`` skip the installed step, and a pycompiled module holds no
plain-data attribute that an interpreted one lacks: a checkpoint of one
restores on the other.

Caching
-------

Generated source is a pure function of the plan, so the compile cache
(a :class:`~repro.compile_cache.SourceCache`, like :mod:`repro.rtl.kernel`'s)
is keyed by the SHA-256 of the source itself (which also fingerprints
the optimization flags -- a plan built with ``do_optimize=False``
generates different source).  An equal process planned again gets its
first plan back from :func:`repro.core.fsmplan.build_process_plan`,
backend memo included, and never reaches this cache; a plan built anew
(after a plan-cache eviction, or for a process the plan cache cannot
key) regenerates its source but hits here.  :func:`cache_stats`
exposes hit/miss counters for the benchmark; :func:`clear_cache`
resets the cache (tests).
"""

from __future__ import annotations

import marshal
from itertools import chain
from typing import Dict, List, Tuple

from ..compile_cache import Emitter, SourceCache, source_key
from ..core.events import CommitReg, EventKind, LatchFlag, LatchRecv, SyncDir
from ..core.fsmplan import ProcessPlan, ThreadPlan
from .rexpr import RLit, RUnit, fit

#: most gate blocks one event of a generated fire body nests in; with
#: the function body, the activation loop and the four levels an event's
#: own code adds (1 + 1 + 64 + 4 = 70), the source stays below the
#: tokenizer's limit of 100 indentation levels
MAX_GATE_DEPTH = 64


class _ExprCtx:
    """The context handed to ``RExpr.to_python``: pooled constants, fresh
    temporaries, and handshake-wire name resolution against the plan's
    port table."""

    def __init__(self, plan: ProcessPlan):
        self.plan = plan
        self.consts: Dict[object, str] = {}
        self.const_order: List[Tuple[str, object]] = []
        self._temp = 0
        self._cse_n = 0
        self.cse: Dict[int, str] = {}    # id(node) -> temp name
        self.used_wires: set = set()

    def sub(self, node) -> str:
        """Render a child expression -- through the active CSE table, so
        a hoisted shared node renders as its temporary's name."""
        name = self.cse.get(id(node))
        if name is not None:
            return name
        return node.to_python(self)

    def const(self, value) -> str:
        name = self.consts.get(value)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[value] = name
            self.const_order.append((name, value))
        return name

    def temp(self) -> str:
        self._temp += 1
        return f"_i{self._temp}"

    def wire(self, port: int, role: str) -> str:
        name = f"_w{port}{role[0]}"      # _w3d / _w3v / _w3a
        self.used_wires.add(name)
        return name

    def ready(self, endpoint: str, message: str) -> str:
        idx = self.plan.port_index[(endpoint, message)]
        pp = self.plan.ports[idx]
        role = "ack" if pp.is_sender else "valid"
        return f"{self.wire(idx, role)}.value"


def _emit_exprs(em: Emitter, ctx: _ExprCtx, exprs) -> List[str]:
    """Render ``exprs`` (one environment) at the current emission
    point, hoisting shared DAG nodes into local temporaries first.

    Runtime expressions are DAGs with heavy sharing (the AES round
    functions reuse xtime chains hundreds of times); inlining them as
    trees makes the generated source exponential.  Within one evaluation
    site the environment is fixed, so every shared node can be computed
    once: nodes other than literals referenced more than once are
    assigned to ``_eN`` locals in dependency order, and the returned
    expressions refer to those names."""
    counts: Dict[int, int] = {}
    topo: List = []

    def visit(node):
        nid = id(node)
        counts[nid] = counts.get(nid, 0) + 1
        if counts[nid] > 1:
            return
        for child in node.children():
            visit(child)
        topo.append(node)

    for expr in exprs:
        visit(expr)
    hoisted = ctx.cse
    for node in topo:
        if counts[id(node)] >= 2 and not isinstance(node, (RLit, RUnit)):
            rendered = node.to_python(ctx)
            ctx._cse_n += 1
            name = f"_e{ctx._cse_n}"
            em.line(f"{name} = {rendered}")
            hoisted[id(node)] = name
    out = [ctx.sub(expr) for expr in exprs]
    ctx.cse = {}
    return out


def _emit_bit(em: Emitter, ctx: _ExprCtx, expr) -> str:
    """``expr`` rendered as a 1-bit condition or guard."""
    return fit(_emit_exprs(em, ctx, [expr])[0], expr.bits, 1)


def _emit_latches(em: Emitter, ctx: _ExprCtx, ep):
    for latch in ep.latches:     # a recv or flag latches ep's handshake
        if type(latch) is LatchRecv:
            em.line(f"_sl[{latch.slot}] = "
                    f"{ctx.wire(ep.port, 'data')}.value")
        elif type(latch) is LatchFlag:
            v = ctx.wire(ep.port, "valid")
            a = ctx.wire(ep.port, "ack")
            em.line(f"_sl[{latch.slot}] = "
                    f"1 if ({v}.value and {a}.value) else 0")
        else:   # LatchExpr
            rendered = _emit_exprs(em, ctx, [latch.source])[0]
            em.line(f"_sl[{latch.slot}] = {rendered}")


def _is_gate(ep) -> bool:
    """Whether ``ep`` can stay unresolved after its predecessors fired,
    or die: a branch, a delay of at least one cycle, a handshaking
    sync.  Any other event resolves in the pass its predecessors do."""
    kind = ep.kind
    return (kind is EventKind.BRANCH
            or (kind is EventKind.DELAY and ep.delay > 0)
            or (kind is EventKind.SYNC and not ep.conditional))


def gate_chains(tp: ThreadPlan) -> List[Tuple[int, ...]]:
    """Per event, the gates among its proper dominators, outermost
    first, at most :data:`MAX_GATE_DEPTH` of them.

    ``d`` dominates ``e`` when every path from the root to ``e`` passes
    through ``d``.  Plans are numbered topologically, so an event's
    immediate dominator is the nearest common dominator of its
    predecessors, found by walking the larger of two ids up its
    dominator chain until the two meet."""
    idom: List[int] = []
    chains: List[Tuple[int, ...]] = []
    inner: List[Tuple[int, ...]] = []   # chains[e], plus e if a gate
    for ep in tp.events:
        preds = ep.preds
        d = preds[0] if preds else -1
        for p in preds[1:]:
            while d != p:
                if d > p:
                    d = idom[d]
                else:
                    p = idom[p]
        idom.append(d)
        chain = inner[d] if d >= 0 else ()
        chains.append(chain)
        inner.append(chain + (ep.eid,)
                     if _is_gate(ep) and len(chain) < MAX_GATE_DEPTH
                     else chain)
    return chains


def _gen_fire(em: Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """The settle-pass body: a straight-line specialization of the
    interpreter's ``_interp_fire`` in event order, each run of events
    that share a gate nested in one test of it (see the module
    docstring)."""
    opened: Tuple[int, ...] = ()        # open gates, outermost first
    runs: List[List[int]] = []          # the events inside each of them

    def close(keep: int):
        # when a gate died this pass, every event in its block dies too;
        # a block is a run of consecutive events, so one store marks it
        while len(runs) > keep:
            run = runs.pop()
            first, last = run[0], run[-1]
            assert run == list(range(first, last + 1)), run
            em.pop()
            em.line(f"elif cur[{opened[len(runs)]}] < 0 "
                    f"and not cur[{first}]:")
            em.push()
            if first == last:
                em.line(f"cur[{first}] = -1")
            else:
                dead = ctx.const((-1,) * len(run))
                em.line(f"cur[{first}:{last + 1}] = {dead}")
            em.pop()
            if runs:
                runs[-1] += run

    for ep, gates in zip(tp.events, gate_chains(tp)):
        keep = len(opened)
        while gates[:keep] != opened[:keep]:
            keep -= 1
        close(keep)
        for g in gates[keep:]:
            em.line(f"if cur[{g}] > 0:")
            em.push()
            runs.append([])
        opened = gates
        if runs:
            runs[-1].append(ep.eid)
        _gen_event(em, ctx, ep, gates)
    close(0)


def _gen_fired(em: Emitter, ctx: _ExprCtx, ep):
    """Mark ``ep`` fired this cycle and latch its slots."""
    em.line(f"cur[{ep.eid}] = mark")
    _emit_latches(em, ctx, ep)


def _gen_event(em: Emitter, ctx: _ExprCtx, ep, fired):
    """One event's test and effects; its predecessors in ``fired`` (the
    open gates) are known to have fired and are not tested again."""
    eid = ep.eid
    kind = ep.kind
    if kind is EventKind.ROOT:
        em.line(f"if not cur[{eid}] and _st == now:")
        em.push()
        _gen_fired(em, ctx, ep)
        em.pop()
        return
    preds = [p for p in ep.preds if p not in fired]
    em.line(f"if not cur[{eid}]:")
    em.push()
    if kind is EventKind.JOIN_ANY:
        if len(preds) < len(ep.preds):      # an open gate is a predecessor
            _gen_fired(em, ctx, ep)
            em.pop()
            return
        em.line("if " + (" or ".join(f"cur[{p}] > 0" for p in preds)
                         or "False") + ":")
        em.push()
        _gen_fired(em, ctx, ep)
        em.pop()
        em.line("elif " + (" and ".join(f"cur[{p}] < 0" for p in preds)
                           or "True") + ":")
        em.push()
        em.line(f"cur[{eid}] = -1")
        em.pop()
        em.pop()
        return
    # DELAY / JOIN_ALL / BRANCH / SYNC: need every predecessor; fired and
    # dead are exclusive, so the fired test goes first
    if preds:
        em.line("if " + " and ".join(f"cur[{p}] > 0" for p in preds)
                + ":")
        em.push()
    if kind is EventKind.DELAY:       # only DELAY needs the cycles
        # no event fires before its activation starts, so the base is
        # the latest predecessor's fire cycle (held plus one)
        cycles = [f"cur[{p}]" for p in ep.preds] or ["_st + 1"]
        if len(cycles) == 1:
            em.line(f"if {cycles[0]} + {ep.delay} == mark:")
        else:
            em.line(f"_b = {cycles[0]}")
            for c in cycles[1:]:
                em.line(f"_c = {c}")
                em.line("if _c > _b:")
                em.push()
                em.line("_b = _c")
                em.pop()
            em.line(f"if _b + {ep.delay} == mark:")
        em.push()
        _gen_fired(em, ctx, ep)
        em.pop()
    elif kind is EventKind.JOIN_ALL:
        _gen_fired(em, ctx, ep)
    elif kind is EventKind.BRANCH:
        cond = "0" if ep.cond_expr is None \
            else _emit_bit(em, ctx, ep.cond_expr)
        em.line(f"if {cond}:" if ep.polarity else f"if not {cond}:")
        em.push()
        _gen_fired(em, ctx, ep)
        em.pop()
        em.line("else:")
        em.push()
        em.line(f"cur[{eid}] = -1")
        em.pop()
    elif kind is EventKind.SYNC:
        pidx = ep.port
        em.line(f"if {pidx} not in busy:")
        em.push()
        em.line(f"busy.add({pidx})")
        v = ctx.wire(pidx, "valid")
        a = ctx.wire(pidx, "ack")
        drive_guarded = ep.guard is not None
        if drive_guarded:
            guard = _emit_bit(em, ctx, ep.guard)
            em.line(f"if {guard}:")
            em.push()
        if ep.direction is SyncDir.SEND:
            d = ctx.wire(pidx, "data")
            em.line(f"{v}.value = 1")
            if ep.payload is not None:
                rendered = _emit_exprs(em, ctx, [ep.payload])[0]
                em.line(f"{d}.value = {rendered} & {d}.mask")
            else:
                em.line(f"{d}.value = 0")
        else:
            em.line(f"{a}.value = 1")
        if drive_guarded:
            em.pop()
        if ep.conditional:
            _gen_fired(em, ctx, ep)
        else:
            em.line(f"if {v}.value and {a}.value:")
            em.push()
            _gen_fired(em, ctx, ep)
            em.pop()
        em.pop()
    else:  # pragma: no cover - exhaustive over EventKind
        raise AssertionError(kind)
    if preds:
        em.pop()
        em.line("elif " + " or ".join(f"cur[{p}] < 0" for p in preds)
                + ":")
        em.push()
        em.line(f"cur[{eid}] = -1")
        em.pop()
    em.pop()


def _gen_commit(em: Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """The clock-edge body: the register writes and debug prints of
    every event that fired this cycle, in event order, each event one
    evaluation site.  A write lands in ``_rw`` masked to its register's
    width (a constant, dropped where the value cannot carry a bit past
    it)."""
    masks = ctx.plan.reg_masks
    for ep in tp.events:
        if not ep.commits:
            continue
        em.line(f"if cur[{ep.eid}] == mark:")
        em.push()
        values = iter(_emit_exprs(em, ctx, [
            c.source for c in ep.commits if c.source is not None]))
        for c in ep.commits:
            if type(c) is CommitReg:
                em.line(f"_rw[{c.reg!r}] = " + fit(
                    next(values), c.source.bits, masks[c.reg].bit_length()))
                continue
            # CommitPrint
            em.line(f"_v = {next(values) if c.source is not None else None}")
            em.line(f"m.debug_log.append((now, {c.fmt!r}, _v))")
            em.line("if m.print_debug:")
            em.push()
            em.line('_sfx = "" if _v is None else f" {_v:#x}"')
            em.line(f'print(f"[{{now}}] {{m.name}}: " + {c.fmt!r}'
                    " + _sfx)")
            em.pop()
        em.pop()


def _gen_eval_thread(em: Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """One thread's settle pass: the fire body of each live activation,
    then of each activation spawned while the loop runs (the walk over
    ``tentative`` sees them), with the spawn check."""
    fire = Emitter()
    fire.push()         # inside the activation loop
    _gen_fire(fire, ctx, tp)
    text = "\n".join(fire.lines)
    ti = tp.index
    em.line(f"acts = _rt[{ti}]")
    em.line(f"tentative = _tt[{ti}]")
    em.line("tentative.clear()")
    if "busy" in text:
        em.line("busy = set()")
    em.line("spawns = 0")
    em.line("for act in chain(acts, tentative):")
    em.push()
    em.line("cur = act.st[:]")
    em.line("_sl = act.slots[:]")
    if "_st" in text:
        em.line("_st = act.start")
    em.lines += fire.lines
    em.line("act.cache = (now, cur, _sl)")
    em.line(f"if act.spawned or cur[{tp.anchor}] <= 0:")
    em.push()
    em.line("continue")
    em.pop()
    em.line("spawns += 1")
    em.line("if (spawns > m.MAX_SPAWNS_PER_CYCLE"
            " or len(acts) + len(tentative) >= m.MAX_ACTIVATIONS):")
    em.push()
    em.line(f"m._runaway({ti}, spawns)")
    em.pop()
    em.line(f"tentative.append(Activation(now, {tp.n_events}, "
            f"{tp.n_slots}))")
    em.pop()


def _gen_tick_thread(em: Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """One thread's clock edge: adopt each activation's cached settle
    pass (re-firing it with the reference interpreter when the cache is
    stale) and, where the pass changed an event, adopt its slots, commit
    it, mark the spawn and retire the activation if it is finished."""
    commit = Emitter()
    commit.push()       # inside the activation loop's ``if cur != ...:``
    commit.push()
    _gen_commit(commit, ctx, tp)
    ti = tp.index
    em.line(f"acts = _rt[{ti}]")
    em.line(f"tentative = _tt[{ti}]")
    em.line("if tentative:")
    em.push()
    em.line("acts.extend(tentative)")
    em.line("tentative.clear()")
    em.pop()
    em.line("busy = None")
    em.line("live = []")
    em.line("for act in acts:")
    em.push()
    em.line("_ca = act.cache")
    em.line("act.cache = None")
    em.line("if _ca is not None and _ca[0] == now:")
    em.push()
    em.line("_, cur, _sl = _ca")
    em.pop()
    em.line("else:   # a fault moved m.cycle since the settle pass")
    em.push()
    em.line("if busy is None:")
    em.push()
    em.line("busy = set()")
    em.pop()
    em.line(f"cur, _sl = m._interp_fire(m.plan.threads[{ti}], act, busy)")
    em.pop()
    em.line("if cur != act.st:")
    em.push()
    em.line("act.st = cur")
    em.line("act.slots = _sl")
    em.lines += commit.lines
    em.line(f"if cur[{tp.anchor}] == mark:")
    em.push()
    em.line("act.spawned = True")
    em.pop()
    em.line("if 0 not in cur:")
    em.push()
    em.line("continue   # finished")
    em.pop()
    em.pop()
    em.line("live.append(act)")
    em.pop()
    em.line(f"_rt[{ti}] = (m._dedup(m.plan.threads[{ti}], live)"
            " if len(live) > 1 else live)")


def _function(name: str, prologue: List[str], ctx: _ExprCtx,
              body: List[str], epilogue: Tuple[str, ...] = ()) -> str:
    """A generated ``name(m)``: prologue, the register file if the body
    or epilogue uses it, one unpack of the port wires the body uses
    (``_`` for the rest), body, epilogue."""
    lines = [f"def {name}(m):"] + [f"    {line}" for line in prologue]
    text = "\n".join(body + list(epilogue))
    if "_r[" in text or "_r." in text:
        lines.append("    _r = m.regs")
    if ctx.used_wires:
        names = [f"_w{p}{r}" for p in range(len(ctx.plan.ports))
                 for r in "dva"]
        lines.append("    " + ", ".join(
            n if n in ctx.used_wires else "_" for n in names) + " = m._pw")
    return "\n".join(lines + body + [f"    {line}" for line in epilogue])


def generate_source(plan: ProcessPlan) -> str:
    """Deterministically render ``plan`` as a Python module defining the
    process's cycle step: ``_EVAL(m)``, the settle pass, and
    ``_TICK(m)``, the clock edge (see the module docstring)."""
    ctx = _ExprCtx(plan)
    header = [
        f"# pysim backend for process {plan.name!r} "
        f"(optimized={plan.optimized})",
        f"# {len(plan.threads)} thread(s), {len(plan.ports)} port(s)",
    ]
    em = Emitter()
    for tp in plan.threads:
        em.line(f"# thread {tp.index} ({tp.kind})")
        _gen_eval_thread(em, ctx, tp)
    settle = _function(
        "_EVAL",
        ["if not m._started:", "    m._start()",
         "for _w in m._release_wires:", "    _w.value = 0",
         "now = m.cycle", "mark = now + 1", "_rt = m._threads_rt",
         "_tt = m._tentative"],
        ctx, em.lines)
    em = Emitter()
    ctx.used_wires = set()
    for tp in plan.threads:
        em.line(f"# thread {tp.index} ({tp.kind})")
        _gen_tick_thread(em, ctx, tp)
    writes = any(type(c) is CommitReg for tp in plan.threads
                 for ep in tp.events for c in ep.commits)
    edge = _function(
        "_TICK",
        ["now = m.cycle", "mark = now + 1", "_rt = m._threads_rt",
         "_tt = m._tentative"] + (["_rw = {}"] if writes else []),
        ctx, em.lines,
        (("if _rw:", "    _r.update(_rw)") if writes else ())
        + ("m.cycle = mark",))
    consts = [f"{name} = {value!r}" for name, value in ctx.const_order]
    return "\n".join(header + consts + [""] + [settle, "", edge]) + "\n"


class PyBackend:
    """A compiled plan: its cycle step (``eval`` for the settle pass,
    ``tick`` for the clock edge, each taking the module), its source
    and the code object compiled from it."""

    __slots__ = ("source", "code", "eval", "tick")

    def __init__(self, source: str, code, eval, tick):
        self.source = source
        self.code = code
        self.eval = eval
        self.tick = tick


_CACHE = SourceCache("pysim", lambda backend: marshal.dumps(backend.code))

#: compile-cache counters (``hits``/``misses``/``entries``/
#: ``evictions``, ``disk_hits``/``disk_misses``/``disk_rejected``; the
#: benchmark's cache-stats hook) and their reset -- per-plan memos on
#: already-built ProcessPlan objects (and so on the plans
#: :mod:`repro.core.fsmplan` caches) are unaffected by the reset
cache_stats = _CACHE.stats
clear_cache = _CACHE.clear


def backend_for(plan: ProcessPlan) -> PyBackend:
    """Return the compiled backend for ``plan``, compiling at most once
    per distinct generated source (thread-safe; harness sweeps build
    simulators from worker threads).

    Two cache levels: a per-plan memo (repeat instantiation of one
    compiled process -- e.g. N instances in a System -- skips even the
    source regeneration and does not touch the hit/miss counters) and
    the source-hash cache underneath it (distinct plans of identical
    designs share one compilation)."""
    memo = plan._backend
    if memo is None:
        source = generate_source(plan)
        memo = plan._backend = _CACHE.get(
            source_key(source),
            lambda: _bind(source, compile(source, f"<pysim:{plan.name}>",
                                          "exec")),
            lambda body: _bind(source, marshal.loads(body)))
    return memo


def _bind(source: str, code) -> PyBackend:
    # imported here so the front end can generate source without the rtl
    from .simfsm import Activation

    ns: Dict[str, object] = {"Activation": Activation, "chain": chain}
    exec(code, ns)
    return PyBackend(source, code, ns["_EVAL"], ns["_TICK"])
