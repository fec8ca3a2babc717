"""Term -> event graph construction (the front half of the Anvil compiler).

Walking a thread body produces, in one pass:

* the **event graph** (nodes for cycle delays, message synchronizations,
  branches and joins, exactly as in Section 5.3);
* a **value** for every sub-term -- its start event, intrinsic lifetime end,
  the registers it (transitively) reads and a runtime expression for the
  back-end;
* the **check obligations** the type checker later discharges: value uses,
  register mutations and message sends.

Loops and recursives are *unrolled* for type checking (Lemma C.19: two
iterations suffice, and the type checker builds two).  For a ``loop`` the
next iteration is anchored at the completion of the previous one; for a
``recursive`` it is anchored at the ``recurse`` event, which is precisely
what lets iterations overlap in a pipelined fashion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..codegen import rexpr as rx
from ..errors import ElaborationError
from ..lang import terms as T
from ..lang.process import Process, Thread
from ..lang.types import Bundle, DataType, Logic
from .events import (
    CommitPrint,
    CommitReg,
    EventGraph,
    EventKind,
    LatchExpr,
    LatchFlag,
    LatchRecv,
    SyncDir,
)
from .patterns import Duration, EndSet


def _static_slack(msg) -> Optional[int]:
    """Zero handshake slack for messages whose sync modes are static on
    *both* sides: the synchronization happens the cycle both parties reach
    it, with no run-time handshake (the compiler omits the wires)."""
    if msg.left_sync.is_dynamic or msg.right_sync.is_dynamic:
        return None
    return 0


class Value:
    """A typed value: lifetime + register dependencies + runtime expr."""

    __slots__ = ("start", "end", "reg_reads", "rexpr", "dtype")

    def __init__(
        self,
        start: int,
        end: EndSet,
        reg_reads: FrozenSet[Tuple[str, int]],
        rexpr: rx.RExpr,
        dtype: Optional[DataType],
    ):
        self.start = start
        self.end = end
        self.reg_reads = reg_reads
        self.rexpr = rexpr
        self.dtype = dtype

    @property
    def width(self) -> int:
        return self.dtype.width if self.dtype else self.rexpr.width

    def __repr__(self):
        return f"Value(e{self.start}, end={self.end}, regs={set(self.reg_reads)})"


class UseCheck:
    """Obligation: ``value`` is used throughout ``[window_start, window_end)``."""

    __slots__ = ("value", "window_start", "window_end", "context")

    def __init__(self, value: Value, window_start: int, window_end: EndSet,
                 context: str):
        self.value = value
        self.window_start = window_start
        self.window_end = window_end
        self.context = context

    def __repr__(self):
        return f"Use({self.context} @ [e{self.window_start}, {self.window_end}))"


class MutationRecord:
    __slots__ = ("register", "at", "context")

    def __init__(self, register: str, at: int, context: str):
        self.register = register
        self.at = at
        self.context = context

    def __repr__(self):
        return f"Mut({self.register} @ e{self.at})"


class SendRecord:
    """One ``send`` operation: data must be live on ``[start, required_end)``
    where the end comes from the message contract."""

    __slots__ = ("endpoint", "message", "start", "sync", "required_end",
                 "context")

    def __init__(self, endpoint: str, message: str, start: int, sync: int,
                 required_end: EndSet, context: str):
        self.endpoint = endpoint
        self.message = message
        self.start = start
        self.sync = sync
        self.required_end = required_end
        self.context = context

    def __repr__(self):
        return f"Send({self.endpoint}.{self.message} @ e{self.sync})"


class BuildResult:
    """Everything the type checker and the code generator need."""

    def __init__(self, graph: EventGraph, root: int, anchor: int,
                 thread: Thread):
        self.graph = graph
        self.root = root
        self.anchor = anchor  # loop-back point (completion or recurse event)
        self.thread = thread
        self.uses: List[UseCheck] = []
        self.mutations: List[MutationRecord] = []
        self.sends: List[SendRecord] = []
        self.slot_count = 0
        self.cond_count = 0


class GraphBuilder:
    """Builds the event graph for one thread of a process."""

    def __init__(self, process: Process, thread: Thread,
                 graph_name: str = ""):
        self.process = process
        self.thread = thread
        self.graph = EventGraph(graph_name or f"{process.name}.{thread.name}")
        self.result: Optional[BuildResult] = None
        self._slot = 0
        self._cond = 0
        self._recurse_anchor: Optional[int] = None
        self._iter_tag = ""
        self._pure_cache: Dict[int, bool] = {}
        self._visit_memo: Dict[Tuple[int, int], Tuple[int, Value]] = {}

    def _is_pure(self, term: T.Term) -> bool:
        """Purely combinational terms (no events, no environment lookups)
        may be memoized per evaluation point -- this keeps shared
        subexpression DAGs (e.g. xtime chains in AES) linear to build."""
        key = id(term)
        cached = self._pure_cache.get(key)
        if cached is not None:
            return cached
        pure_types = (T.Literal, T.ReadReg, T.BinOp, T.UnOp, T.Field,
                      T.Slice, T.BundleLit, T.Table, T.Unit, T.Mux)
        out = isinstance(term, pure_types) and all(
            self._is_pure(c) for c in term.children()
        )
        self._pure_cache[key] = out
        return out

    # ------------------------------------------------------------------
    def build(self, iterations: int = 1) -> BuildResult:
        """Build ``iterations`` unrolled copies of the thread body."""
        root = self.graph.root()
        result = BuildResult(self.graph, root.eid, root.eid, self.thread)
        self.result = result
        current = root.eid
        for i in range(iterations):
            self._iter_tag = f"iter{i}:" if iterations > 1 else ""
            self._recurse_anchor = None
            completion, _ = self._visit(self.thread.body, current, {})
            if i == 0:
                # the loop-back anchor of the *first* copy drives codegen
                if self.thread.kind == Thread.RECURSIVE and \
                        self._recurse_anchor is not None:
                    result.anchor = self._recurse_anchor
                else:
                    result.anchor = completion
            if self.thread.kind == Thread.RECURSIVE and \
                    self._recurse_anchor is not None:
                current = self._recurse_anchor
            else:
                current = completion
        result.slot_count = self._slot
        result.cond_count = self._cond
        return result

    # ------------------------------------------------------------------
    def _new_slot(self) -> int:
        s = self._slot
        self._slot += 1
        return s

    def _new_cond(self) -> int:
        c = self._cond
        self._cond += 1
        return c

    def _unit(self, at: int) -> Value:
        return Value(at, EndSet.eternal(), frozenset(), rx.RUnit(), None)

    def _use(self, value: Value, start: int, end: EndSet, context: str):
        self.result.uses.append(
            UseCheck(value, start, end, self._iter_tag + context)
        )

    def _contract_duration(self, endpoint: str, message: str) -> Duration:
        ep = self.process.get_endpoint(endpoint)
        return ep.message(message).lifetime.as_duration(endpoint)

    # ------------------------------------------------------------------
    def _visit(self, term: T.Term, at: int, env: Dict[str, Tuple[int, Value]]
               ) -> Tuple[int, Value]:
        """Returns (completion event id, value)."""
        memo_key = None
        if self._is_pure(term):
            memo_key = (id(term), at)
            cached = self._visit_memo.get(memo_key)
            if cached is not None:
                return cached
        method = getattr(self, "_visit_" + type(term).__name__, None)
        if method is None:
            raise ElaborationError(f"cannot elaborate term {term!r}")
        out = method(term, at, env)
        if memo_key is not None:
            self._visit_memo[memo_key] = out
        return out

    # -- leaves -----------------------------------------------------------
    def _visit_Literal(self, term: T.Literal, at, env):
        width = term.dtype.width if term.dtype else 32
        val = Value(at, EndSet.eternal(), frozenset(),
                    rx.RLit(term.value, width), term.dtype or Logic(width))
        return at, val

    def _visit_Unit(self, term, at, env):
        return at, self._unit(at)

    def _visit_ReadReg(self, term: T.ReadReg, at, env):
        reg = self.process.get_register(term.reg)
        val = Value(
            at,
            EndSet.eternal(),
            frozenset([(term.reg, at)]),
            rx.RReg(term.reg, reg.dtype.width),
            reg.dtype,
        )
        return at, val

    def _visit_Var(self, term: T.Var, at, env):
        if term.name not in env:
            raise ElaborationError(f"unbound variable {term.name!r}")
        bind_completion, bval = env[term.name]
        # a binding reached through one arm of a branch has not happened
        # on the other arm: only a binding that must precede the use
        # point may skip the await
        if bind_completion == at or \
                self.graph.must_precede(bind_completion, at):
            start = at
        else:
            start = self.graph.add(
                EventKind.JOIN_ALL, (at, bind_completion),
                note=f"await {term.name}",
            ).eid
        val = Value(start, bval.end, bval.reg_reads, bval.rexpr, bval.dtype)
        return start, val

    def _visit_Ready(self, term: T.Ready, at, env):
        self.process.get_endpoint(term.endpoint).message(term.message)
        val = Value(
            at,
            EndSet.single(at, Duration.static(1)),
            frozenset(),
            rx.RReady(term.endpoint, term.message),
            Logic(1),
        )
        return at, val

    def _visit_Cycle(self, term: T.Cycle, at, env):
        if term.n == 0:
            return at, self._unit(at)
        ev = self.graph.add(EventKind.DELAY, (at,), delay=term.n)
        return ev.eid, self._unit(ev.eid)

    # -- combinational composition ----------------------------------------
    def _completion_of(self, at: int, parts: List[int]) -> int:
        distinct = [p for p in parts if p != at]
        uniq = []
        for p in distinct:
            if p not in uniq:
                uniq.append(p)
        if not uniq:
            return at
        if len(uniq) == 1:
            return uniq[0]
        return self.graph.add(EventKind.JOIN_ALL, tuple(uniq)).eid

    def _visit_BinOp(self, term: T.BinOp, at, env):
        ca, va = self._visit(term.a, at, env)
        cb, vb = self._visit(term.b, at, env)
        completion = self._completion_of(at, [ca, cb])
        ra, rb = va.rexpr, vb.rexpr
        # literal width adoption
        if isinstance(term.a, T.Literal) and term.a.dtype is None and vb.dtype:
            ra = rx.RLit(term.a.value, vb.width)
        if isinstance(term.b, T.Literal) and term.b.dtype is None and va.dtype:
            rb = rx.RLit(term.b.value, va.width)
        if term.op in ("eq", "ne", "lt", "le", "gt", "ge"):
            dtype: DataType = Logic(1)
        elif term.op == "concat":
            dtype = Logic(ra.width + rb.width)
        elif term.op == "mul":
            # full product, as synthesis sizes a multiplier
            dtype = Logic(ra.width + rb.width)
        else:
            dtype = Logic(max(ra.width, rb.width))
        val = Value(
            completion,
            va.end.union(vb.end),
            va.reg_reads | vb.reg_reads,
            rx.RBin(term.op, ra, rb, dtype.width),
            dtype,
        )
        return completion, val

    def _visit_UnOp(self, term: T.UnOp, at, env):
        ca, va = self._visit(term.a, at, env)
        width = 1 if term.op.startswith("red") else va.width
        val = Value(ca, va.end, va.reg_reads,
                    rx.RUn(term.op, va.rexpr, width), Logic(width))
        return ca, val

    def _visit_Field(self, term: T.Field, at, env):
        ca, va = self._visit(term.a, at, env)
        if not isinstance(va.dtype, Bundle):
            raise ElaborationError(
                f"field access {term.name!r} on non-bundle value"
            )
        val = Value(ca, va.end, va.reg_reads,
                    rx.RField(va.rexpr, va.dtype, term.name),
                    va.dtype.field_type(term.name))
        return ca, val

    def _visit_Slice(self, term: T.Slice, at, env):
        ca, va = self._visit(term.a, at, env)
        if term.hi >= va.width:
            raise ElaborationError(
                f"slice [{term.hi}:{term.lo}] exceeds width {va.width}"
            )
        val = Value(ca, va.end, va.reg_reads,
                    rx.RSlice(va.rexpr, term.hi, term.lo),
                    Logic(term.hi - term.lo + 1))
        return ca, val

    def _visit_Mux(self, term: T.Mux, at, env):
        cc, cval = self._visit(term.cond, at, env)
        ca, va = self._visit(term.a, at, env)
        cb, vb = self._visit(term.b, at, env)
        completion = self._completion_of(at, [cc, ca, cb])
        ra, rb = va.rexpr, vb.rexpr
        if isinstance(term.a, T.Literal) and term.a.dtype is None and vb.dtype:
            ra = rx.RLit(term.a.value, vb.width)
        if isinstance(term.b, T.Literal) and term.b.dtype is None and va.dtype:
            rb = rx.RLit(term.b.value, va.width)
        width = max(ra.width, rb.width, 1)
        dtype = va.dtype if va.dtype is not None else vb.dtype
        if dtype is None or dtype.width != width:
            dtype = Logic(width)
        val = Value(
            completion,
            cval.end.union(va.end).union(vb.end),
            cval.reg_reads | va.reg_reads | vb.reg_reads,
            rx.RMux(cval.rexpr, ra, rb, width),
            dtype,
        )
        return completion, val

    def _visit_BundleLit(self, term: T.BundleLit, at, env):
        parts = {}
        completions = []
        ends = EndSet.eternal()
        regs: FrozenSet[Tuple[str, int]] = frozenset()
        for name, sub in term.fields.items():
            c, v = self._visit(sub, at, env)
            completions.append(c)
            fw = term.dtype.field_type(name).width
            r = v.rexpr
            if isinstance(sub, T.Literal) and sub.dtype is None:
                r = rx.RLit(sub.value, fw)
            parts[name] = r
            ends = ends.union(v.end)
            regs = regs | v.reg_reads
        completion = self._completion_of(at, completions)
        val = Value(completion, ends, regs,
                    rx.RBundle(term.dtype, parts), term.dtype)
        return completion, val

    # -- communication ------------------------------------------------------
    def _visit_Recv(self, term: T.Recv, at, env):
        ep = self.process.get_endpoint(term.endpoint)
        msg = ep.message(term.message)
        if ep.sends(term.message):
            raise ElaborationError(
                f"endpoint {term.endpoint!r} is the sender of "
                f"{term.message!r}; cannot recv"
            )
        sync = self.graph.add(
            EventKind.SYNC, (at,),
            endpoint=term.endpoint, message=term.message,
            direction=SyncDir.RECV,
            static_slack=_static_slack(msg),
        )
        slot = self._new_slot()
        sync.latches.append(LatchRecv(slot))
        dur = self._contract_duration(term.endpoint, term.message)
        val = Value(
            sync.eid,
            EndSet.single(sync.eid, dur),
            frozenset(),
            rx.RSlot(slot, msg.dtype.width, f"{term.endpoint}.{term.message}"),
            msg.dtype,
        )
        return sync.eid, val

    def _visit_Send(self, term: T.Send, at, env):
        ep = self.process.get_endpoint(term.endpoint)
        msg = ep.message(term.message)
        if not ep.sends(term.message):
            raise ElaborationError(
                f"endpoint {term.endpoint!r} is the receiver of "
                f"{term.message!r}; cannot send"
            )
        pc, pval = self._visit(term.payload, at, env)
        prexpr = pval.rexpr
        if isinstance(term.payload, T.Literal) and term.payload.dtype is None:
            prexpr = rx.RLit(term.payload.value, msg.dtype.width)
        sync = self.graph.add(
            EventKind.SYNC, (pc,),
            endpoint=term.endpoint, message=term.message,
            direction=SyncDir.SEND,
            static_slack=_static_slack(msg),
        )
        sync.payload = prexpr
        dur = self._contract_duration(term.endpoint, term.message)
        required = EndSet.single(sync.eid, dur)
        ctx = f"send {term.endpoint}.{term.message}"
        self.result.sends.append(
            SendRecord(term.endpoint, term.message, pc, sync.eid, required,
                       self._iter_tag + ctx)
        )
        self._use(
            Value(pval.start, pval.end, pval.reg_reads, prexpr, pval.dtype),
            pc, required, ctx,
        )
        return sync.eid, self._unit(sync.eid)

    def _visit_TrySend(self, term: T.TrySend, at, env):
        ep = self.process.get_endpoint(term.endpoint)
        msg = ep.message(term.message)
        if not ep.sends(term.message):
            raise ElaborationError(
                f"endpoint {term.endpoint!r} is the receiver of "
                f"{term.message!r}; cannot try_send"
            )
        pc, pval = self._visit(term.payload, at, env)
        prexpr = pval.rexpr
        if isinstance(term.payload, T.Literal) and term.payload.dtype is None:
            prexpr = rx.RLit(term.payload.value, msg.dtype.width)
        guard_val = None
        if term.guard is not None:
            gc, guard_val = self._visit(term.guard, at, env)
            pc = self._completion_of(at, [pc, gc])
        sync = self.graph.add(
            EventKind.SYNC, (pc,),
            endpoint=term.endpoint, message=term.message,
            direction=SyncDir.SEND,
            static_slack=0, conditional=True,
        )
        sync.payload = prexpr
        if guard_val is not None:
            sync.guard = guard_val.rexpr
            self._use(guard_val, pc,
                      EndSet.single(sync.eid, Duration.static(1)),
                      f"try_send guard {term.endpoint}.{term.message}")
        flag_slot = self._new_slot()
        sync.latches.append(LatchFlag(flag_slot))
        dur = self._contract_duration(term.endpoint, term.message)
        required = EndSet.single(sync.eid, dur)
        ctx = f"try_send {term.endpoint}.{term.message}"
        self.result.sends.append(
            SendRecord(term.endpoint, term.message, pc, sync.eid, required,
                       self._iter_tag + ctx)
        )
        self._use(
            Value(pval.start, pval.end, pval.reg_reads, prexpr, pval.dtype),
            pc, required, ctx,
        )
        val = Value(
            sync.eid,
            EndSet.single(sync.eid, Duration.static(1)),
            frozenset(),
            rx.RSlot(flag_slot, 1, f"sent({term.endpoint}.{term.message})"),
            Logic(1),
        )
        return sync.eid, val

    def _visit_TryRecv(self, term: T.TryRecv, at, env):
        ep = self.process.get_endpoint(term.endpoint)
        msg = ep.message(term.message)
        if ep.sends(term.message):
            raise ElaborationError(
                f"endpoint {term.endpoint!r} is the sender of "
                f"{term.message!r}; cannot try_recv"
            )
        start = at
        guard_val = None
        if term.guard is not None:
            gc, guard_val = self._visit(term.guard, at, env)
            start = gc
        sync = self.graph.add(
            EventKind.SYNC, (start,),
            endpoint=term.endpoint, message=term.message,
            direction=SyncDir.RECV,
            static_slack=0, conditional=True,
        )
        if guard_val is not None:
            sync.guard = guard_val.rexpr
            self._use(guard_val, start,
                      EndSet.single(sync.eid, Duration.static(1)),
                      f"try_recv guard {term.endpoint}.{term.message}")
        data_slot = self._new_slot()
        flag_slot = self._new_slot()
        sync.latches.append(LatchRecv(data_slot))
        sync.latches.append(LatchFlag(flag_slot))
        dtype = Bundle([("data", msg.dtype), ("valid", Logic(1))])
        rexpr = rx.RBundle(dtype, {
            "data": rx.RSlot(data_slot, msg.dtype.width,
                             f"{term.endpoint}.{term.message}"),
            "valid": rx.RSlot(flag_slot, 1,
                              f"got({term.endpoint}.{term.message})"),
        })
        val = Value(
            sync.eid,
            EndSet.single(sync.eid, Duration.static(1)),
            frozenset(),
            rexpr,
            dtype,
        )
        return sync.eid, val

    def _visit_Table(self, term: T.Table, at, env):
        ic, ival = self._visit(term.index, at, env)
        val = Value(ic, ival.end, ival.reg_reads,
                    rx.RTable(ival.rexpr, term.entries, term.width),
                    Logic(term.width))
        return ic, val

    # -- state ---------------------------------------------------------------
    def _visit_SetReg(self, term: T.SetReg, at, env):
        reg = self.process.get_register(term.reg)
        vc, vval = self._visit(term.value, at, env)
        rexpr = vval.rexpr
        if isinstance(term.value, T.Literal) and term.value.dtype is None:
            rexpr = rx.RLit(term.value.value, reg.dtype.width)
        ctx = f"set {term.reg}"
        self._use(vval, vc, EndSet.single(vc, Duration.static(1)), ctx)
        self.result.mutations.append(
            MutationRecord(term.reg, vc, self._iter_tag + ctx)
        )
        self.graph[vc].commits.append(CommitReg(term.reg, rexpr))
        done = self.graph.add(EventKind.DELAY, (vc,), delay=1,
                              note=f"set {term.reg} done")
        return done.eid, self._unit(done.eid)

    # -- control -------------------------------------------------------------
    def _visit_Wait(self, term: T.Wait, at, env):
        c1, _ = self._visit(term.first, at, env)
        c2, v2 = self._visit(term.second, c1, env)
        return c2, v2

    def _visit_Par(self, term: T.Par, at, env):
        c1, _ = self._visit(term.first, at, env)
        c2, v2 = self._visit(term.second, at, env)
        completion = self._completion_of(at, [c1, c2])
        val = Value(completion, v2.end, v2.reg_reads, v2.rexpr, v2.dtype)
        return completion, val

    def _visit_Let(self, term: T.Let, at, env):
        bc, bval = self._visit(term.bound, at, env)
        inner = dict(env)
        inner[term.name] = (bc, bval)
        yc, yval = self._visit(term.body, at, inner)
        return yc, yval

    def _visit_If(self, term: T.If, at, env):
        cc, cval = self._visit(term.cond, at, env)
        self._use(cval, cc, EndSet.single(cc, Duration.static(1)), "if cond")
        cond_id = self._new_cond()
        cond_slot = self._new_slot()
        self.graph[cc].latches.append(LatchExpr(cond_slot, cval.rexpr))
        bt = self.graph.add(EventKind.BRANCH, (cc,), cond_id=cond_id,
                            polarity=True)
        bf = self.graph.add(EventKind.BRANCH, (cc,), cond_id=cond_id,
                            polarity=False)
        # both arms test the latched slot, which the overlay makes
        # visible in the latching cycle
        bt.cond_expr = bf.cond_expr = rx.RSlot(cond_slot, 1, f"c{cond_id}")
        tc, tval = self._visit(term.then, bt.eid, env)
        if term.els is not None:
            ec, eval2 = self._visit(term.els, bf.eid, env)
        else:
            ec, eval2 = bf.eid, self._unit(bf.eid)
        join = self.graph.add(EventKind.JOIN_ANY, (tc, ec), cond_id=cond_id)
        width = max(tval.rexpr.width, eval2.rexpr.width, 1)
        rexpr = rx.RMux(rx.RSlot(cond_slot, 1, "cond"),
                        tval.rexpr, eval2.rexpr, width)
        end = tval.end.union(eval2.end).union(cval.end)
        dtype = tval.dtype if tval.dtype is not None else eval2.dtype
        val = Value(join.eid, end,
                    tval.reg_reads | eval2.reg_reads | cval.reg_reads,
                    rexpr, dtype)
        return join.eid, val

    # -- misc ---------------------------------------------------------------
    def _visit_DPrint(self, term: T.DPrint, at, env):
        arg_expr = None
        if term.arg is not None:
            _, aval = self._visit(term.arg, at, env)
            arg_expr = aval.rexpr
            self._use(aval, at, EndSet.single(at, Duration.static(1)),
                      "dprint")
        self.graph[at].commits.append(CommitPrint(term.fmt, arg_expr))
        return at, self._unit(at)

    def _visit_Recurse(self, term: T.Recurse, at, env):
        if self.thread.kind != Thread.RECURSIVE:
            raise ElaborationError("recurse used outside a recursive thread")
        ev = self.graph.add(EventKind.DELAY, (at,), delay=0, note="recurse")
        if self._recurse_anchor is None:
            self._recurse_anchor = ev.eid
        else:
            raise ElaborationError("multiple recurse points in one thread")
        return ev.eid, self._unit(ev.eid)


def build_thread(process: Process, thread: Thread,
                 iterations: int = 1) -> BuildResult:
    """Convenience wrapper: build one thread's event graph."""
    return GraphBuilder(process, thread).build(iterations)
