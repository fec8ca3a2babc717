"""Runtime expression IR.

The graph builder splits each Anvil term into (a) timing structure -- events
in the event graph -- and (b) a *runtime expression* describing the
combinational value the term denotes.  Runtime expressions are evaluated by
the simulator against the current register file and per-activation slot
storage, pretty-printed by the SystemVerilog backend, and lowered to
inline Python source by :meth:`RExpr.to_python` for the generated-Python
simulation backend (:mod:`repro.codegen.pysim`).  Because the
type checker guarantees that every register a value depends on stays
unchanged throughout the value's uses, evaluating lazily at use time is
equivalent to the wire semantics of the generated hardware.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..lang.types import Bundle


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def fit(text: str, bits: Optional[int], width: int) -> str:
    """Source ``text`` masked to ``width`` bits unless its value, of at
    most ``bits`` bits (``None``: maybe negative), fits."""
    if bits is not None and bits <= width:
        return text
    return f"({text} & {(1 << width) - 1})"


class REnv:
    """Evaluation environment: register file, slots, handshake observers."""

    def __init__(self, regs, slots, ready_fn=None):
        self.regs = regs
        self.slots = slots
        self.ready_fn = ready_fn or (lambda ep, msg: 0)


class RExpr:
    width: int = 1
    #: bound on the bit length of eval()'s result (at most width, 1 for
    #: a truth value), so to_python masks only where a bit can be cut
    bits: int = 1

    def eval(self, env: REnv) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def to_python(self, ctx) -> str:  # pragma: no cover - interface
        """Emit a Python expression computing exactly what :meth:`eval`
        returns.  The expression may reference the names the generated
        backend binds locally -- ``_r`` (register file), ``_sl``
        (committed slots), ``_ov`` (same-cycle overlay) -- plus whatever
        ``ctx`` hands out: ``ctx.ready(ep, msg)`` for handshake
        observations, ``ctx.const(value)`` for pooled constants and
        ``ctx.temp()`` for fresh local names.  The text is atomic or
        parenthesized.  Register and slot reads keep their masks (a
        fault can set bits above a register's width)."""
        raise NotImplementedError

    def gate_count(self) -> Dict[str, int]:
        """Rough decomposition into gates, used by the synthesis model."""
        return {}

    def depth(self) -> int:
        """Levels of logic (for the fmax model)."""
        return 0

    def children(self):
        return ()


class RUnit(RExpr):
    width = 0
    bits = 0

    def eval(self, env):
        return 0

    def to_python(self, ctx):
        return "0"

    def __repr__(self):
        return "()"


class RLit(RExpr):
    def __init__(self, value: int, width: int):
        self.width = max(width, 1)
        self.value = mask(value, self.width)
        self.bits = self.value.bit_length()

    def eval(self, env):
        return self.value

    def to_python(self, ctx):
        return str(self.value)

    def __repr__(self):
        return f"{self.width}'d{self.value}"


class RReg(RExpr):
    def __init__(self, name: str, width: int):
        self.name = name
        self.width = self.bits = width

    def eval(self, env):
        return mask(env.regs[self.name], self.width)

    def to_python(self, ctx):
        return f"(_r[{self.name!r}] & {(1 << self.width) - 1})"

    def __repr__(self):
        return f"*{self.name}"


class RSlot(RExpr):
    """A per-activation storage slot (latched receive data, let bindings,
    branch conditions)."""

    def __init__(self, slot: int, width: int, note: str = ""):
        self.slot = slot
        self.width = self.bits = width
        self.note = note

    def eval(self, env):
        return mask(env.slots.get(self.slot, 0), self.width)

    def to_python(self, ctx):
        s = self.slot
        return (f"((_ov[{s}] if {s} in _ov else _sl.get({s}, 0))"
                f" & {(1 << self.width) - 1})")

    def __repr__(self):
        return f"slot{self.slot}" + (f"({self.note})" if self.note else "")


_BIN_GATES = {
    # per-bit gate estimates for the synthesis cost model
    "add": {"xor": 2, "and": 2},        # full adder per bit
    "sub": {"xor": 2, "and": 2, "inv": 1},
    "mul": {"and": 1, "xor": 2},        # array multiplier, per partial bit
    "and": {"and": 1},
    "or": {"or": 1},
    "xor": {"xor": 1},
    "eq": {"xor": 1, "or": 1},
    "ne": {"xor": 1, "or": 1},
    "lt": {"xor": 1, "and": 1},
    "le": {"xor": 1, "and": 1},
    "gt": {"xor": 1, "and": 1},
    "ge": {"xor": 1, "and": 1},
    "shl": {"mux2": 4},
    "shr": {"mux2": 4},
    "concat": {},
}

_BIN_DEPTH = {
    "add": 2, "sub": 2, "mul": 4, "and": 1, "or": 1, "xor": 1,
    "eq": 2, "ne": 2, "lt": 2, "le": 2, "gt": 2, "ge": 2,
    "shl": 3, "shr": 3, "concat": 0,
}


_PY_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
           "xor": "^", "shl": "<<", "shr": ">>"}
_PY_CMPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
            "ge": ">="}


def _bin_bits(op: str, a: RExpr, b: RExpr) -> Optional[int]:
    """Bit bound of ``a op b`` before eval masks it (``None``: maybe
    negative)."""
    x, y = a.bits, b.bits
    if op == "add":
        return max(x, y) + 1
    if op == "mul":
        return x + y
    if op == "and":
        return min(x, y)
    if op in ("or", "xor"):
        return max(x, y)
    if op == "shl":
        return x + (b.value if isinstance(b, RLit) else (1 << y) - 1)
    if op == "shr":
        return x
    if op == "concat":
        return x + b.width
    return None


class RBin(RExpr):
    def __init__(self, op: str, a: RExpr, b: RExpr, width: int):
        self.op = op
        self.a = a
        self.b = b
        self.width = width
        if op in _PY_CMPS:
            self.bits = 1
        else:
            raw = _bin_bits(op, a, b)
            self.bits = width if raw is None else min(raw, width)

    def children(self):
        return (self.a, self.b)

    def eval(self, env):
        x = self.a.eval(env)
        y = self.b.eval(env)
        op = self.op
        aw = max(self.a.width, self.b.width, 1)
        if op == "add":
            return mask(x + y, self.width)
        if op == "sub":
            return mask(x - y, self.width)
        if op == "mul":
            return mask(x * y, self.width)
        if op == "and":
            return mask(x & y, self.width)
        if op == "or":
            return mask(x | y, self.width)
        if op == "xor":
            return mask(x ^ y, self.width)
        if op == "eq":
            return int(mask(x, aw) == mask(y, aw))
        if op == "ne":
            return int(mask(x, aw) != mask(y, aw))
        if op == "lt":
            return int(mask(x, aw) < mask(y, aw))
        if op == "le":
            return int(mask(x, aw) <= mask(y, aw))
        if op == "gt":
            return int(mask(x, aw) > mask(y, aw))
        if op == "ge":
            return int(mask(x, aw) >= mask(y, aw))
        if op == "shl":
            return mask(x << y, self.width)
        if op == "shr":
            return mask(x >> y, self.width)
        if op == "concat":
            return mask((x << self.b.width) | mask(y, self.b.width), self.width)
        raise AssertionError(op)

    def to_python(self, ctx):
        a, b, op = ctx.sub(self.a), ctx.sub(self.b), self.op
        if op in _PY_CMPS:
            w = max(self.a.width, self.b.width, 1)
            return (f"(1 if {fit(a, self.a.bits, w)} {_PY_CMPS[op]} "
                    f"{fit(b, self.b.bits, w)} else 0)")
        if op == "concat":
            text = (f"(({a} << {self.b.width}) | "
                    f"{fit(b, self.b.bits, self.b.width)})")
        else:
            text = f"({a} {_PY_OPS[op]} {b})"
        return fit(text, _bin_bits(op, self.a, self.b), self.width)

    def gate_count(self):
        out: Dict[str, int] = {}
        if self.op in ("shl", "shr") and isinstance(self.b, RLit):
            return out  # constant shift: pure wiring
        if self.op in ("and", "or") and (
            isinstance(self.a, RLit) or isinstance(self.b, RLit)
        ):
            return out  # constant mask: bit selection, pure wiring
        per_bit = _BIN_GATES[self.op]
        bits = max(self.a.width, self.b.width, 1)
        if self.op == "mul":
            bits = self.a.width * max(self.b.width, 1)
        for g, n in per_bit.items():
            out[g] = out.get(g, 0) + n * bits
        return out

    def depth(self):
        if self.op in ("shl", "shr") and isinstance(self.b, RLit):
            return 0  # constant shift: pure wiring
        if self.op in ("and", "or") and (
            isinstance(self.a, RLit) or isinstance(self.b, RLit)
        ):
            return 0
        base = _BIN_DEPTH[self.op]
        if self.op in ("add", "sub", "lt", "le", "gt", "ge"):
            # log-depth carry tree
            bits = max(self.a.width, self.b.width, 1)
            base += max(bits.bit_length() - 1, 0)
        return base

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


class RUn(RExpr):
    def __init__(self, op: str, a: RExpr, width: int):
        self.op = op
        self.a = a
        self.width = width
        self.bits = width if op in ("not", "neg") else 1

    def children(self):
        return (self.a,)

    def eval(self, env):
        x = self.a.eval(env)
        if self.op == "not":
            return mask(~x, self.width)
        if self.op == "neg":
            return mask(-x, self.width)
        if self.op == "redor":
            return int(mask(x, self.a.width) != 0)
        if self.op == "redand":
            return int(mask(x, self.a.width) == (1 << self.a.width) - 1)
        if self.op == "redxor":
            return bin(mask(x, self.a.width)).count("1") & 1
        raise AssertionError(self.op)

    def to_python(self, ctx):
        a = ctx.sub(self.a)
        if self.op == "not":
            return f"(~{a} & {(1 << self.width) - 1})"
        if self.op == "neg":
            return f"(-{a} & {(1 << self.width) - 1})"
        a = fit(a, self.a.bits, self.a.width)
        if self.op == "redor":
            return f"(1 if {a} else 0)"
        if self.op == "redand":
            return f"(1 if {a} == {(1 << self.a.width) - 1} else 0)"
        if self.op == "redxor":
            return f"(({a}).bit_count() & 1)"
        raise AssertionError(self.op)

    def gate_count(self):
        if self.op in ("not", "neg"):
            return {"inv": self.width}
        return {"or" if self.op == "redor" else "and": self.a.width}

    def depth(self):
        return 1 if self.op in ("not", "neg") else max(
            self.a.width.bit_length() - 1, 1
        )

    def __repr__(self):
        return f"({self.op} {self.a!r})"


def _field_python(ctx, node) -> str:
    """A slice's or bundle field's source: ``a >> lo``, cut to width."""
    text = ctx.sub(node.a)
    if node.lo:
        text = f"({text} >> {node.lo})"
    return fit(text, node.a.bits - node.lo, node.width)


class RSlice(RExpr):
    def __init__(self, a: RExpr, hi: int, lo: int):
        self.a = a
        self.hi = hi
        self.lo = lo
        self.width = hi - lo + 1
        self.bits = max(min(a.bits - lo, self.width), 0)

    def children(self):
        return (self.a,)

    def eval(self, env):
        return mask(self.a.eval(env) >> self.lo, self.width)

    def to_python(self, ctx):
        return _field_python(ctx, self)

    def __repr__(self):
        return f"{self.a!r}[{self.hi}:{self.lo}]"


class RField(RExpr):
    def __init__(self, a: RExpr, dtype: Bundle, name: str):
        lo, w = dtype.field_range(name)
        self.a = a
        self.dtype = dtype
        self.name = name
        self.lo = lo
        self.width = w
        self.bits = max(min(a.bits - lo, w), 0)

    def children(self):
        return (self.a,)

    def eval(self, env):
        return mask(self.a.eval(env) >> self.lo, self.width)

    def to_python(self, ctx):
        return _field_python(ctx, self)

    def __repr__(self):
        return f"{self.a!r}.{self.name}"


class RBundle(RExpr):
    def __init__(self, dtype: Bundle, fields: Dict[str, RExpr]):
        self.dtype = dtype
        self.fields = fields
        self.width = self.bits = dtype.width

    def children(self):
        return tuple(self.fields.values())

    def eval(self, env):
        return self.dtype.pack(
            {k: v.eval(env) for k, v in self.fields.items()}
        )

    def to_python(self, ctx):
        # inline Bundle.pack: mask each field to its *field* width and
        # shift into place, LSB-first
        parts = []
        lo = 0
        for name, ftype in self.dtype.fields:
            sub = self.fields.get(name)
            if sub is not None:
                term = fit(ctx.sub(sub), sub.bits, ftype.width)
                parts.append(f"({term} << {lo})" if lo else term)
            lo += ftype.width
        return f"({' | '.join(parts)})" if parts else "0"

    def __repr__(self):
        return f"{{{', '.join(self.fields)}}}"


class RMux(RExpr):
    def __init__(self, cond: RExpr, a: RExpr, b: RExpr, width: int):
        self.cond = cond
        self.a = a
        self.b = b
        self.width = width
        self.bits = min(max(a.bits, b.bits), width)

    def children(self):
        return (self.cond, self.a, self.b)

    def eval(self, env):
        return mask(
            self.a.eval(env) if self.cond.eval(env) & 1 else self.b.eval(env),
            self.width,
        )

    def to_python(self, ctx):
        cond = fit(ctx.sub(self.cond), self.cond.bits, 1)
        return fit(f"({ctx.sub(self.a)} if {cond} else {ctx.sub(self.b)})",
                   max(self.a.bits, self.b.bits), self.width)

    def gate_count(self):
        return {"mux2": self.width}

    def depth(self):
        return 1

    def __repr__(self):
        return f"({self.cond!r} ? {self.a!r} : {self.b!r})"


class RTable(RExpr):
    """Combinational lookup table (LUT/ROM); index truncated to the table
    size.  Gate cost models LUT mapping: one 4-input LUT cell per 4 bits of
    table content."""

    def __init__(self, index: RExpr, entries, width: int):
        self.index = index
        self.entries = tuple(entries)
        self.width = self.bits = width
        self._idx_bits = max((len(self.entries) - 1).bit_length(), 1)

    def children(self):
        return (self.index,)

    def eval(self, env):
        i = self.index.eval(env) & ((1 << self._idx_bits) - 1)
        if i >= len(self.entries):
            return 0
        return mask(self.entries[i], self.width)

    def to_python(self, ctx):
        table = ctx.const(tuple(
            mask(e, self.width) for e in self.entries
        ))
        index = fit(ctx.sub(self.index), self.index.bits, self._idx_bits)
        if 1 << min(self.index.bits, self._idx_bits) <= len(self.entries):
            return f"{table}[{index}]"      # every index names an entry
        tmp = ctx.temp()
        return (f"({table}[{tmp}] if ({tmp} := {index})"
                f" < {len(self.entries)} else 0)")

    def gate_count(self):
        return {"lut4": max(len(self.entries) * self.width // 16, 1)}

    def depth(self):
        return max(self._idx_bits // 2, 1)

    def __repr__(self):
        return f"table[{len(self.entries)}x{self.width}]"


class RReady(RExpr):
    width = 1

    def __init__(self, endpoint: str, message: str):
        self.endpoint = endpoint
        self.message = message

    def eval(self, env):
        return int(bool(env.ready_fn(self.endpoint, self.message)))

    def to_python(self, ctx):
        return f"(1 if {ctx.ready(self.endpoint, self.message)} else 0)"

    def __repr__(self):
        return f"ready({self.endpoint}.{self.message})"


def walk(expr: RExpr):
    """Yield every node of an expression tree."""
    yield expr
    for c in expr.children():
        yield from walk(c)


def total_gates(expr: RExpr) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for node in walk(expr):
        for g, n in node.gate_count().items():
            out[g] = out.get(g, 0) + n
    return out


def total_depth(expr: RExpr) -> int:
    own = expr.depth()
    kids = [total_depth(c) for c in expr.children()]
    return own + (max(kids) if kids else 0)
