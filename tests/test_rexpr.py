"""Runtime-expression IR: evaluation semantics, widths, gate model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import rexpr as rx
from repro.codegen.simfsm import Activation
from repro.lang.types import Bundle, Logic


def env(regs=None, slots=None):
    return rx.REnv(regs or {}, slots or {})


class TestEval:
    def test_literal_masked(self):
        assert rx.RLit(0x1FF, 8).eval(env()) == 0xFF

    def test_reg_read(self):
        assert rx.RReg("a", 8).eval(env({"a": 0x12})) == 0x12

    def test_a_fresh_activations_slots_read_zero(self):
        # the interpreter evaluates, the generated backend runs to_python
        slots = Activation(0, 1, 4).slots
        expr = rx.RSlot(3, 8)
        assert expr.eval(env(slots=slots)) == 0
        assert eval(expr.to_python(None), {"_sl": slots}) == 0

    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 200, 100, 44),          # 8-bit wrap
        ("sub", 5, 7, 254),
        ("mul", 20, 20, 400 & 0xFF),
        ("and", 0xF0, 0x3C, 0x30),
        ("or", 0xF0, 0x0C, 0xFC),
        ("xor", 0xFF, 0x0F, 0xF0),
        ("eq", 5, 5, 1),
        ("ne", 5, 5, 0),
        ("lt", 3, 5, 1),
        ("ge", 3, 5, 0),
        ("shl", 1, 3, 8),
        ("shr", 8, 3, 1),
    ])
    def test_binops(self, op, a, b, expected):
        e = rx.RBin(op, rx.RLit(a, 8), rx.RLit(b, 8), 8)
        assert e.eval(env()) == expected

    def test_concat_msb_first(self):
        e = rx.RBin("concat", rx.RLit(0xA, 4), rx.RLit(0x5, 4), 8)
        assert e.eval(env()) == 0xA5

    def test_unops(self):
        assert rx.RUn("not", rx.RLit(0x0F, 8), 8).eval(env()) == 0xF0
        assert rx.RUn("redor", rx.RLit(0, 8), 1).eval(env()) == 0
        assert rx.RUn("redor", rx.RLit(2, 8), 1).eval(env()) == 1
        assert rx.RUn("redand", rx.RLit(0xFF, 8), 1).eval(env()) == 1
        assert rx.RUn("redxor", rx.RLit(0b101, 8), 1).eval(env()) == 0

    def test_slice(self):
        e = rx.RSlice(rx.RLit(0xABCD, 16), 11, 4)
        assert e.eval(env()) == 0xBC

    def test_mux_lazy(self):
        e = rx.RMux(rx.RLit(1, 1), rx.RLit(7, 8), rx.RLit(9, 8), 8)
        assert e.eval(env()) == 7
        e = rx.RMux(rx.RLit(0, 1), rx.RLit(7, 8), rx.RLit(9, 8), 8)
        assert e.eval(env()) == 9

    def test_bundle_pack(self):
        b = Bundle([("lo", Logic(4)), ("hi", Logic(4))])
        e = rx.RBundle(b, {"lo": rx.RLit(0x5, 4), "hi": rx.RLit(0xA, 4)})
        assert e.eval(env()) == 0xA5

    def test_field_extract(self):
        b = Bundle([("lo", Logic(4)), ("hi", Logic(4))])
        e = rx.RField(rx.RLit(0xA5, 8), b, "hi")
        assert e.eval(env()) == 0xA

    def test_table(self):
        t = rx.RTable(rx.RLit(3, 8), [10, 20, 30, 40], 8)
        assert t.eval(env()) == 40

    def test_table_out_of_range_is_zero(self):
        t = rx.RTable(rx.RLit(7, 8), [10, 20, 30, 40], 8)
        # index truncated to table's index width (2 bits) -> entry 3
        assert t.eval(env()) == 40


class TestGateModel:
    def test_const_shift_free(self):
        e = rx.RBin("shl", rx.RReg("a", 16), rx.RLit(3, 4), 16)
        assert e.gate_count() == {}
        assert e.depth() == 0

    def test_dynamic_shift_costs(self):
        e = rx.RBin("shl", rx.RReg("a", 16), rx.RReg("s", 4), 16)
        assert e.gate_count().get("mux2", 0) > 0

    def test_const_mask_free(self):
        e = rx.RBin("and", rx.RReg("a", 16), rx.RLit(0xFF, 16), 16)
        assert e.gate_count() == {}

    def test_adder_scales_with_width(self):
        small = rx.RBin("add", rx.RReg("a", 4), rx.RReg("b", 4), 4)
        big = rx.RBin("add", rx.RReg("a", 32), rx.RReg("b", 32), 32)
        assert sum(big.gate_count().values()) > \
            4 * sum(small.gate_count().values())

    def test_total_gates_walk(self):
        e = rx.RBin("xor", rx.RReg("a", 8),
                    rx.RBin("xor", rx.RReg("b", 8), rx.RReg("c", 8), 8), 8)
        assert rx.total_gates(e)["xor"] == 16

    def test_depth_composes(self):
        inner = rx.RBin("add", rx.RReg("a", 8), rx.RReg("b", 8), 8)
        outer = rx.RBin("xor", inner, rx.RReg("c", 8), 8)
        assert rx.total_depth(outer) > rx.total_depth(inner)


# hypothesis: IR semantics match Python integer semantics
_ops = st.sampled_from(
    ["add", "sub", "mul", "and", "or", "xor", "eq", "ne", "lt", "le",
     "gt", "ge"]
)


@settings(max_examples=300, deadline=None)
@given(op=_ops, a=st.integers(0, 255), b=st.integers(0, 255))
def test_binop_matches_python_semantics(op, a, b):
    e = rx.RBin(op, rx.RLit(a, 8), rx.RLit(b, 8), 8)
    got = e.eval(env())
    py = {
        "add": (a + b) & 0xFF, "sub": (a - b) & 0xFF,
        "mul": (a * b) & 0xFF,
        "and": a & b, "or": a | b, "xor": a ^ b,
        "eq": int(a == b), "ne": int(a != b),
        "lt": int(a < b), "le": int(a <= b),
        "gt": int(a > b), "ge": int(a >= b),
    }[op]
    assert got == py


@settings(max_examples=100, deadline=None)
@given(value=st.integers(0, 2**16 - 1),
       hi=st.integers(0, 15), lo=st.integers(0, 15))
def test_slice_matches_bit_arithmetic(value, hi, lo):
    if hi < lo:
        hi, lo = lo, hi
    e = rx.RSlice(rx.RLit(value, 16), hi, lo)
    assert e.eval(env()) == (value >> lo) & ((1 << (hi - lo + 1)) - 1)


@settings(max_examples=100, deadline=None)
@given(fields=st.lists(
    st.tuples(st.integers(1, 12), st.integers(0, 2**12 - 1)),
    min_size=1, max_size=4,
))
def test_bundle_roundtrip(fields):
    dtype = Bundle([(f"f{i}", Logic(w)) for i, (w, _) in enumerate(fields)])
    packed = rx.RBundle(dtype, {
        f"f{i}": rx.RLit(v, w) for i, (w, v) in enumerate(fields)
    }).eval(env())
    unpacked = dtype.unpack(packed)
    for i, (w, v) in enumerate(fields):
        assert unpacked[f"f{i}"] == v & ((1 << w) - 1)
