"""Statically pipelined baselines: a two-stage ALU and a 2x2 weight-
stationary systolic array (the designs the paper compares against
Filament).  Fixed latency 2, initiation interval 1.
"""

from __future__ import annotations

from typing import Tuple

from ..codegen.simfsm import MessagePort
from ..rtl.module import Module

ALU_OPS = ("add", "sub", "and", "or", "xor", "shl", "shr", "lt")


def alu_pack(op: int, a: int, b: int) -> int:
    """{op[2:0], a[15:0], b[15:0]} -> 35-bit request word (b is LSB)."""
    return ((op & 7) << 32) | ((a & 0xFFFF) << 16) | (b & 0xFFFF)


def alu_reference(op: int, a: int, b: int) -> int:
    a &= 0xFFFF
    b &= 0xFFFF
    return [
        a + b, a - b, a & b, a | b, a ^ b,
        a << (b & 0xF), a >> (b & 0xF), int(a < b),
    ][op & 7] & 0xFFFF


class PipelinedAlu(Module):
    """Two-stage ALU: stage 1 computes every candidate result, stage 2
    selects by the registered opcode.  Valid bits ride along the pipeline;
    the downstream is assumed always ready (static timing)."""

    def __init__(self, name: str, inp: MessagePort, out: MessagePort):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.s1 = [0] * 8          # candidate results
        self.s1_op = 0
        self.s1_valid = False
        self.out_q = 0
        self.out_valid = False
        for w in (*inp.wires(), *out.wires()):
            self.adopt(w)

    def comb_inputs(self):
        return ()      # statically scheduled: always ready, state-driven

    def comb_outputs(self):
        return (self.inp.ack, self.out.valid, self.out.data)

    def eval_comb(self):
        self.inp.ack.set(1)
        self.out.valid.set(1 if self.out_valid else 0)
        self.out.data.set(self.out_q)

    def tick(self):
        # stage 2
        self.out_valid = self.s1_valid
        if self.s1_valid:
            self.out_q = self.s1[self.s1_op]
        # stage 1
        if self.inp.fires:
            word = self.inp.data.value
            op = (word >> 32) & 7
            a = (word >> 16) & 0xFFFF
            b = word & 0xFFFF
            self.s1 = [alu_reference(k, a, b) for k in range(8)]
            self.s1_op = op
            self.s1_valid = True
        else:
            self.s1_valid = False


class SystolicArray2x2(Module):
    """2x2 weight-stationary systolic array computing, per input vector
    ``(x0, x1)``, the products ``y_j = w0j*x0 + w1j*x1``.

    Stage 1 multiplies the first weight row and delays ``x1``; stage 2
    accumulates the second row -- latency 2, II = 1.
    """

    def __init__(self, name: str, inp: MessagePort, out: MessagePort,
                 weights: Tuple[Tuple[int, int], Tuple[int, int]] = ((1, 2), (3, 4))):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.w = weights
        self.p0 = [0, 0]        # stage-1 partial products
        self.x1_d = 0
        self.s1_valid = False
        self.y = [0, 0]
        self.out_valid = False
        for w_ in (*inp.wires(), *out.wires()):
            self.adopt(w_)

    def comb_inputs(self):
        return ()      # statically scheduled: always ready, state-driven

    def comb_outputs(self):
        return (self.inp.ack, self.out.valid, self.out.data)

    def eval_comb(self):
        self.inp.ack.set(1)
        self.out.valid.set(1 if self.out_valid else 0)
        self.out.data.set(
            ((self.y[1] & 0xFFFF) << 16) | (self.y[0] & 0xFFFF)
        )

    def tick(self):
        # stage 2
        self.out_valid = self.s1_valid
        if self.s1_valid:
            self.y = [
                (self.p0[j] + self.w[1][j] * self.x1_d) & 0xFFFF
                for j in range(2)
            ]
        # stage 1
        if self.inp.fires:
            word = self.inp.data.value
            x0 = word & 0xFF
            x1 = (word >> 8) & 0xFF
            self.p0 = [(self.w[0][j] * x0) & 0xFFFF for j in range(2)]
            self.x1_d = x1
            self.s1_valid = True
        else:
            self.s1_valid = False


def systolic_reference(weights, x0: int, x1: int) -> Tuple[int, int]:
    return tuple(
        (weights[0][j] * (x0 & 0xFF) + weights[1][j] * (x1 & 0xFF)) & 0xFFFF
        for j in range(2)
    )
