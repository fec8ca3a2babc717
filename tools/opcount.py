"""Executed bytecodes per simulated cycle, split by layer.

Run: PYTHONPATH=src python tools/opcount.py SCENARIO [--cycles N]

Builds a registry scenario on the kernel engine and the pycompiled
backend (seed 0), runs ``WARMUP`` cycles untraced so that kernel and
pysim compilation stay out of the count, then runs ``--cycles`` cycles
under ``sys.settrace`` with opcode events on every frame and counts the
bytecodes each code object executes.  The trace is removed afterwards
(any earlier one is put back), also when the run raises.

The count does not move with machine load, so it is the per-cycle proxy
to quote beside wall-clock benchmarks.  It does not replace them: a C
call and a cheap bytecode count the same.  Rows, per cycle: the
generated pysim settle passes (``_EVAL``), the generated pysim clock
edges (``_TICK``), the cycle kernel, the ``TOP`` Python functions that
execute most of the rest (by qualified name), everything else, and the
total; the rows above the total sum to it.
"""

import argparse
import sys
from collections import Counter

from repro.api import SimConfig, get_registry

SETTLE = "generated settle"
EDGE = "generated clock edge"
KERNEL = "cycle kernel"
OTHER = "other"
TOTAL = "total"
WARMUP = 20
TOP = 8


def layer_of(code) -> str:
    """The row a code object is charged to: a generated layer, or its
    qualified name."""
    if code.co_filename.startswith("<pysim:"):
        return SETTLE if code.co_name == "_EVAL" else EDGE
    if code.co_filename == "<cycle-kernel>":
        return KERNEL
    return code.co_qualname


def count_opcodes(sim, cycles: int) -> Counter:
    """Bytecodes executed per code object while ``sim`` runs ``cycles``
    cycles."""
    counts = Counter()

    def trace(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code

        def local(frame, event, arg):
            if event == "opcode":
                counts[code] += 1
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        sim.run(cycles)
    finally:
        sys.settrace(previous)
    return counts


def per_cycle(counts: Counter, cycles: int, top: int = TOP) -> list:
    """``(row, bytecodes per cycle)`` pairs: the three generated layers,
    the ``top`` busiest other functions, ``other`` and ``total``."""
    layers = Counter()
    for code, n in counts.items():
        layers[layer_of(code)] += n
    rows = [(name, layers.pop(name, 0)) for name in (SETTLE, EDGE, KERNEL)]
    rest = sorted(layers.items(), key=lambda row: (-row[1], row[0]))
    rows += rest[:top]
    rows.append((OTHER, sum(n for _, n in rest[top:])))
    rows.append((TOTAL, sum(counts.values())))
    return [(name, n / cycles) for name, n in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario")
    ap.add_argument("--cycles", type=int, default=200)
    args = ap.parse_args(argv)
    config = SimConfig(engine="kernel", backend="pycompiled", seed=0)
    sim = get_registry().build(args.scenario, config)
    sim.run(WARMUP)
    rows = per_cycle(count_opcodes(sim, args.cycles), args.cycles)
    print(
        f"{args.scenario}: bytecodes per cycle over {args.cycles} cycles "
        f"(kernel/pycompiled, seed 0, after {WARMUP} warm-up cycles)"
    )
    total = rows[-1][1] or 1.0
    for name, n in rows:
        print(f"  {n:12.1f}  {100 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
