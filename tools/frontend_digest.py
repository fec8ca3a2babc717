"""Front-end output digest: everything the timing oracle decides, as JSON.

Prints one canonical JSON document covering:

- the type-check verdict, errors and notes of every ``repro.anvil_designs``
  factory (the Y86 core included) and of both Appendix A listings;
- each one's optimizer statistics, and SHA-256 digests of its generated
  pysim source and of its SystemVerilog;
- the six Table 2 studies;
- Figures 2, 5, 6 and 8.

``tests/test_frontend_digest.py`` compares :func:`digest` with the
committed output, so a change to the type checker, the oracle or the
optimizer that changes any of it fails the suite.  Regenerate the golden
only for an intended output change:

    PYTHONPATH=src python tools/frontend_digest.py > tests/golden/frontend_digest.json

A run takes about a second on a 2-CPU host (Python 3.11); the Y86 core,
`axi_mux` and `aes_core` together take about half of it.
"""

import hashlib
import json

from repro.anvil_designs import aes, axi, memory, mmu, pipeline, streams, y86
from repro.codegen.pysim import generate_source
from repro.codegen.sysverilog import emit_process
from repro.core.fsmplan import build_process_plan
from repro.core.typecheck import check_process
from repro.harness import figures, table2
from repro.harness.appendix_a import listing1_child, listing1_child_safe

FACTORIES = (
    streams.fifo_buffer,
    streams.spill_register,
    streams.passthrough_stream_fifo,
    memory.memory_process,
    memory.cached_memory_process,
    memory.cached_memory_static_process,
    mmu.tlb_process,
    mmu.ptw_process,
    aes.aes_core,
    axi.axi_demux,
    axi.axi_mux,
    pipeline.pipelined_alu,
    pipeline.systolic_array,
    y86.y86_core,
    listing1_child,
    listing1_child_safe,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def process_digest(factory) -> dict:
    process = factory()
    report = check_process(process)
    plan = build_process_plan(process)
    return {
        "ok": report.ok,
        "errors": [f"{type(e).__name__}: {e}" for e in report.errors],
        "notes": report.notes,
        "optimize_stats": [[s.removed, s.passes_run] for s in plan.optimize_stats],
        "pysim_sha256": _sha(generate_source(plan)),
        "sv_sha256": _sha(emit_process(process)),
    }


def digest() -> dict:
    studies = {name: case() for name, case in table2.CASES.items()}
    studies["stream_fifo"] = table2.stream_fifo_safety()
    return {
        "processes": {f.__name__: process_digest(f) for f in FACTORIES},
        "table2": studies,
        "figures": {
            "figure2_bsv": figures.figure2_bsv(),
            "figure2_anvil": figures.figure2_anvil(),
            "figure5": figures.figure5(),
            "figure6": figures.figure6(),
            "figure8": figures.figure8(),
        },
    }


if __name__ == "__main__":
    print(json.dumps(digest(), indent=1, sort_keys=True, default=repr))
