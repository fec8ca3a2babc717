"""Compiler performance: type-check and compile times per design, plus
throughput of the compiled simulations (cycles/second).

Run: pytest benchmarks/bench_compiler.py --benchmark-only -s
"""

import pytest

from repro.anvil_designs.aes import aes_core
from repro.anvil_designs.axi import axi_demux, axi_mux
from repro.anvil_designs.mmu import ptw_process, tlb_process
from repro.anvil_designs.pipeline import pipelined_alu, systolic_array
from repro.anvil_designs.streams import (
    fifo_buffer,
    passthrough_stream_fifo,
    spill_register,
)
from repro import compile_cache
from repro.codegen.simfsm import compile_process
from repro.codegen.sysverilog import emit_process
from repro.core import fsmplan
from repro.core.typecheck import check_process

DESIGNS = {
    "fifo": fifo_buffer,
    "spill": spill_register,
    "stream_fifo": passthrough_stream_fifo,
    "tlb": tlb_process,
    "ptw": ptw_process,
    "aes": aes_core,
    "axi_demux": axi_demux,
    "axi_mux": axi_mux,
    "alu": pipelined_alu,
    "systolic": systolic_array,
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.benchmark(group="typecheck")
def test_benchmark_typecheck(benchmark, name):
    proc = DESIGNS[name]()
    report = benchmark(lambda: check_process(proc))
    assert report.ok


@pytest.mark.parametrize("name", ["fifo", "tlb", "aes"])
@pytest.mark.benchmark(group="compile")
def test_benchmark_compile(benchmark, name):
    proc = DESIGNS[name]()

    def cold():
        fsmplan.clear_cache()        # time planning, not a plan-cache hit
        return compile_process(proc)

    compile_cache.set_disk_dir(None)     # nor a load from the disk tier
    try:
        benchmark(cold)
    finally:
        compile_cache.reset_disk_dir()


@pytest.mark.parametrize("name", ["fifo", "ptw"])
@pytest.mark.benchmark(group="emit_sv")
def test_benchmark_emit_sv(benchmark, name):
    proc = DESIGNS[name]()
    sv = benchmark(lambda: emit_process(proc))
    assert "endmodule" in sv


@pytest.mark.benchmark(group="simulate")
def test_benchmark_simulation_throughput(benchmark):
    from repro.lang.process import System
    from repro.codegen.simfsm import build_simulation

    def run():
        sys_ = System()
        inst = sys_.add(fifo_buffer())
        ci, co = sys_.expose(inst, "inp"), sys_.expose(inst, "out")
        ss = build_simulation(sys_)
        ein, eout = ss.external(ci), ss.external(co)
        eout.always_receive("data")
        for v in range(30):
            ein.send("data", v)
        ss.sim.run(60)
        return len(eout.received.get("data", []))

    n = benchmark(run)
    assert n == 30
