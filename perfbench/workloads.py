"""Worker side of the benchmark: one fresh interpreter per invocation.

    python3 perfbench/workloads.py '<json spec>'

The worker imports ``repro``, sets its workload up and prints ``READY``
(the parent times set-up from the spawn to that line).  It then runs
the spec's number of rounds of timed ops, checks every op's output
against references the code under test did not produce -- outside every
timed region -- and prints one ``RESULT <json>`` line: the ops, their
host-probe readings and, in a traced worker, the spans and the
per-layer samples derived from them.

An op that raises, or whose output is wrong, is a failed op: recorded
with its error, never raised.

    python3 perfbench/workloads.py '{"workload": "cli-trace", ...}' ARGS

runs ``python -m repro ARGS`` in this interpreter with spans recorded
(the traced cli run).
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import repro  # noqa: E402,F401  (timed: the import is part of set-up)

IMPORT_MS = (time.perf_counter() - _T_IMPORT) * 1e3

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from checks import (  # noqa: E402
    SIM_CHECK_CYCLE,
    SIM_STIM,
    SIM_WINDOW,
    arch_digest,
    check_case,
    load_refs,
    ref_seed,
    sim_digest,
)
from run import probe_ms  # noqa: E402

#: the 12 small designs ``tests/test_all_designs_sv.py`` emits; the 13th,
#: the Y86 core, is one op in a worker of its own (one verdict takes
#: ~20 s and ~600 MB, so it sets the workload's peak memory)
DESIGNS = ("fifo", "spill", "stream_fifo", "memory", "cached_memory", "tlb",
           "ptw", "aes", "axi_demux", "axi_mux", "alu", "systolic")

#: campaign: (scenario, inject seed) pairs whose 25-fault campaigns
#: complete.  Most inject seeds abort today with an IndexError when a
#: fault corrupts a Y86 register id; a workload must not fail by design,
#: so the pool is screened and the run seed orders it
CAMPAIGN_POOL = (("y86_sum", 0), ("y86_sum", 6), ("y86_memcpy", 1),
                 ("y86_memcpy", 5), ("y86_sort", 1), ("y86_sort", 9))
CAMPAIGN_FAULTS = 25
#: at least the slowest golden halt (y86_sort halts at cycle 1456)
CAMPAIGN_CYCLES = 4000


class Worker:
    """One workload in one interpreter: set-up, timed ops, checks."""

    def __init__(self, spec: dict):
        self.seed = int(spec["seed"])
        self.rounds = int(spec.get("rounds", 1))
        self.mode = spec.get("mode", "main")
        self.tracer = tracing.Tracer() if spec.get("trace") else None
        self.ops: list = []
        self.counters: dict = {}
        self.observations: list = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def run_op(self, kind: str, fn, work: int = 1):
        """Time one op.  An exception makes it a failed op: its type,
        message and raising line are recorded and the run goes on."""
        op = {"kind": kind, "ms": 0.0, "work": work, "ok": True,
              "error": None, "probe_ms": probe_ms()}
        if self.tracer:
            self.tracer.op = len(self.ops)
        out = None
        t0 = time.perf_counter()
        try:
            with self.span("op"):
                out = fn()
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            op["ok"], op["error"] = False, (
                f"{type(exc).__name__}: {exc} (at "
                f"{'/'.join(Path(where.filename).parts[-2:])}:{where.lineno})")
        op["ms"] = (time.perf_counter() - t0) * 1e3
        self.ops.append(op)
        return out, op

    @staticmethod
    def fail(op: dict, why: str) -> None:
        if op["ok"]:
            op["ok"], op["error"] = False, why

    def observe(self, op: dict, kind: str, out, detail: str = "") -> None:
        """Keep an op's output for the checks, and a digest of it (plus
        ``detail``) in the op record, so runs can be compared."""
        self.observations.append((op, kind, out))
        text = json.dumps(out, sort_keys=True, default=str) + detail
        op["out"] = hashlib.sha256(text.encode()).hexdigest()[:16]

    def count(self, key: str, value) -> None:
        self.counters.setdefault(key, []).append(value)

    def install_tracing(self) -> None:
        """Record spans at the layers' public functions for this
        worker's lifetime (traced workers only)."""
        import repro.api
        import repro.codegen.pysim
        import repro.codegen.sysverilog
        import repro.core.fsmplan
        import repro.core.graph_builder
        import repro.core.typecheck
        import repro.inject.campaign
        import repro.inject.faults
        import repro.rtl.snapshot

        t = self.tracer
        t.rebind("repro.core.typecheck", "check_process", "core.check")
        t.rebind_method(repro.core.graph_builder.GraphBuilder, "build",
                        "core.graph")
        t.rebind("repro.core.fsmplan", "build_process_plan", "core.plan")
        t.rebind("repro.codegen.pysim", "generate_source",
                 "codegen.pysim_gen")
        t.rebind("repro.codegen.pysim", "backend_for",
                 "codegen.pysim_compile")
        t.rebind("repro.codegen.sysverilog", "emit_process", "codegen.sv")
        t.rebind_method(repro.api.ScenarioRegistry, "build", "rtl.build")
        t.rebind("repro.inject.campaign", "plan_faults", "inject.plan")
        t.rebind("repro.rtl.snapshot", "capture", "rtl.snapshot.capture")
        t.rebind("repro.rtl.snapshot", "restore", "rtl.snapshot.restore")
        # a fault's tail runs from arm() to the campaign's last disarm()
        # (the hook also disarms itself once its window has passed)
        injector = repro.inject.faults.FaultInjector
        arm, disarm, open_tails = injector.arm, injector.disarm, {}
        tail_cycles = self.counters.setdefault("tail_cycles", {})

        def traced_arm(inj, sim):
            out = arm(inj, sim)
            open_tails[id(inj)] = (t.open("inject.tail"), sim, sim.cycle)
            return out

        def traced_disarm(inj):
            disarm(inj)
            if id(inj) in open_tails:
                index, sim, start = open_tails[id(inj)]
                t.spans[index][2] = time.perf_counter_ns()
                tail_cycles[index] = sim.cycle - start

        injector.arm, injector.disarm = traced_arm, traced_disarm

    def span_rows(self, kinds=None) -> list:
        """Span rows of set-up and timed ops (not of output checks),
        optionally only those inside ops of the given kinds."""
        return [r for r in tracing.rows(self.tracer.spans) if r.op != -2
                and (kinds is None or
                     (r.op >= 0 and self.ops[r.op]["kind"] in kinds))]

    def build_layers(self, rows: list, layers: dict) -> None:
        """Per-build costs shared by every workload that elaborates
        scenarios: build time, plan time and pysim compile time."""
        builds = [r.ms for r in rows if r.name == "rtl.build"]
        layers["rtl.build_ms"] = builds
        n = max(len(builds), 1)
        layers["core.plan_ms"] = [[tracing.total(rows, "core.plan"), n]]
        layers["codegen.pysim_compile_ms"] = [[tracing.total(
            rows, "codegen.pysim_compile", "self_ms"), n]]
        from repro.codegen import pysim

        stats = [pysim.cache_stats()]
        if "repro.rtl.kernel" in sys.modules:
            stats.append(sys.modules["repro.rtl.kernel"].cache_stats())
        hits = sum(s["hits"] for s in stats)
        layers["rtl.cache_hit_frac"] = [
            [hits, hits + sum(s["misses"] for s in stats)]]

    # -- typecheck ------------------------------------------------------
    def typecheck_setup(self) -> None:
        from repro.anvil_designs import (
            aes, axi, memory, mmu, pipeline, streams, y86)
        from repro.harness import table2

        self.factories = {
            "fifo": streams.fifo_buffer, "spill": streams.spill_register,
            "stream_fifo": streams.passthrough_stream_fifo,
            "memory": memory.memory_process,
            "cached_memory": memory.cached_memory_process,
            "tlb": mmu.tlb_process, "ptw": mmu.ptw_process,
            "aes": aes.aes_core, "axi_demux": axi.axi_demux,
            "axi_mux": axi.axi_mux, "alu": pipeline.pipelined_alu,
            "systolic": pipeline.systolic_array, "y86": y86.y86_core,
        }
        self.cases = dict(table2.CASES, stream_fifo=table2.stream_fifo_safety)
        if self.mode == "y86":
            self.op_list = ["y86"]
        else:
            self.op_list = list(DESIGNS) + [f"case.{c}" for c in self.cases]
        self.compile_design("fifo")           # warm-up

    def compile_design(self, name: str):
        from repro.codegen import pysim, sysverilog
        from repro.core import fsmplan, typecheck

        process = self.factories[name]()
        report = typecheck.check_process(process)
        plan = fsmplan.build_process_plan(process)
        py_source = pysim.generate_source(plan)
        sv = sysverilog.emit_process(process)
        return report, py_source, sv, sysverilog.structural_check(sv)

    def typecheck_loop(self) -> None:
        rng = random.Random(self.seed)
        for _round in range(self.rounds):
            order = list(self.op_list)
            rng.shuffle(order)
            for kind in order:
                if kind.startswith("case."):
                    out, op = self.run_op(kind, self.cases[kind[5:]])
                    self.observe(op, kind, out)
                    continue
                out, op = self.run_op(kind, lambda: self.compile_design(kind))
                if out is None:
                    continue
                report, py_source, sv, structure = out
                self.observe(op, kind, {
                    "ok": report.ok,
                    "structure": [structure["modules"],
                                  structure["endmodules"],
                                  structure["always_ff"] >= 1,
                                  sv.count("(") == sv.count(")"),
                                  sv.count("[") == sv.count("]")],
                }, py_source + sv)
                if self.tracer:
                    self.count("graph_events", sum(
                        r.graph.stats()["total"] for r in report.threads))
                    self.count("pysim_kb", len(py_source) / 1024)
                    self.count("sv_kb", len(sv) / 1024)

    def typecheck_check(self) -> None:
        for op, kind, out in self.observations:
            if kind.startswith("case."):
                why = check_case(kind[5:], out)
            elif out != {"ok": True, "structure": [1, 1, True, True, True]}:
                why = (f"{kind}: verdict/structure {out} != well-typed "
                       f"single-module SV")
            else:
                why = ""
            if why:
                self.fail(op, why)

    def typecheck_layers(self, layers: dict) -> None:
        designs = set(DESIGNS) | {"y86"}
        rows = self.span_rows(designs)
        n = max(sum(op["kind"] in designs for op in self.ops), 1)
        if self.mode == "y86":
            layers["core.check_y86_ms"] = [
                [tracing.total(rows, "core.check", "self_ms"), n]]
            return
        layers["core.check_ms"] = [
            [tracing.total(rows, "core.check", "self_ms"), n]]
        layers["core.graph_ms"] = [[tracing.total(rows, "core.graph"), n]]
        layers["core.plan_ms"] = [[tracing.total(rows, "core.plan"), n]]
        layers["codegen.pysim_gen_ms"] = [
            [tracing.total(rows, "codegen.pysim_gen"), n]]
        layers["codegen.sv_ms"] = [
            [tracing.total(rows, "codegen.sv", "self_ms"), n]]
        for key, metric in (("graph_events", "core.graph_events"),
                            ("pysim_kb", "codegen.pysim_kb"),
                            ("sv_kb", "codegen.sv_kb")):
            values = self.counters.get(key, [])
            layers[metric] = [[sum(values), max(len(values), 1)]]

    # -- simulate -------------------------------------------------------
    def simulate_setup(self) -> None:
        from repro import Session, SimConfig
        from repro.rtl import kernel

        self.kernel = kernel
        session = Session(SimConfig(engine="kernel", backend="pycompiled",
                                    seed=ref_seed(self.seed), stim=SIM_STIM))
        self.sims, self.at_check, self.first_run_ms = {}, {}, {}
        for name, window in SIM_WINDOW.items():
            sim = session.build(name)
            sim.run(1)               # primes the activity baseline
            t0 = time.perf_counter()
            sim.run(window - 1)      # first kernel entry: plan + compile
            self.first_run_ms[name] = (time.perf_counter() - t0) * 1e3
            self.sims[name] = sim

    def simulate_loop(self) -> None:
        order = list(SIM_WINDOW)
        random.Random(self.seed).shuffle(order)
        to_check = max((SIM_CHECK_CYCLE[n] - w) // w
                       for n, w in SIM_WINDOW.items())
        for _round in range(max(self.rounds, to_check)):
            for name in order:
                sim, window = self.sims[name], SIM_WINDOW[name]
                ready = self.kernel.fast_path_ready(sim)
                evals = sim.scheduler.eval_count
                toggles = sim.total_activity()
                _out, op = self.run_op(name, lambda: sim.run(window), window)
                op["out"] = [sim.cycle, sim.total_activity()]
                self.count("fast_path_ready", ready)
                self.count("evals", sim.scheduler.eval_count - evals)
                if op["out"][1] == toggles:
                    self.fail(op, f"{name}: window idled (no toggles)")
                if sim.cycle == SIM_CHECK_CYCLE[name]:
                    self.at_check[name] = {
                        f"{m}/{w}": n for (m, w), n in sim.activity.items()}

    def simulate_check(self) -> None:
        refs = load_refs()["simulate"]
        for name, sim in self.sims.items():
            want = refs[name][str(ref_seed(self.seed))]
            got = None
            if name in self.at_check:
                got = sim_digest(self.at_check[name], sim.waveform.samples,
                                 SIM_CHECK_CYCLE[name])
            if got != want:
                for op in self.ops:
                    if op["kind"] == name:
                        self.fail(op, f"{name}: digest at cycle "
                                      f"{SIM_CHECK_CYCLE[name]} {got} != "
                                      f"brute {want}")

    def simulate_layers(self, layers: dict) -> None:
        self.build_layers(self.span_rows(), layers)
        compile_ms = []
        for name, window in SIM_WINDOW.items():
            ms = [op["ms"] for op in self.ops if op["kind"] == name]
            layers[f"rtl.{name}_cps"] = [window * 1e3 / m for m in ms]
            # the first kernel entry minus the steady share of its cycles
            steady = statistics.median(ms) / window
            compile_ms.append(self.first_run_ms[name] - (window - 1) * steady)
        layers["rtl.kernel_compile_ms"] = compile_ms
        cycles = sum(op["work"] for op in self.ops)
        layers["rtl.evals_per_cycle"] = [[sum(self.counters["evals"]),
                                          cycles]]
        ready = self.counters["fast_path_ready"]
        layers["rtl.fast_path_frac"] = [[sum(ready), len(ready)]]
        layers["rtl.window_ms_p90"] = [op["ms"] for op in self.ops]

    # -- campaign -------------------------------------------------------
    def campaign_setup(self) -> None:
        from repro import Session, SimConfig

        self.session = Session(SimConfig(
            engine="kernel", backend="pycompiled", executor="serial",
            cycles=CAMPAIGN_CYCLES, seed=0))
        self.session.inject_campaign("y86_sum", faults=1, inject_seed=0)

    def campaign_loop(self) -> None:
        rng = random.Random(self.seed)
        for _round in range(self.rounds):
            order = list(CAMPAIGN_POOL)
            rng.shuffle(order)
            for scenario, inject_seed in order:
                out, op = self.run_op(
                    f"{scenario}@{inject_seed}",
                    lambda: self.session.inject_campaign(
                        scenario, faults=CAMPAIGN_FAULTS,
                        inject_seed=inject_seed), 0)
                if out is None:
                    op["error"] = (f"{scenario} inject seed {inject_seed}: "
                                   f"{op['error']}")
                    continue
                op["work"] = sum(out["histogram"].values())
                self.observe(op, scenario, {
                    "faults": out["faults"],
                    "outcomes": len(out["outcomes"]),
                    "histogram": out["histogram"],
                    "golden": out["golden"]}, json.dumps(out["outcomes"]))

    def build_cpu(self, scenario: str, **overrides):
        """A fresh build of a CPU scenario and its Y86 pipeline module."""
        sim = self.session.build(scenario, **overrides)
        return sim, next(m for m in sim.modules
                         if hasattr(m, "halted") and hasattr(m, "arch_state"))

    def reference_golden(self, scenario: str) -> dict:
        """The golden run as brute simulation and the ISA interpreter see
        it: brute's halt cycle and the reference machine's final state
        (plus brute's own digest when the two disagree, so no campaign
        can match)."""
        from repro.isa.reference import ReferenceMachine

        sim, cpu = self.build_cpu(scenario, engine="brute", backend="interp")
        expect = ReferenceMachine(bytes(cpu.memory), len(cpu.memory)).run()
        sim.run_until(lambda: cpu.halted, limit=CAMPAIGN_CYCLES)
        golden = {"cycles": sim.cycle, "stat": expect.stat,
                  "digest": arch_digest(expect)}
        if cpu.arch_state() != expect:
            golden["brute_digest"] = arch_digest(cpu.arch_state())
        return golden

    def campaign_check(self) -> None:
        golden = {}
        for op, scenario, out in self.observations:
            if scenario not in golden:
                golden[scenario] = self.reference_golden(scenario)
            counts = {out["faults"], out["outcomes"],
                      sum(out["histogram"].values())}
            if counts != {CAMPAIGN_FAULTS}:
                self.fail(op, f"{scenario}: outcome counts {counts} do not "
                              f"sum to the {CAMPAIGN_FAULTS} faults planned")
            elif out["golden"] != golden[scenario]:
                self.fail(op, f"{scenario}: golden {out['golden']} != "
                              f"reference {golden[scenario]}")
            if not op["ok"]:
                op["work"] = 0

    def campaign_layers(self, layers: dict) -> None:
        rows = [r for r in self.span_rows() if r.op >= 0]
        self.build_layers(rows, layers)
        layers["inject.plan_ms"] = tracing.each(rows, "inject.plan")
        layers["rtl.snapshot.capture_ms"] = tracing.each(
            rows, "rtl.snapshot.capture")
        layers["rtl.snapshot.restore_ms"] = tracing.each(
            rows, "rtl.snapshot.restore")
        layers["inject.tail_ms"] = tracing.each(rows, "inject.tail")
        layers["inject.tail_cycles"] = list(
            self.counters["tail_cycles"].values())
        layers["rtl.snapshot.kb"] = []
        for scenario in sorted({s for s, _seed in CAMPAIGN_POOL}):
            sim, cpu = self.build_cpu(scenario)
            sim.run_until(lambda: cpu.halted, limit=CAMPAIGN_CYCLES)
            layers["rtl.snapshot.kb"].append(sim.snapshot().nbytes() / 1024)
        classified = sum(op["work"] for op in self.ops)
        layers["inject.classified_frac"] = [
            [classified, len(self.ops) * CAMPAIGN_FAULTS]]
        layers["inject.hang_frac"] = [[sum(
            out["histogram"]["hang"] for op, _s, out in self.observations
            if op["ok"]), classified]]

    # -- driver ---------------------------------------------------------
    def main(self, workload: str) -> dict:
        if self.tracer:
            self.install_tracing()
        getattr(self, f"{workload}_setup")()
        print("READY", flush=True)
        getattr(self, f"{workload}_loop")()
        # each op's host reading: the probes just before and just after
        # it; the first one, taken right after set-up, goes back too
        probes = [op["probe_ms"] for op in self.ops] + [probe_ms()]
        for op, after in zip(self.ops, probes[1:]):
            op["probe_ms"] = (op["probe_ms"] + after) / 2
        if self.tracer:
            self.tracer.op = -2
        getattr(self, f"{workload}_check")()
        result = {"ops": self.ops, "import_ms": IMPORT_MS,
                  "ready_probe_ms": probes[0]}
        if self.tracer:
            layers: dict = {}
            getattr(self, f"{workload}_layers")(layers)
            result["layers"] = layers
            result["spans"] = self.tracer.spans
        return result


def cli_trace(spec: dict, argv: list) -> int:
    """Run one ``python -m repro`` command (``argv``) in this interpreter
    with spans recorded, and write its per-layer samples and spans to
    ``spec["out"]``."""
    from repro import __main__ as cli

    worker = Worker(dict(spec, trace=True))
    worker.install_tracing()
    worker.tracer.op = 0
    rc = 1
    try:
        with worker.tracer.span("op"):
            rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        layers: dict = {}
        worker.build_layers(worker.span_rows(), layers)
        with open(spec["out"], "w") as fh:
            json.dump({"layers": layers, "spans": worker.tracer.spans,
                       "import_ms": IMPORT_MS}, fh)
    return rc


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["workload"] == "cli-trace":
        return cli_trace(spec, sys.argv[2:])
    result = Worker(spec).main(spec["workload"])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
