"""Before/after benchmark of the RTL simulation stack, on four axes.

**Engine axis** (``Simulator(engine=...)``): the seed's brute-force
settle loop (kept verbatim: full re-evaluation of every module per
iteration, dict snapshots of every wire, full-pass toggle accounting),
the levelized dirty-set scheduler, and the compiled per-topology cycle
kernel (``engine="kernel"``: exec-generated step loops, see
``repro.rtl.kernel``) on the six bundled design families and the
combined "sweep" (all six families in one simulator -- the shape the
harness tables run).  The axis runs on the ``pycompiled`` FSM backend:
the settle engines schedule *modules*, and on ``interp`` the plan
interpreter inside each compiled-process module dominates the cycle,
masking exactly the dispatch overhead this axis measures (the backend
axis below quantifies that interpreter cost separately).  Each row
reports ``speedup`` (levelized vs brute, the historical column) and
``kernel_speedup`` (kernel vs levelized -- the floor
``tools/check_bench.py`` gates on).

**Backend axis** (``build_simulation(backend=...)``): the generated-
Python FSM backend (``pycompiled``: plans compiled to specialized
Python by ``repro.codegen.pysim``) against the plan interpreter
(``interp``) on the six *Anvil-only* scenarios -- the workloads that are
almost entirely compiled-process execution -- plus their combined sweep,
and the full engine x backend matrix on that sweep.

**CPU axis** (recorded, not gated): the three ``y86_*`` pipelined-CPU
scenarios across the engines -- control-heavy, data-dependent work
whose speedups aren't comparable to the streaming designs the gated
engine axis floors were committed against.

**Executor axis** (``Session.sweep(executor=...)``): the declarative
JobSpec sweep of all twelve scenario families (six mixed + six
Anvil-only) under the ``serial`` and ``process`` executors of
:mod:`repro.rtl.executors`.  Each job builds *and* runs its scenario
inside the executor -- the scenario-sweep shape -- so the ``process``
row shows what real cores buy once jobs cross the pickling boundary.
The blob records ``cpu_count``: on a single-core box the process row
can only demonstrate correctness, not speedup, and
``tools/check_bench.py`` gates the multi-core floor conditionally on
it.

Every measurement cross-checks equivalence on both axes: the two
variants must produce identical waveforms (the scenarios watch every
compiled process's received-message wires) and identical per-wire
activity counts.  The pysim compile-cache counters are reported at the
end (repeated rows must hit, not recompile).

Run::

    PYTHONPATH=src python benchmarks/bench_simulator.py            # full
    PYTHONPATH=src python benchmarks/bench_simulator.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_simulator.py --json out.json
"""

import argparse
import json
import os
import statistics
import sys
import time

from repro.api import Session, SimConfig, get_registry
from repro.codegen import pysim
from repro.codegen.simfsm import BACKENDS
from repro.rtl import kernel
from repro.rtl.executors import EXECUTORS
from repro.rtl.simulator import ENGINES


def _measure_once(builder, cycles, warmup):
    """One cycles/second measurement, plus the finished sim."""
    sim = builder()
    sim.run(warmup)
    t0 = time.perf_counter()
    sim.run(cycles)
    elapsed = time.perf_counter() - t0
    return cycles / elapsed, sim


def _measure(builder, cycles, warmup, repeats):
    """Best-of-N cycles/second for one builder, plus the finished sim."""
    best = 0.0
    sim = None
    for _ in range(repeats):
        rate, sim = _measure_once(builder, cycles, warmup)
        best = max(best, rate)
    return best, sim


def bench_pair(name, builders, variants, cycles, warmup, repeats, check):
    """Measure the variants of one design and cross-check equivalence
    (identical per-wire activity counts and identical waveforms, every
    variant against the first).  ``speedup`` is second-vs-first (the
    historical levelized-vs-brute column); when a ``kernel`` variant is
    present, ``kernel_speedup`` is kernel-vs-levelized.

    Repeats interleave across the variants (A B C, A B C, ...) rather
    than running each variant's repeats back to back: shared/throttled
    runners drift over a measurement block, and consecutive repeats
    would systematically tax whichever variant runs last."""
    cps = {v: 0.0 for v in variants}
    sims = {}
    for _ in range(repeats):
        for variant in variants:
            rate, sims[variant] = _measure_once(
                builders[variant], cycles, warmup
            )
            cps[variant] = max(cps[variant], rate)
    a, b = variants[0], variants[1]
    equivalent = True
    if check:
        ref = sims[a]
        equivalent = all(
            sims[v].activity == ref.activity
            and sims[v].waveform.samples == ref.waveform.samples
            for v in variants[1:]
        )
    row = {
        "name": name,
        **{v: cps[v] for v in variants},
        "speedup": cps[b] / cps[a],
        "equivalent": equivalent,
    }
    if "kernel" in cps and "levelized" in cps:
        row["kernel_speedup"] = cps["kernel"] / cps["levelized"]
    return row


def _print_rows(rows, variants, label):
    header = f"{'design':18s}" + "".join(
        f" {v + ' c/s':>14}" for v in variants
    ) + f" {'speedup':>8}"
    has_kernel = "kernel_speedup" in rows[0]
    if has_kernel:
        header += f" {'k/lev':>7}"
    print(header + "  equal")
    for r in rows:
        line = f"{r['name']:18s}" + "".join(
            f" {r[v]:14.0f}" for v in variants
        ) + f" {r['speedup']:7.2f}x"
        if has_kernel:
            line += f" {r['kernel_speedup']:6.2f}x"
        print(line + f"  {'yes' if r['equivalent'] else 'NO'}")
    geo = statistics.geometric_mean(r["speedup"] for r in rows[:-1])
    print(f"\nper-design geomean {label} speedup: {geo:.2f}x")
    print(f"design-sweep {label} speedup:       {rows[-1]['speedup']:.2f}x")
    if has_kernel:
        kgeo = statistics.geometric_mean(
            r["kernel_speedup"] for r in rows[:-1])
        print(f"per-design geomean kernel-vs-levelized: {kgeo:.2f}x")
        print(f"design-sweep kernel-vs-levelized:       "
              f"{rows[-1]['kernel_speedup']:.2f}x")
    return geo


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="short CI run (fewer cycles, one repeat)")
    ap.add_argument("--cycles", type=int, default=None,
                    help="measured cycles per scenario")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="forced worker count for the executor axis "
                    "(default: auto = min(jobs, cores))")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the waveform/activity equivalence checks")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the full result blob (per-design "
                    "cycles/sec for every engine x backend measured) "
                    "as JSON")
    args = ap.parse_args(argv)

    cycles = args.cycles or (200 if args.quick else 1500)
    sweep_cycles = max(cycles // 3, 100)
    warmup = 20 if args.quick else 50
    repeats = 1 if args.quick else 3
    check = not args.no_check
    stim = max(cycles * 2, 500)

    # one resolved config describes the whole run; per-variant builds
    # override only the axis under measurement
    base_cfg = SimConfig(seed=args.seed, stim=stim, cycles=cycles)
    session = Session(base_cfg)
    registry = get_registry()

    # -- engine axis: brute vs levelized vs compiled kernel --------------
    # measured on the pycompiled backend so compiled-FSM interpretation
    # does not mask the settle-engine dispatch this axis isolates
    engine_rows = []
    for name in registry.names("rtl", exclude="sweep"):
        builders = {
            engine: (lambda e=engine, n=name: session.build(
                n, engine=e, backend="pycompiled"))
            for engine in ENGINES
        }
        engine_rows.append(bench_pair(name, builders, ENGINES, cycles,
                                      warmup, repeats, check))
    sweep_builders = {
        engine: (lambda e=engine: session.build(
            "sweep", engine=e, backend="pycompiled"))
        for engine in ENGINES
    }
    engine_rows.append(bench_pair("sweep (all six)", sweep_builders,
                                  ENGINES, sweep_cycles, warmup, repeats,
                                  check))

    print("== engine axis: seed brute-force loop vs levelized "
          "scheduler vs compiled cycle kernel ==")
    _print_rows(engine_rows, ENGINES, "engine")

    # -- backend axis: plan interpreter vs generated Python --------------
    backend_rows = []
    for name in registry.names("anvil", exclude="sweep"):
        builders = {
            backend: (lambda b=backend, n=name: session.build(
                n, backend=b))
            for backend in BACKENDS
        }
        backend_rows.append(bench_pair(name, builders, BACKENDS,
                                       cycles, warmup, repeats, check))
    sweep_builders = {
        backend: (lambda b=backend: session.build("anvil_sweep",
                                                  backend=b))
        for backend in BACKENDS
    }
    backend_rows.append(bench_pair("sweep (all six)", sweep_builders,
                                   BACKENDS, sweep_cycles, warmup,
                                   repeats, check))

    print("\n== backend axis: plan interpreter vs generated Python "
          "(Anvil-only scenarios) ==")
    _print_rows(backend_rows, BACKENDS, "backend")

    # -- the full engine x backend matrix on the Anvil sweep -------------
    print("\n== engine x backend matrix (Anvil sweep, cycles/sec) ==")
    matrix = {}
    matrix_cycles = max(sweep_cycles // 2, 60)
    for engine in ENGINES:
        for backend in BACKENDS:
            cps, _sim = _measure(
                lambda e=engine, b=backend: session.build(
                    "anvil_sweep", engine=e, backend=b),
                matrix_cycles, warmup, 1,
            )
            matrix[f"{engine}/{backend}"] = cps
    print(f"{'':12s} " + " ".join(f"{b:>12}" for b in BACKENDS))
    for engine in ENGINES:
        print(f"{engine:12s} " + " ".join(
            f"{matrix[f'{engine}/{b}']:12.0f}" for b in BACKENDS))

    # -- cpu axis: the y86 pipelined-CPU family across the engines -------
    # control-heavy, data-dependent work (branches, hazards, memory
    # round trips) -- a different shape from the streaming designs the
    # gated engine axis measures.  Recorded in the blob but not gated:
    # the CPU runs a whole second system (the Anvil core plus its
    # memory server) next to the RTL pipeline, so its kernel speedups
    # are not comparable to the engine-axis floors.
    cpu_rows = []
    for name in registry.names("cpu"):
        builders = {
            engine: (lambda e=engine, n=name: session.build(
                n, engine=e, backend="pycompiled"))
            for engine in ENGINES
        }
        cpu_rows.append(bench_pair(name, builders, ENGINES,
                                   sweep_cycles, warmup, repeats, check))

    print("\n== cpu axis: y86 pipelined-CPU scenarios across the "
          "engines (not gated) ==")
    for r in cpu_rows:
        print(f"{r['name']:18s} " + " ".join(
            f"{r[e]:12.0f}" for e in ENGINES)
            + f"  k/lev {r['kernel_speedup']:5.2f}x"
            + f"  {'yes' if r['equivalent'] else 'NO'}")

    # -- executor axis: the 12-family sweep as declarative JobSpecs ------
    print("\n== executor axis: 12-family sweep, build+run per job "
          "(kernel/pycompiled) ==")
    # full per-family cycle counts: each job must carry enough work to
    # amortize pool spawn + result IPC, or the axis only measures
    # overhead (the recorded cpu_count tells small boxes apart).  The
    # sweep runs the fastest configuration -- the harness-sweep shape
    # going forward.
    sweep_names = (registry.names("rtl", exclude="sweep")
                   + registry.names("anvil", exclude="sweep"))
    exec_session = Session(base_cfg.replace(backend="pycompiled",
                                            engine="kernel"))
    executor_rows = {}
    reference_state = None
    for executor in EXECUTORS:
        t0 = time.perf_counter()
        results = exec_session.sweep(sweep_names, executor=executor,
                                     jobs=args.jobs)
        wall = time.perf_counter() - t0
        state = {n: (r.activity, r.waveform.samples)
                 for n, r in results.items()}
        if reference_state is None:
            reference_state = state
        executor_rows[executor] = {
            "seconds": wall,
            "equivalent": (state == reference_state) if check else None,
        }
    serial_wall = executor_rows["serial"]["seconds"]
    print(f"{'executor':10s} {'seconds':>9} {'vs serial':>10}  equal")
    for executor, row in executor_rows.items():
        row["speedup_vs_serial"] = (serial_wall / row["seconds"]
                                    if row["seconds"] else 0.0)
        eq = {True: "yes", False: "NO", None: "-"}[row["equivalent"]]
        print(f"{executor:10s} {row['seconds']:9.3f} "
              f"{row['speedup_vs_serial']:9.2f}x  {eq}")
    cpu_count = os.cpu_count() or 1
    print(f"(cpu_count={cpu_count}, jobs={args.jobs or 'auto'}; the "
          f"process row needs >1 core to beat serial)")

    stats = pysim.cache_stats()
    print(f"\npysim compile cache: {stats['hits']} hits, "
          f"{stats['misses']} misses, {stats['entries']} entries")
    kstats = kernel.cache_stats()
    print(f"cycle-kernel compile cache: {kstats['hits']} hits, "
          f"{kstats['misses']} misses, {kstats['entries']} entries")

    ok = (all(r["equivalent"] for r in engine_rows)
          and all(r["equivalent"] for r in backend_rows)
          and all(r["equivalent"] for r in cpu_rows)
          and all(r["equivalent"] is not False
                  for r in executor_rows.values()))

    if args.json:
        blob = {
            "config": {
                "quick": args.quick,
                "cycles": cycles,
                "sweep_cycles": sweep_cycles,
                "seed": args.seed,
                "repeats": repeats,
                "checked": check,
            },
            # the resolved SimConfig every scenario was elaborated
            # under (per-variant rows override the measured axis; the
            # engine axis and executor sweep additionally pin
            # backend="pycompiled" -- see the module docstring), so the
            # record is self-describing
            "sim_config": base_cfg.to_dict(),
            "engine_axis": engine_rows,
            "backend_axis": backend_rows,
            # recorded for trajectory tracking, not gated (see above)
            "cpu_axis": cpu_rows,
            "executor_axis": {
                "cpu_count": cpu_count,
                "jobs": args.jobs,
                "cycles": cycles,
                "backend": "pycompiled",
                "engine": "kernel",
                "scenarios": sweep_names,
                "executors": executor_rows,
            },
            "anvil_sweep_matrix": matrix,
            "pysim_cache": stats,
            "kernel_cache": kstats,
            # null (not true) when --no-check skipped the comparisons,
            # so an unverified blob can't masquerade as a verified one
            "equivalent": ok if check else None,
        }
        # the embedded config is the same pinned wire schema the server
        # and the CLI speak (SimConfig.to_json/from_json); a blob that
        # stopped round-tripping would silently orphan old records
        assert SimConfig.from_dict(blob["sim_config"]) == base_cfg
        with open(args.json, "w") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not ok:
        print("ERROR: variants disagree on waveforms or activity",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
