"""Bench-regression gate for CI.

Compares a fresh ``benchmarks/bench_simulator.py --json`` blob against
the committed reference (``BENCH_PR5.json``) and fails when the stack
got slower than the committed floors allow:

1. every equivalence flag in the current blob must hold -- an
   unverified (``--no-check``) blob is rejected outright, a divergent
   one doubly so;
2. the engine/backend speedups (per-design geomean and the design-sweep
   row) must stay above ``reference * tolerance`` -- the tolerance
   absorbs CI-runner noise, the reference pins the order of magnitude;
3. the compiled cycle kernel must stay ahead of the levelized engine:
   the per-design geomean of the engine axis' ``kernel_speedup``
   column must clear ``--kernel-floor * --kernel-tolerance`` (1.5x
   target, 0.9 noise fraction) on full runs, and the relaxed absolute
   ``--kernel-quick-floor`` (1.2x) on ``--quick`` blobs, whose
   single-repeat measurements are noisier still;
4. the process executor must beat serial by the multicore floor
   (2x by default), but only for *full* benchmark runs on machines
   that actually have cores to parallelize over (``--min-cores``,
   default 4).  ``--quick`` blobs carry too little work per job for
   the floor to be signal (pool spawn + IPC dominate), so they -- and
   small runners -- gate on the equivalence flags plus a pool-overhead
   sanity bound instead.

Exit codes: 0 pass, 1 regression, 2 unusable input.

Run: python tools/check_bench.py bench.json [--baseline BENCH_PR5.json]
"""

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def axis_speedups(blob, axis):
    """(per-design geomean, sweep-row speedup) of one axis' row list."""
    rows = blob[axis]
    per_design = geomean(r["speedup"] for r in rows[:-1])
    return per_design, rows[-1]["speedup"]


def check_equivalence(blob, failures):
    if blob.get("equivalent") is not True:
        failures.append(
            "current blob is not equivalence-checked or diverged "
            "(equivalent={!r}); run without --no-check".format(
                blob.get("equivalent")
            )
        )
    executors = blob.get("executor_axis", {}).get("executors", {})
    for name, row in executors.items():
        if row.get("equivalent") is not True:
            failures.append(
                "executor {!r} is not bit-identical to serial "
                "(equivalent={!r})".format(name, row.get("equivalent"))
            )


def check_axis_floors(blob, baseline, tolerance, failures):
    for axis in ("engine_axis", "backend_axis"):
        cur_geo, cur_sweep = axis_speedups(blob, axis)
        ref_geo, ref_sweep = axis_speedups(baseline, axis)
        for label, current, reference in (
            ("geomean", cur_geo, ref_geo),
            ("sweep", cur_sweep, ref_sweep),
        ):
            floor = reference * tolerance
            status = "ok" if current >= floor else "REGRESSED"
            print(
                "{:12s} {:8s} speedup {:8.2f}x  floor {:6.2f}x "
                "(reference {:.2f}x * tolerance {:.2f})  {}".format(
                    axis, label, current, floor, reference, tolerance, status
                )
            )
            if current < floor:
                failures.append(
                    "{} {} speedup {:.2f}x fell below the floor "
                    "{:.2f}x".format(axis, label, current, floor)
                )


def check_kernel_floor(blob, target, tolerance, quick_floor, failures):
    """The compiled cycle kernel must beat the levelized engine by the
    committed geomean target across the six design families (the sweep
    row is informational: one giant simulator amortizes differently).

    Like the axis floors, the full-run gate applies a noise tolerance
    to the target -- the committed blob clears 1.5x with little margin,
    and same-run engine ratios still wobble a few percent on shared
    runners.  Quick blobs (single-repeat rows) use their own relaxed
    absolute floor instead."""
    rows = blob.get("engine_axis", [])
    speedups = [r.get("kernel_speedup") for r in rows[:-1]]
    if not speedups or any(s is None for s in speedups):
        failures.append(
            "engine_axis carries no kernel_speedup column -- the blob "
            "predates the kernel engine; rerun the benchmark"
        )
        return
    kgeo = geomean(speedups)
    quick = blob.get("config", {}).get("quick", False)
    if quick:
        floor = quick_floor
        detail = "quick run"
    else:
        floor = target * tolerance
        detail = "target {:.2f}x * tolerance {:.2f}".format(
            target, tolerance
        )
    status = "ok" if kgeo >= floor else "REGRESSED"
    print(
        "kernel-vs-levelized geomean {:.2f}x  floor {:.2f}x ({})  "
        "{}".format(kgeo, floor, detail, status)
    )
    if kgeo < floor:
        failures.append(
            "kernel-vs-levelized geomean {:.2f}x fell below the "
            "{:.2f}x floor".format(kgeo, floor)
        )


def check_executor_floor(blob, min_cores, multicore_floor, failures):
    axis = blob.get("executor_axis")
    if not axis:
        failures.append("current blob has no executor_axis section")
        return
    cpu_count = axis.get("cpu_count", 1)
    process = axis.get("executors", {}).get("process")
    if process is None:
        failures.append("executor_axis has no process row")
        return
    speedup = process.get("speedup_vs_serial", 0.0)
    quick = blob.get("config", {}).get("quick", False)
    if quick:
        # a --quick sweep carries so little work per job that pool
        # spawn + IPC dominate even on big runners -- the full-run
        # floor would be pure noise, so gate quick blobs on the
        # equivalence flags plus a sanity bound only
        status = "ok" if speedup >= 0.2 else "REGRESSED"
        print(
            "process executor speedup {:.2f}x vs serial (quick run, "
            "{} core(s)) -- multi-core floor applies to full runs "
            "only; sanity bound 0.20x  {}".format(
                speedup, cpu_count, status
            )
        )
        if speedup < 0.2:
            failures.append(
                "process executor fell below the quick-run sanity "
                "bound (speedup {:.2f}x)".format(speedup)
            )
        return
    if cpu_count >= min_cores:
        status = "ok" if speedup >= multicore_floor else "REGRESSED"
        print(
            "process executor speedup {:.2f}x vs serial on {} cores  "
            "floor {:.2f}x  {}".format(
                speedup, cpu_count, multicore_floor, status
            )
        )
        if speedup < multicore_floor:
            failures.append(
                "process executor speedup {:.2f}x is below the "
                "multi-core floor {:.2f}x ({} cores)".format(
                    speedup, multicore_floor, cpu_count
                )
            )
    else:
        # a small runner cannot demonstrate parallel speedup; gate on
        # pool overhead staying sane instead of skipping silently
        status = "ok" if speedup >= 0.2 else "REGRESSED"
        print(
            "process executor speedup {:.2f}x vs serial -- only {} "
            "core(s) (< {}), multi-core floor not applicable; sanity "
            "bound 0.20x  {}".format(speedup, cpu_count, min_cores, status)
        )
        if speedup < 0.2:
            failures.append(
                "process executor fell below the single-core sanity "
                "bound (speedup {:.2f}x)".format(speedup)
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh bench_simulator --json blob")
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_PR5.json"),
        help="committed reference blob (default: BENCH_PR5.json)",
    )
    parser.add_argument(
        "--kernel-floor",
        type=float,
        default=1.5,
        help="kernel-vs-levelized geomean target for full runs "
        "(gated at target * --kernel-tolerance)",
    )
    parser.add_argument(
        "--kernel-tolerance",
        type=float,
        default=0.9,
        help="fraction of the kernel target required on full runs "
        "(same-run engine ratios wobble a few percent on shared "
        "runners)",
    )
    parser.add_argument(
        "--kernel-quick-floor",
        type=float,
        default=1.2,
        help="relaxed absolute kernel-vs-levelized floor for --quick "
        "blobs (single-repeat rows are noisier still)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="fraction of the reference speedup required (default 0.4; "
        "CI runners are noisy and share cores)",
    )
    parser.add_argument(
        "--min-cores",
        type=int,
        default=4,
        help="cores required before the multi-core floor applies",
    )
    parser.add_argument(
        "--multicore-floor",
        type=float,
        default=2.0,
        help="required process-vs-serial speedup on >= min-cores cores",
    )
    args = parser.parse_args(argv)

    try:
        blob = json.loads(Path(args.current).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, ValueError) as exc:
        print("error: cannot load blobs: {}".format(exc), file=sys.stderr)
        return 2
    # say which floors come from where: the CI step name references
    # these blobs and must not drift from what the gate actually loads
    print("relative axis floors:  baseline blob {}".format(args.baseline))
    for axis in ("engine_axis", "backend_axis"):
        if axis not in blob or axis not in baseline:
            print(
                "error: blob missing {!r} section".format(axis),
                file=sys.stderr,
            )
            return 2

    failures = []
    check_equivalence(blob, failures)
    check_axis_floors(blob, baseline, args.tolerance, failures)
    check_kernel_floor(
        blob, args.kernel_floor, args.kernel_tolerance,
        args.kernel_quick_floor, failures
    )
    check_executor_floor(
        blob, args.min_cores, args.multicore_floor, failures
    )

    if failures:
        print("\nBENCH GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print("  - {}".format(failure), file=sys.stderr)
        return 1
    print("\nbench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
