"""Benchmark of the Anvil reproduction: type checking, simulation, fault
campaigns and the CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; it needs nothing but the
Python standard library and the sources under ``src/``.  Each workload
runs in fresh interpreters spawned from this process
(``perfbench/workloads.py``, or ``python -m repro`` itself for ``cli``),
so set-up is measured the way a user pays it.  Every op's output is
checked against references the code under test did not produce.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (tracing off); with ``--trace 1`` they
are the per-layer ones from a traced run, which also writes its spans
to ``.perfbench_cache/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CLI_COMMANDS, check_cli_output, cli_argv, load_refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

WORKLOADS = ("typecheck", "simulate", "campaign", "cli")
#: a worker runs a fixed number of whole rounds of its ops (a typecheck
#: pass over every design, one window per simulate scenario, one
#: campaign per pool entry), never "until the clock runs out": later
#: rounds run warmer, so on a fast host an extra round would read faster
#: still.  Rounds per worker, and the nominal seconds a round takes on
#: the 2-CPU machine the benchmark was tuned on, from which --seconds
#: sets the number of workers.  Each worker is a fresh process with its
#: own speed, so more workers with fewer rounds each spread less.
ROUNDS = {"typecheck": 1, "simulate": 22, "campaign": 1}
ROUND_S = {"typecheck": 2.5, "simulate": 0.23, "campaign": 5.0}
#: fresh ``python -m repro list-scenarios`` launches per cli run: the
#: import floor every command pays, which is the cli set-up time
CLI_SETUP_SAMPLES = 5
#: the cli commands behind the end-to-end metrics.  ``sweep --tag
#: anvil`` is timed only in the traced run (``cli.sweep_anvil_ms``): one
#: takes ~4 s, its wall time moved 15-20% between fresh processes even
#: after host scaling, and at most 3 fit in a run, which left cli's
#: work_per_s spread at 13-18% across runs
CLI_TIMED = ("run_anvil_aes", "run_y86_sum", "table2")
#: ``-X importtime`` launches per traced run for the numpy share
IMPORTTIME_SAMPLES = 3
#: a worker or command that takes longer than this is stuck
CHILD_TIMEOUT_S = 150
#: end-to-end timings are reported scaled to a host on which the probe
#: takes this long (see probe_ms)
PROBE_REF_MS = 4.0


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares: the one list of what a run
    reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def probe_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop, taken just before and
    just after each op and each set-up.  It moves with host speed and
    never with the program, so dividing a timing by it removes the host
    drift of a shared machine (8-20% within a minute) but no change the
    program makes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def host_scaled(value: float, probe: float) -> float:
    """A timing scaled to the reference host speed."""
    return value * PROBE_REF_MS / probe


def child_env() -> dict:
    """The environment of every child: the checkout's sources, bytecode
    cached inside the checkout, a fixed hash seed, and none of the
    caller's ``PYTHON*`` settings or ``REPRO_*`` overrides, which would
    change what a command runs or how fast it starts."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(CACHE / "pycache"))
    return env


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def spawn_worker(spec: dict):
    """Run one worker to completion; returns ``(setup, result)``.
    Set-up is the time from the spawn to the worker's ``READY`` line,
    as ``(seconds, probe_ms)``: the host reading is the mean of the
    probes just before the spawn and just after ``READY``."""
    cmd = [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)]
    probe = probe_ms()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError(f"{spec['workload']} worker timed out")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{spec['workload']} worker exited "
                         f"{proc.returncode} ({first.strip()!r})")
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
            return (setup_s, (probe + result["ready_probe_ms"]) / 2), result
    raise BenchError(f"{spec['workload']} worker printed no result")


def workers(workload: str, seconds: float) -> int:
    """How many workers measure about ``seconds`` of ops."""
    return max(1, round(seconds / (ROUNDS[workload] * ROUND_S[workload])))


def run_workers(workload: str, seed: int, seconds: float, trace: bool):
    """The worker plan of one run, plus, for typecheck, one worker for
    the Y86 verdict."""
    modes = ["main"] * workers(workload, seconds)
    if workload == "typecheck":
        modes.insert(0, "y86")
    setups, results = [], []
    for mode in modes:
        setup, result = spawn_worker({
            "workload": workload, "seed": seed, "trace": trace,
            "mode": mode, "rounds": ROUNDS[workload]})
        result["mode"] = mode
        setups.append(setup)
        results.append(result)
    return setups, results


def repro_command(argv: list, launcher=()) -> tuple:
    """One fresh ``python -m repro`` process: ``(wall_ms, completed)``."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *(launcher or ["-m", "repro"]),
                               *argv],
                              cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return (time.perf_counter() - t0) * 1e3, exc
    return (time.perf_counter() - t0) * 1e3, proc


def cli_op(kind: str, seed: int, refs: dict, launcher=()) -> dict:
    """Time one CLI command; a non-zero exit or wrong output fails it.
    ``launcher`` runs the command some other way than ``-m repro``."""
    before = probe_ms()
    ms, proc = repro_command(cli_argv(kind, seed), launcher)
    op = {"kind": kind, "ms": ms, "work": 1, "ok": True, "error": None,
          "probe_ms": (before + probe_ms()) / 2}
    if isinstance(proc, subprocess.TimeoutExpired):
        op["ok"], op["error"] = False, f"{kind}: timed out"
    elif proc.returncode != 0:
        op["ok"], op["error"] = False, (f"{kind}: exit {proc.returncode}: "
                                        f"{proc.stderr.strip()[-300:]}")
    else:
        why = check_cli_output(kind, seed, proc.stdout, refs)
        if why:
            op["ok"], op["error"] = False, why
    return op


def cli_rounds(seed: int, seconds: float, refs: dict, kinds,
               each=None) -> list:
    """Whole rounds of the given commands, in seed order, until the
    budget is spent; ``each(kind)`` runs after every command."""
    rng = random.Random(seed)
    ops = []
    t_end = time.perf_counter() + seconds
    while True:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            ops.append(cli_op(kind, seed, refs))
            if each is not None:
                each(kind)
        if time.perf_counter() >= t_end:
            return ops


def cli_setups() -> list:
    """cli set-up samples: fresh ``list-scenarios`` runs, each as
    ``(seconds, probe_ms)``."""
    samples = []
    for _ in range(CLI_SETUP_SAMPLES):
        before = probe_ms()
        ms, proc = repro_command(["list-scenarios"])
        if isinstance(proc, subprocess.TimeoutExpired) or proc.returncode:
            raise BenchError("python -m repro list-scenarios failed")
        samples.append((ms / 1e3, (before + probe_ms()) / 2))
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values)) if values \
        else 0.0


def kind_medians(ops: list) -> dict:
    """Median host-scaled latency of each op kind's completed ops."""
    by_kind: dict = {}
    for op in ops:
        if op["ok"]:
            by_kind.setdefault(op["kind"], []).append(
                host_scaled(op["ms"], op["probe_ms"]))
    return {k: statistics.median(v) for k, v in by_kind.items()}


def end_to_end(setups: list, ops: list) -> dict:
    """The end-to-end metrics, every timing host-scaled.

    ``op_ms`` is the geometric mean, over op kinds, of each kind's
    median latency: the kinds differ by orders of magnitude, so one
    median over all ops would sit on whichever kind happens to straddle
    the middle.  The Y86 verdict is left out of ``op_ms`` and
    ``work_per_s`` (it still counts as attempted, and sets typecheck's
    peak memory): it is one 20 s op per run, longer than the host drifts
    in, so the probe taken before it cannot scale it, and its spread
    across runs was 20%."""
    timed = [op for op in ops if op["kind"] != "y86"]
    timed_s = sum(host_scaled(op["ms"], op["probe_ms"])
                  for op in timed) / 1e3
    return {
        "setup_s": statistics.median(host_scaled(s, p) for s, p in setups),
        "op_ms": geomean(kind_medians(timed).values()),
        "work_per_s": sum(op["work"] for op in timed if op["ok"]) / timed_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def reduce_samples(name: str, samples: list) -> float:
    """Samples are values (reported as their median) or
    ``[numerator, denominator]`` pairs (reported as the ratio of
    sums); ``rtl.window_ms_p90`` is the 90th percentile."""
    if not samples:
        return 0.0
    if isinstance(samples[0], list):
        den = sum(d for _n, d in samples)
        return sum(n for n, _d in samples) / den if den else 0.0
    if name == "rtl.window_ms_p90":
        return statistics.quantiles(samples, n=10)[-1] \
            if len(samples) > 1 else samples[0]
    return statistics.median(samples)


def numpy_import_ms() -> list:
    """numpy's cumulative import time under ``repro.rtl.kernel``, from
    ``-X importtime`` in fresh interpreters (0 once numpy is gone)."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.rtl.kernel"], cwd=ROOT, env=child_env(),
            text=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        us = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
              if line.startswith("import time:")
              and line.split("|")[2].strip() == "numpy"]
        samples.append(us[0] / 1e3 if us else 0.0)
    return samples


def traced_run(workload: str, seed: int, seconds: float, refs: dict):
    """Per-layer samples, every op, and the spans to write out."""
    layers: dict = {}
    traces = []

    def merge(found: dict) -> None:
        for name, samples in found.items():
            layers.setdefault(name, []).extend(samples)

    if workload == "cli":
        # every command runs untraced, then traced in the launcher
        out = CACHE / f"cli-trace-{os.getpid()}.json"
        twins = []

        def traced_twin(kind):
            spec = {"workload": "cli-trace", "seed": seed, "out": str(out)}
            twins.append(cli_op(kind, seed, refs, launcher=[
                str(HERE / "workloads.py"), json.dumps(spec)]))
            if not out.exists():         # the launcher died: a failed op
                return
            found = json.loads(out.read_text())
            out.unlink()
            merge(found["layers"])
            merge({"repro.import_ms": [found["import_ms"]]})
            traces.append({"kind": kind, "spans": found["spans"]})

        plain = cli_rounds(seed, seconds, refs, CLI_COMMANDS,
                           each=traced_twin)
        for op in plain:
            merge({f"cli.{op['kind']}_ms": [op["ms"]]})
        traced_ops = twins
    else:
        _setups, results = run_workers(workload, seed, seconds, True)
        _setup, worker = spawn_worker({
            "workload": workload, "seed": seed, "trace": False,
            "mode": "main", "rounds": ROUNDS[workload]})
        plain = worker["ops"]
        for r in results:
            merge(r["layers"])
            merge({"repro.import_ms": [r["import_ms"]]})
            traces.append({"mode": r["mode"], "ops": r["ops"],
                           "spans": r["spans"]})
        traced_ops = [op for r in results for op in r["ops"]]
    ops = traced_ops + plain
    traced = kind_medians(traced_ops)
    untraced = kind_medians(plain)
    shared = sorted(set(traced) & set(untraced))
    overhead = (geomean(traced[k] for k in shared)
                / geomean(untraced[k] for k in shared) - 1) * 100 \
        if shared else 0.0
    merge({"repro.numpy_import_ms": numpy_import_ms(),
           "host.probe_ms": [op["probe_ms"] for op in ops],
           "trace.overhead_pct": [overhead]})
    return layers, ops, traces


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def report(metrics: dict, units: dict, ops: list, notes: list) -> dict:
    """Print the notes and failed ops; return the result line."""
    failed = [op for op in ops if not op["ok"]]
    print(f"cpu_count={os.cpu_count()} python={sys.version.split()[0]} "
          f"git_sha={git_sha()}")
    for note in notes:
        print(note)
    for op in failed[:20]:
        print(f"FAILED {op['kind']}: {op['error']}")
    return {"correct": not failed, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": metrics.get(name, 0.0),
                               "unit": unit}
                        for name, unit in units.items()}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    CACHE.mkdir(exist_ok=True)
    refs = load_refs()
    if trace:
        units = metric_units("per_layer")
        layers, ops, traces = traced_run(workload, seed, seconds, refs)
        path = CACHE / f"trace-{workload}-s{seed}.json"
        path.write_text(json.dumps(traces))
        metrics = {name: reduce_samples(name, layers.get(name, []))
                   for name in units}
        notes = [f"spans: {path}"] + [
            f"{name}: {metrics[name]:.6g} {unit} "
            f"(n={len(layers.get(name, []))})" for name, unit in units.items()]
        return report(metrics, units, ops, notes)
    if workload == "cli":
        setups = cli_setups()
        ops = cli_rounds(seed, seconds, refs, CLI_TIMED)
    else:
        setups, results = run_workers(workload, seed, seconds, False)
        ops = [op for r in results for op in r["ops"]]
    metrics = end_to_end(setups, ops)
    medians = kind_medians(ops)
    probe = statistics.median(o["probe_ms"] for o in ops)
    notes = [f"host.probe_ms: median {probe:.4f} over {len(ops)} ops "
             f"(timings below are scaled to {PROBE_REF_MS} ms)",
             f"setup_s: median of {len(setups)} fresh interpreters, raw "
             f"{[round(s, 4) for s, _p in setups]}",
             "op_ms: geomean of these kind medians"
             + (" (y86 left out):" if "y86" in medians else ":"),
             *(f"  {k}: {v:.3f} ms (n={sum(o['kind'] == k for o in ops)})"
               for k, v in sorted(medians.items())),
             f"work_per_s: {sum(o['work'] for o in ops if o['ok'])} units "
             f"in {sum(o['ms'] for o in ops) / 1e3:.3f} s raw timed wall"]
    return report(metrics, metric_units("end_to_end"), ops, notes)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree (git
    is kept from searching the directories above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
