"""``python -m repro`` -- the command-line front end over :mod:`repro.api`.

One option layer (``--engine/--backend/--executor/--jobs/--seed/
--cycles/--stim/--trace/--json`` and the checkpoint/watchdog knobs),
resolved into a single :class:`~repro.api.SimConfig` and handed to a
:class:`~repro.api.Session`:

================  ===========================================================
``list-scenarios``  enumerate the scenario registry (names, tags)
``run``             build + run one registered scenario
``sweep``           run many scenarios as one executor sweep
``bench``           cycles/second of the configured engine x backend vs the
                    reference pair, with equivalence checks
``inject``          seeded fault-injection campaign with AVF-style readout
``table1``          Table 1 (area/power/fmax/latency)
``table2``          Table 2 (real-world hazard case studies)
``figures``         Figures 1, 2, 4, 5, 6, 8
``appendix-a``      Appendix A (typecheck vs bounded model checking)
``serve``           long-lived simulation service (:mod:`repro.server`)
================  ===========================================================

``--json`` (optionally ``--json PATH``) emits the machine-readable form
of any subcommand's result; every blob embeds the resolved config so
records are self-describing.  A subcommand exposes (and echoes) only
the config fields its run actually consumes.  Only ``sweep``,
``inject`` and ``serve`` take ``--executor``/``--jobs``: ``run``,
``bench`` and the four harness commands compute in this process, and
the harness commands take just ``--engine``/``--backend``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from typing import Dict, List, Optional

from .api import Session, SimConfig, UnknownScenarioError, get_registry
from .codegen.simfsm import BACKENDS
from .rtl.executors import EXECUTORS
from .rtl.simulator import ENGINES

#: every field of the shared option layer; subcommands that consume
#: only part of the config expose only that part, so the echoed
#: ``--json`` config never claims knobs the run ignored
ALL_FIELDS = ("engine", "backend", "executor", "jobs", "seed", "cycles",
              "stim", "trace", "checkpoint_every", "max_wall_time")
#: a single scenario run has no sweep to execute, so it neither takes
#: nor echoes the executor knobs
RUN_FIELDS = tuple(f for f in ALL_FIELDS
                   if f not in ("executor", "jobs"))
#: bench measures each (scenario, config) in this process, never
#: checkpoints and runs no watchdog -- a restored prefix (or a
#: cancelled repeat) would corrupt the cycles/second it is measuring
BENCH_FIELDS = tuple(f for f in RUN_FIELDS
                     if f not in ("checkpoint_every", "max_wall_time"))
#: a fault campaign forks tails on the configured executor but never
#: renders waveforms or feeds the checkpoint store (it keeps a
#: campaign-local one)
INJECT_FIELDS = tuple(f for f in ALL_FIELDS
                      if f not in ("trace", "checkpoint_every"))
#: what the four harness drivers thread through to their simulations
HARNESS_FIELDS = ("engine", "backend")


# ---------------------------------------------------------------------------
# the shared option layer
# ---------------------------------------------------------------------------
def _add_config_options(parser: argparse.ArgumentParser,
                        fields=ALL_FIELDS):
    g = parser.add_argument_group("simulation config")
    if "engine" in fields:
        g.add_argument("--engine", choices=ENGINES, default=None,
                       help="settle engine: levelized (default), kernel "
                            "(compiled per-topology cycle loops) or "
                            "brute (the seed reference); $REPRO_ENGINE "
                            "overrides the default")
    if "backend" in fields:
        g.add_argument("--backend", choices=BACKENDS, default=None,
                       help="compiled-FSM execution backend "
                            "(default: interp)")
    if "executor" in fields:
        g.add_argument("--executor", choices=EXECUTORS, default=None,
                       help="sweep execution strategy: serial "
                            "(default) or process (multi-core pool of "
                            "picklable JobSpecs); $REPRO_EXECUTOR "
                            "overrides the default")
    if "jobs" in fields:
        g.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="process-pool worker count "
                            "(default: auto)")
    if "seed" in fields:
        g.add_argument("--seed", type=int, default=None,
                       help="stimulus RNG seed (default: 0)")
    if "cycles" in fields:
        g.add_argument("--cycles", type=int, default=None,
                       help="cycles to simulate (default: 1000)")
    if "stim" in fields:
        g.add_argument("--stim", type=int, default=None,
                       help="stimulus depth override")
    if "trace" in fields:
        g.add_argument("--trace", action="store_true", default=False,
                       help="render the ASCII waveform of each run")
    if "checkpoint_every" in fields:
        g.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N", dest="checkpoint_every",
                       help="snapshot the run every N cycles into the "
                            "process-wide checkpoint store and resume "
                            "from the longest matching prefix; "
                            "$REPRO_CHECKPOINT_EVERY overrides the "
                            "default of off")
    if "max_wall_time" in fields:
        g.add_argument("--max-wall-time", type=float, default=None,
                       metavar="SECONDS", dest="max_wall_time",
                       help="wall-clock watchdog: cancel the run with "
                            "an error once it has simulated past this "
                            "budget; $REPRO_MAX_WALL_TIME overrides "
                            "the default of off")
    g.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="emit machine-readable results (to PATH, or "
                        "stdout when no PATH given)")
    parser.set_defaults(config_fields=fields)


def _config_from(args: argparse.Namespace) -> SimConfig:
    overrides: Dict[str, object] = {}
    for field in ("engine", "backend", "executor", "jobs", "seed",
                  "cycles", "stim", "checkpoint_every", "max_wall_time"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "trace", False):
        overrides["trace"] = True
    return SimConfig(**overrides)


def _emit_json(args: argparse.Namespace, payload: object) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}")


def _wrap(args: argparse.Namespace, result: object) -> Dict[str, object]:
    """The self-describing envelope every --json blob shares.  Only the
    config fields this subcommand exposes (and therefore threads into
    the run) are echoed -- the blob never claims a knob the run
    ignored."""
    full = args.sim_config.to_dict()
    return {"config": {k: full[k] for k in args.config_fields},
            "result": result}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_list_scenarios(args) -> int:
    registry = get_registry()
    names = registry.names(args.tag)     # an unknown tag exits 2 in main
    if args.json:
        payload = [
            {"name": s.name, "tags": sorted(s.tags),
             "description": s.description}
            for s in registry if s.name in set(names)
        ]
        _emit_json(args, payload)
        return 0
    width = max(len(n) for n in names) + 2
    for name in names:
        sc = registry.get(name)
        tags = ",".join(sorted(sc.tags))
        print(f"{name:{width}s} [{tags}]  {sc.description}")
    return 0


def cmd_run(args) -> int:
    from .api import run_scenario
    from .errors import SimulationError
    from .rtl.snapshot import load_checkpoint, save_checkpoint

    config = args.sim_config
    if args.checkpoint_dir and not config.checkpoint_every:
        print("error: --checkpoint-dir needs --checkpoint-every (or "
              "$REPRO_CHECKPOINT_EVERY) to produce checkpoints",
              file=sys.stderr)
        return 2

    def write_checkpoint(cycle, snap):
        # each checkpoint also goes to disk, so a fresh process can
        # --resume-from it later
        path = os.path.join(args.checkpoint_dir,
                            f"{args.scenario}-c{cycle}-{snap.key[:12]}.ckpt")
        save_checkpoint(path, snap)
        print(f"checkpoint: {path}", file=sys.stderr)

    try:
        result = run_scenario(
            args.scenario, config,
            resume=(load_checkpoint(args.resume_from)
                    if args.resume_from else None),
            on_checkpoint=write_checkpoint if args.checkpoint_dir else None)
    except (OSError, SimulationError) as exc:
        # unreadable or refused checkpoint files are user-input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(args, result.to_dict(include_activity=args.activity,
                                        include_samples=args.samples))
        return 0
    print(f"scenario {result.scenario}: {result.cycles} cycles in "
          f"{result.seconds:.3f}s ({result.cycles_per_second:,.0f} "
          f"cycles/s)")
    print(f"  engine={config.engine} backend={config.backend} "
          f"seed={config.seed}")
    print(f"  total activity: {result.total_activity} toggles across "
          f"{len(result.activity)} wires, "
          f"{result.diagnostics['modules']} modules")
    if "resumed_from" in result.diagnostics:
        print(f"  resumed from cycle {result.diagnostics['resumed_from']} "
              f"({result.diagnostics['simulated_cycles']} simulated)")
    if result.trace is not None:
        print(result.trace)
    return 0


def cmd_sweep(args) -> int:
    config = args.sim_config
    seeds = None
    if args.seeds:
        seeds = range(config.seed, config.seed + args.seeds)
    results = Session(config).sweep(args.scenarios or None, tag=args.tag,
                                    seeds=seeds)
    if args.json:
        _emit_json(args, _wrap(args, {
            name: r.to_dict() for name, r in results.items()
        }))
        return 0
    total = 0
    for name, r in results.items():
        print(f"{name:18s} {r.cycles:6d} cycles  "
              f"{r.total_activity:10d} toggles")
        total += r.total_activity
    elapsed = next(iter(results.values())).seconds if results else 0.0
    print(f"swept {len(results)} scenarios in {elapsed:.3f}s "
          f"({total} toggles)")
    return 0


def cmd_bench(args) -> int:
    config = args.sim_config
    session = Session(config)
    rows = session.bench(args.scenarios or None, tag=args.tag,
                         warmup=args.warmup, repeats=args.repeats)
    if args.json:
        _emit_json(args, _wrap(args, rows))
    else:
        base = "brute/interp"
        conf = f"{config.engine}/{config.backend}"
        print(f"{'scenario':18s} {base + ' c/s':>16} {conf + ' c/s':>22} "
              f"{'speedup':>8}  equal")
        for r in rows:
            eq = "yes" if r["equivalent"] else "NO"
            print(f"{r['scenario']:18s} "
                  f"{r['baseline']['cycles_per_second']:16.0f} "
                  f"{r['configured']['cycles_per_second']:22.0f} "
                  f"{r['speedup']:7.2f}x  {eq}")
        if len(rows) > 1:
            geo = statistics.geometric_mean(
                r["speedup"] for r in rows if r["speedup"] > 0)
            print(f"geomean speedup: {geo:.2f}x")
    bad = [r for r in rows if not r["equivalent"]]
    if bad:
        print("ERROR: configured run diverges from baseline on: "
              + ", ".join(r["scenario"] for r in bad), file=sys.stderr)
        return 1
    return 0


def cmd_inject(args) -> int:
    from .errors import SimulationError
    from .server.client import JobFailed, ServerClient, ServerError

    config = args.sim_config
    extra = {key: getattr(args, key)
             for key in ("inject_seed", "tail_budget")
             if getattr(args, key) is not None}
    try:
        if args.server:
            host, _, port = args.server.rpartition(":")
            client = ServerClient(host or "127.0.0.1", int(port),
                                  timeout=args.timeout)
            try:
                record = client.submit(
                    args.scenario, kind="inject",
                    config=config.to_dict(), faults=args.faults, **extra)
                if record["state"] != "done":
                    record = client.wait(
                        record["id"], timeout=max(args.timeout, 120.0))
                result = client.result(record["id"])
            finally:
                client.close()
        else:
            result = Session(config).inject_campaign(
                args.scenario, faults=args.faults, **extra)
    except (OSError, SimulationError, ServerError, JobFailed) as exc:
        # TimeoutError is an OSError: a timed-out client path lands
        # here too, with the clear message ServerClient attached
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(args, _wrap(args, result))
        return 0
    golden = result["golden"]
    hist = result["histogram"]
    print(f"scenario {result['scenario']}: {result['faults']} faults "
          f"(inject seed {result['inject_seed']}), golden run "
          f"{golden['cycles']} cycles, tail budget "
          f"{result['tail_budget']}")
    print("  outcomes: " + "  ".join(f"{k}={hist[k]}" for k in hist))
    early = sum(rec["converged_at"] is not None
                for rec in result["outcomes"])
    print(f"  tails stopped early: {early} of {result['faults']} "
          f"(re-converged with the golden run)")
    rows = sorted(result["table"].items(),
                  key=lambda kv: (-kv[1]["vulnerability"], kv[0]))
    shown = rows[:args.top]
    print(f"  most vulnerable sites (top {len(shown)}):")
    for site, row in shown:
        print(f"    {row['vulnerability']:7.2%}  {site}  "
              f"({row['faults']} faults: {row['sdc']} sdc, "
              f"{row['detected']} detected, {row['hang']} hang)")
    return 0


def cmd_table1(args) -> int:
    from .harness.table1 import format_table1

    config = args.sim_config
    rows = Session(config).table1(fast=args.fast)
    if args.json:
        _emit_json(args, _wrap(args, [
            {**row._asdict(), "area_overhead": row.area_overhead,
             "power_overhead": row.power_overhead}
            for row in rows
        ]))
        return 0
    print(format_table1(rows))
    return 0


def cmd_table2(args) -> int:
    config = args.sim_config
    cases = Session(config).table2()
    if args.json:
        _emit_json(args, _wrap(args, cases))
        return 0
    for name, case in cases.items():
        print(f"-- {name}: {case.get('issue', '(section 7.2)')}")
        for key, value in case.items():
            if key != "issue":
                print(f"   {key}: {value}")
    return 0


def cmd_figures(args) -> int:
    config = args.sim_config
    figures = Session(config).figures()
    if args.json:
        _emit_json(args, _wrap(args, figures))
        return 0
    for name, fig in figures.items():
        if isinstance(fig, dict):
            keys = ", ".join(sorted(fig))
            print(f"{name}: {keys}")
        else:
            print(f"{name}: {fig}")
    return 0


def cmd_appendix_a(args) -> int:
    config = args.sim_config
    report = Session(config).appendix_a(fast=args.fast)
    if args.json:
        _emit_json(args, _wrap(args, report))
        return 0
    anvil = report["anvil"]
    print(f"anvil typecheck: {anvil['verdict']} in "
          f"{anvil['seconds'] * 1000:.1f}ms (modular={anvil['modular']})")
    for side in ("bmc_full_width", "bmc_reduced_width"):
        r = report[side]
        print(f"{side}: {r['verdict']} after {r['states_explored']} "
              f"states / depth {r['depth_reached']} "
              f"in {r['seconds']:.2f}s")
    return 0


def cmd_serve(args) -> int:
    config = args.sim_config
    Session(config).serve(
        host=args.host, port=args.port, queue_depth=args.queue_depth,
        workers=args.workers, retry_after=args.retry_after,
        trace_depth=args.trace_buffer)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified front end: scenarios, sweeps, benchmarks "
                    "and the paper harnesses over one SimConfig.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-scenarios",
                       help="enumerate the scenario registry")
    p.add_argument("--tag", default=None,
                   help="only scenarios carrying this tag")
    _add_config_options(p, fields=())
    p.set_defaults(fn=cmd_list_scenarios)

    p = sub.add_parser("run", help="run one registered scenario")
    p.add_argument("scenario", help="a registry name (see list-scenarios)")
    p.add_argument("--activity", action="store_true",
                   help="include per-wire toggle counts in --json output")
    p.add_argument("--samples", action="store_true",
                   help="include waveform samples in --json output")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   dest="checkpoint_dir",
                   help="write each --checkpoint-every boundary snapshot "
                        "to DIR as a .ckpt file (resumable from a fresh "
                        "process with --resume-from)")
    p.add_argument("--resume-from", default=None, metavar="PATH",
                   dest="resume_from",
                   help="restore a .ckpt checkpoint file into a fresh "
                        "deterministic rebuild and simulate only the "
                        "remaining cycles up to --cycles (refused when "
                        "it was taken from another scenario, seed or "
                        "stim, or at or past --cycles)")
    _add_config_options(p, fields=RUN_FIELDS)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run scenarios as one executor sweep")
    p.add_argument("scenarios", nargs="*",
                   help="registry names (default: every non-sweep "
                        "scenario, or those matching --tag)")
    p.add_argument("--tag", default=None)
    p.add_argument("--seeds", type=int, default=0, metavar="N",
                   help="run each scenario under N consecutive seeds "
                        "(starting at --seed)")
    _add_config_options(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="benchmark the configured engine/backend vs the reference")
    p.add_argument("scenarios", nargs="*")
    p.add_argument("--tag", default=None)
    p.add_argument("--warmup", type=int, default=20)
    p.add_argument("--repeats", type=int, default=1)
    _add_config_options(p, fields=BENCH_FIELDS)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "inject",
        help="seeded fault-injection campaign: fork N faults from warm "
             "prefix snapshots, classify masked/sdc/detected/hang")
    p.add_argument("scenario", help="a registry name (see list-scenarios)")
    p.add_argument("--faults", type=int, default=25, metavar="N",
                   help="number of faults to sample (default 25)")
    p.add_argument("--inject-seed", type=int, default=None,
                   dest="inject_seed", metavar="SEED",
                   help="fault-sampling RNG seed (default: --seed, so "
                        "the plan rides the stimulus seed)")
    p.add_argument("--tail-budget", type=int, default=None,
                   dest="tail_budget", metavar="CYCLES",
                   help="absolute cycle budget for each injected tail "
                        "before it classifies as a hang (default: "
                        "2x the golden run + 64)")
    p.add_argument("--top", type=int, default=8, metavar="N",
                   help="vulnerable sites to print (default 8)")
    p.add_argument("--server", default=None, metavar="HOST:PORT",
                   help="submit the campaign to a running repro server "
                        "instead of executing locally")
    p.add_argument("--timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="per-request socket timeout for --server calls "
                        "(default 60)")
    _add_config_options(p, fields=INJECT_FIELDS)
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("table1", help="Table 1: area/power/fmax/latency")
    p.add_argument("--fast", action="store_true",
                   help="skip the activity simulations")
    _add_config_options(p, fields=HARNESS_FIELDS)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="Table 2: hazard case studies")
    _add_config_options(p, fields=HARNESS_FIELDS)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("figures", help="Figures 1, 2, 4, 5, 6, 8")
    _add_config_options(p, fields=HARNESS_FIELDS)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("appendix-a",
                       help="Appendix A: typecheck vs BMC")
    p.add_argument("--fast", action="store_true",
                   help="shrink the BMC budgets (CI smoke)")
    _add_config_options(p, fields=HARNESS_FIELDS)
    p.set_defaults(fn=cmd_appendix_a)

    p = sub.add_parser(
        "serve",
        help="serve the registry as a long-lived simulation service "
             "(HTTP job queue + WebSocket trace streams)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 picks a free one; default 8642)")
    p.add_argument("--queue-depth", type=int, default=16, metavar="N",
                   help="max queued (not yet running) jobs before "
                        "submissions get 429 backpressure (default 16)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="job worker threads sharing the process-wide "
                        "warm compile caches (default 2)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   metavar="SECONDS",
                   help="Retry-After hint sent with 429 (default 1)")
    p.add_argument("--trace-buffer", type=int, default=4096, metavar="N",
                   help="per-job trace ring depth; slow WebSocket "
                        "consumers drop (and are told they dropped) "
                        "deltas beyond this (default 4096)")
    _add_config_options(p, fields=ALL_FIELDS)
    p.set_defaults(fn=cmd_serve)

    return parser


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # SIGTERM takes the same clean-exit path as Ctrl-C.  (The serve
        # subcommand swaps in its own loop-level handlers for a drained
        # shutdown; this covers every batch subcommand.)
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):
        pass                     # non-main thread or exotic platform
    try:
        # building the config surfaces environment-variable garbage
        # before any work starts
        args.sim_config = _config_from(args)
    except ValueError as exc:
        # SimConfig/environment validation errors are user-input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.fn(args)
        # a pipe's reader may leave before the buffered output is
        # written: flush here, where a BrokenPipeError can be handled
        sys.stdout.flush()
        return code
    except UnknownScenarioError as exc:
        # lookup misses name the known scenarios; anything else is a
        # real defect and should traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C / SIGTERM mid-run: a deliberate stop, not a defect --
        # exit with the conventional 130 and no traceback
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout's reader has exited (``| head``): point stdout at
        # devnull so the interpreter's exit-time flush cannot raise
        # again, and exit 141 (128 + SIGPIPE) without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
