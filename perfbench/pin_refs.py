"""Regenerate ``refs.json``: the outputs the benchmark checks against,
produced by the ``brute`` engine with the ``interp`` backend (the
reference pair every faster engine and backend is pinned to).

    python3 perfbench/pin_refs.py

Run it from the root of a checkout after a change that is meant to
alter simulated behaviour; it takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

from checks import (
    CLI_COMMANDS,
    REF_SEEDS,
    REFS_PATH,
    SIM_CHECK_CYCLE,
    SIM_STIM,
    sim_digest,
)
from run import ROOT, child_env

BRUTE = ["--engine", "brute", "--backend", "interp"]


def brute_cli(kind: str, seed: int):
    """The checked output of one CLI command, run on brute/interp."""
    argv = list(CLI_COMMANDS[kind])
    for flag in ("--engine", "--backend"):
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, *BRUTE, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), text=True, capture_output=True,
        check=True)
    payload = json.loads(proc.stdout)
    if kind == "sweep_anvil":
        return {name: [r["cycles"], r["total_activity"]]
                for name, r in payload["result"].items()}
    return {"cycles": payload["cycles"], "digest": sim_digest(
        payload["activity"], payload["samples"], payload["cycles"])}


def brute_simulate(name: str, seed: int) -> str:
    """The digest the simulate workload checks at its check cycle."""
    from repro import Session, SimConfig

    sim = Session(SimConfig(engine="brute", backend="interp", seed=seed,
                            stim=SIM_STIM)).build(name)
    sim.run(SIM_CHECK_CYCLE[name])
    activity = {f"{m}/{w}": n for (m, w), n in sim.activity.items()}
    return sim_digest(activity, sim.waveform.samples, SIM_CHECK_CYCLE[name])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    refs = {"simulate": {}, "cli": {}}
    for name in SIM_CHECK_CYCLE:
        refs["simulate"][name] = {
            str(s): brute_simulate(name, s) for s in range(REF_SEEDS)}
    for kind in CLI_COMMANDS:
        if kind != "table2":
            refs["cli"][kind] = {
                str(s): brute_cli(kind, s) for s in range(REF_SEEDS)}
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
