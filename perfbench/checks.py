"""Output checks and the references they compare against.

Nothing here imports ``repro``: the references are the paper's Table 2
verdicts and digests pinned from the ``brute`` engine (the bit-exact
reference the other engines are held to) by ``pin_refs.py``, so the
code under test never produces the answer it is checked against.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

#: Table 2 / Section 7.2 verdicts as the paper states them: every unsafe
#: formulation rejected with these error kinds, every safe one accepted
#: with its handshake wires generated, the stream FIFO losing data only
#: in the hand-written baseline
CASE_EXPECT = {
    "opentitan": {"unsafe_rejected": True, "safe_accepted": True,
                  "error_kinds": ["Attempted assignment to a loaned register"]},
    "coyote": {"unsafe_rejected": True, "safe_accepted": True,
               "error_kinds": ["Attempted assignment to a loaned register",
                               "Invalid message send"]},
    "ibex": {"safe_accepted": True, "valid_generated": True,
             "ack_generated": True},
    "snax": {"safe_accepted": True, "both_operand_acks_generated": True},
    "core2axi": {"safe_accepted": True, "w_valid_generated": True},
    "stream_fifo": {"baseline_data_lost": True, "anvil_data_lost": False,
                    "anvil_guard_enforced_by_construction": True},
}

#: brute references are pinned for this many stimulus seeds; a run's
#: seed picks one of them (seed mod N)
REF_SEEDS = 8

#: simulate: cycles per window, and the window boundary at which the
#: activity and waveform prefix are checked against brute (a worker's
#: first rounds reach it)
SIM_WINDOW = {"sweep": 300, "anvil_sweep": 200}
SIM_CHECK_CYCLE = {"sweep": 900, "anvil_sweep": 400}
#: stimulus depth, above any cycle count a worker reaches, so no window
#: idles on a drained queue
SIM_STIM = 20000

#: cli: the four commands (the README and ROADMAP forms, plus --json so
#: their outputs can be checked); all but table2 take the run's seed
CLI_COMMANDS = {
    "run_anvil_aes": ["run", "anvil_aes", "--backend", "pycompiled",
                      "--cycles", "500", "--json", "--activity",
                      "--samples"],
    "sweep_anvil": ["sweep", "--tag", "anvil", "--cycles", "200", "--json"],
    "run_y86_sum": ["run", "y86_sum", "--engine", "kernel", "--backend",
                    "pycompiled", "--json", "--activity", "--samples"],
    "table2": ["table2", "--json"],
}


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def ref_seed(seed: int) -> int:
    return seed % REF_SEEDS


def cli_argv(kind: str, seed: int) -> list:
    argv = list(CLI_COMMANDS[kind])
    if kind != "table2":
        argv += ["--seed", str(ref_seed(seed))]
    return argv


def sim_digest(activity: dict, samples: dict, upto: int) -> str:
    """Digest of per-wire toggle counts (``"module/wire"`` keys) and the
    first ``upto`` waveform samples of every watched signal."""
    h = hashlib.sha256()
    h.update(json.dumps(sorted(activity.items())).encode())
    h.update(json.dumps(sorted((k, list(v[:upto]))
                               for k, v in samples.items())).encode())
    return h.hexdigest()[:16]


def arch_digest(state) -> str:
    """The campaign's published golden-state digest, recomputed from an
    ISA-reference :class:`~repro.isa.reference.ArchState`."""
    h = hashlib.sha256()
    h.update(",".join(map(str, state.registers)).encode())
    h.update(f"|{state.zf}{state.sf}{state.of}|{state.pc}|{state.stat}|"
             f"{state.instret}|".encode())
    h.update(bytes(state.memory))
    return h.hexdigest()[:16]


def check_case(name: str, out) -> str:
    """'' when one Table 2 case's output carries the paper's verdicts,
    else the mismatch."""
    want = CASE_EXPECT[name]
    got = {k: (out or {}).get(k) for k in want}
    return "" if got == want else f"table2 {name}: {got} != {want}"


def check_cli_output(kind: str, seed: int, stdout: str, refs: dict) -> str:
    """'' when a CLI command's ``--json`` output matches its brute
    reference (or, for table2, the paper's verdicts), else the
    mismatch."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"{kind}: output is not JSON"
    if kind == "table2":
        return next((why for why in (check_case(name, payload["result"]
                                                .get(name))
                                     for name in CASE_EXPECT) if why), "")
    want = refs["cli"][kind][str(ref_seed(seed))]
    if kind == "sweep_anvil":
        got = {name: [r["cycles"], r["total_activity"]]
               for name, r in payload["result"].items()}
    else:
        got = {"cycles": payload["cycles"], "digest": sim_digest(
            payload["activity"], payload["samples"], payload["cycles"])}
    return "" if got == want else f"{kind}: output {got} != brute {want}"
