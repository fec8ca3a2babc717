"""Absolute module state, pinned.

``test_scenario_digests.py`` hashes only wire activity and waveform
samples, so it cannot see the state the shared ``AnvilProcessModule``
bookkeeping keeps between cycles: an activation's fired and dead events
and its slots, the register file, the endpoint queues.  This file pins
:func:`repro.rtl.snapshot.state_sig` of every registry scenario at two
cycle boundaries, as recorded on the reference pair (``brute`` engine,
``interp`` backend), and replays it on the other two pairs the suites
use (``levelized``/``interp`` and ``kernel``/``pycompiled``).

Regenerate the golden only for an intended state change (a
``SNAPSHOT_VERSION`` bump, say), on the reference pair::

    PYTHONPATH=src python tests/test_state_digests.py \\
        > tests/golden/state_digests.json
"""

import json
import os

import pytest

from repro.api import SimConfig, get_registry
from repro.rtl.snapshot import state_sig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "state_digests.json")
SEED, STIM, CYCLES = 0, 400, (37, 150)


def state_sigs(name, engine, backend, seed=SEED, cycles=CYCLES):
    """``state_sig`` of ``name`` at each cycle boundary in ``cycles``."""
    sim = get_registry().build(name, SimConfig(
        engine=engine, backend=backend, seed=seed, stim=STIM))
    out = {}
    for cycle in cycles:
        sim.run(cycle - sim.cycle)
        out[str(cycle)] = state_sig(sim)
    return out


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_registry_scenario():
    golden = _golden()
    assert (golden["seed"], golden["stim"], golden["cycles"]) == (
        SEED, STIM, list(CYCLES))
    assert sorted(golden["state_sigs"]) == sorted(get_registry().names())


@pytest.mark.parametrize("engine,backend", [("levelized", "interp"),
                                            ("kernel", "pycompiled")])
@pytest.mark.parametrize("name", get_registry().names())
def test_module_state_matches_the_pinned_signature(name, engine, backend):
    assert state_sigs(name, engine, backend) \
        == _golden()["state_sigs"][name]


if __name__ == "__main__":
    print(json.dumps({
        "engine": "brute", "backend": "interp",
        "seed": SEED, "stim": STIM, "cycles": list(CYCLES),
        "state_sigs": {name: state_sigs(name, "brute", "interp")
                       for name in get_registry().names()},
    }, indent=2, sort_keys=True))
