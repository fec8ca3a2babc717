"""Absolute simulation results, pinned.

Every engine and backend equivalence suite runs the same
``AnvilProcessModule``/``ExternalEndpoint`` bookkeeping on both sides,
so none of them can see a change to that shared code.  This file pins
what every registry scenario produces -- a SHA-256 over its per-wire
activity counts and waveform samples -- as recorded on the reference
pair (``brute`` engine, ``interp`` backend), and replays it on the fast
pair (``kernel``, ``pycompiled``).

Regenerate the golden (only when a change is *meant* to alter
simulation results) on the reference pair::

    PYTHONPATH=src python tests/test_scenario_digests.py \\
        > tests/golden/scenario_digests.json
"""

import hashlib
import json
import os

import pytest

from repro.api import SimConfig, get_registry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "scenario_digests.json")
SEED, STIM, CYCLES = 0, 400, 300


def scenario_digest(name, engine, backend, seed=SEED):
    """SHA-256 over ``name``'s activity counts and waveform samples
    after ``CYCLES`` cycles."""
    sim = get_registry().build(name, SimConfig(
        engine=engine, backend=backend, seed=seed, stim=STIM,
        cycles=CYCLES))
    sim.run(CYCLES)
    blob = json.dumps({
        "activity": sorted([m, w, n] for (m, w), n in sim.activity.items()),
        "samples": sorted(sim.waveform.samples.items()),
    }, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_registry_scenario():
    golden = _golden()
    assert (golden["seed"], golden["stim"], golden["cycles"]) == (
        SEED, STIM, CYCLES)
    assert sorted(golden["digests"]) == sorted(get_registry().names())


@pytest.mark.parametrize("name", get_registry().names())
def test_fast_path_reproduces_the_pinned_digest(name):
    assert scenario_digest(name, "kernel", "pycompiled") \
        == _golden()["digests"][name]


if __name__ == "__main__":
    print(json.dumps({
        "engine": "brute", "backend": "interp",
        "seed": SEED, "stim": STIM, "cycles": CYCLES,
        "digests": {name: scenario_digest(name, "brute", "interp")
                    for name in get_registry().names()},
    }, indent=2, sort_keys=True))
