"""Absolute simulation results, pinned.

Every engine and backend equivalence suite runs the same
``AnvilProcessModule``/``ExternalEndpoint`` bookkeeping on both sides,
so none of them can see a change to that shared code.  This file pins
what every registry scenario produces -- a SHA-256 over its per-wire
activity counts and waveform samples -- as recorded on the reference
pair (``brute`` engine, ``interp`` backend), and replays it on the fast
pair (``kernel``, ``pycompiled``).

The two pairs must also agree on the module state (``state_sig``) of
``anvil_sweep`` and ``y86_sum`` at every cycle boundary up to 150; a
mismatch names the cycle, the module and the attribute.

``REPRO_DIGEST_SEEDS`` (say ``1,2,3,4``) adds stimulus seeds the golden
does not pin: at each, the two pairs must agree on every scenario's
digest and on its module state at cycle 150, and on the state of the
two scenarios above at every cycle boundary.  The default run reads no
extra seed.

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
from repro.rtl.snapshot import capture, state_sig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "scenario_digests.json")
SEED, STIM, CYCLES = 0, 400, 300
EXTRA_SEEDS = sorted({
    int(s) for s in os.environ.get("REPRO_DIGEST_SEEDS", "").split(",")
    if s.strip()} - {SEED})


def _build(name, engine, backend, seed):
    return get_registry().build(name, SimConfig(
        engine=engine, backend=backend, seed=seed, stim=STIM,
        cycles=CYCLES))


def scenario_digest(name, engine, backend, seed=SEED):
    """SHA-256 over ``name``'s activity counts and waveform samples
    after ``CYCLES`` cycles."""
    sim = _build(name, engine, backend, seed)
    sim.run(CYCLES)
    return _digest(sim)


def _digest(sim):
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


def _state_and_digest(name, engine, backend, seed):
    sim = _build(name, engine, backend, seed)
    sim.run(150)
    sig = state_sig(sim)
    sim.run(CYCLES - 150)
    return sig, _digest(sim)


@pytest.mark.parametrize("seed,name", [
    (seed, name) for seed in EXTRA_SEEDS for name in get_registry().names()])
def test_fast_path_agrees_with_the_reference_at_unpinned_seeds(seed, name):
    assert _state_and_digest(name, "kernel", "pycompiled", seed) \
        == _state_and_digest(name, "brute", "interp", seed)


def _first_difference(ref, fast):
    """``module.attribute`` of the first plain-data attribute in which
    two builds of one scenario differ, or ``None``."""
    for m, a, b in zip(ref.modules, capture(ref).module_state,
                       capture(fast).module_state):
        a, b = dict(a), dict(b)
        for attr in sorted(a.keys() | b.keys()):
            if a.get(attr) != b.get(attr):
                return f"{m.name}.{attr}"
    return None


@pytest.mark.parametrize("seed", [SEED, *EXTRA_SEEDS])
@pytest.mark.parametrize("name", ["anvil_sweep", "y86_sum"])
def test_fast_path_state_agrees_with_the_reference_at_every_cycle(
        name, seed):
    ref = get_registry().build(name, SimConfig(
        engine="levelized", backend="interp", seed=seed, stim=STIM))
    fast = get_registry().build(name, SimConfig(
        engine="kernel", backend="pycompiled", seed=seed, stim=STIM))
    for cycle in range(151):
        ref.run(cycle - ref.cycle)
        fast.run(cycle - fast.cycle)
        if state_sig(ref) != state_sig(fast):
            pytest.fail(f"{name}, seed {seed}: module state differs at "
                        f"cycle {cycle} in {_first_difference(ref, fast)}")


if __name__ == "__main__":
    print(json.dumps({
        "engine": "brute", "backend": "interp",
        "seed": SEED, "stim": STIM, "cycles": CYCLES,
        "digests": {name: scenario_digest(name, "brute", "interp")
                    for name in get_registry().names()},
    }, indent=2, sort_keys=True))
