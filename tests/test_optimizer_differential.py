"""The unoptimized plan is the optimizer's reference.

Every registry scenario is built from plans made with ``do_optimize=False``
and must reproduce the digest that ``test_scenario_digests.py`` pins for
the optimized plans, on both FSM backends.  The plan cache keys on
``do_optimize``, so the two kinds of plan never share an entry.  At the
pinned seed the optimizer never runs here: a broken optimizer fails
``test_scenario_digests.py``, and a golden regenerated over it fails
this module.

``REPRO_OPT_DIFF_SEEDS`` (say ``1,2,3,4``) adds stimulus seeds the golden
does not pin: at each, the optimized and unoptimized digests of every
scenario must agree.  The default run reads no extra seed.
"""

import os

import pytest

import test_scenario_digests as digests
from repro.api import get_registry
from repro.codegen import simfsm

ENGINE_BACKEND = [("levelized", "interp"), ("kernel", "pycompiled")]
SEEDS = sorted({digests.SEED} | {
    int(s) for s in os.environ.get("REPRO_OPT_DIFF_SEEDS", "").split(",")
    if s.strip()})


def unoptimized(monkeypatch):
    """Make every simulation build compile its processes unoptimized."""
    compile_process = simfsm.compile_process
    monkeypatch.setattr(simfsm, "compile_process",
                        lambda process, do_optimize=True:
                        compile_process(process, False))


@pytest.mark.parametrize("engine,backend", ENGINE_BACKEND)
@pytest.mark.parametrize("name", get_registry().names())
@pytest.mark.parametrize("seed", SEEDS)
def test_unoptimized_plans_run_like_optimized_ones(monkeypatch, seed, name,
                                                   engine, backend):
    if seed == digests.SEED:
        expected = digests._golden()["digests"][name]
    else:
        expected = digests.scenario_digest(name, engine, backend, seed)
    unoptimized(monkeypatch)
    assert digests.scenario_digest(name, engine, backend, seed) == expected
