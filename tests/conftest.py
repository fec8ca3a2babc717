"""Test configuration: make the tests/ directory importable (helpers.py)
and isolate process-wide state between tests."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _fresh_process_wide_stores():
    """The warm-prefix checkpoint store is a process-wide singleton;
    under ``REPRO_CHECKPOINT_EVERY`` every ``Session.run`` feeds it, and
    a prefix left by one test would let a later test resume instead of
    simulating (e.g. turning a deliberately-slow scenario instant and
    defeating an in-flight coalescing assertion).  The plan cache is
    one too: a plan left by one test, with its pysim backend memo,
    would let a later test skip planning and the pysim source cache.
    Reset both around every test so reuse only ever happens within one
    test."""
    from repro.core.fsmplan import clear_cache as clear_plan_cache
    from repro.rtl.snapshot import reset_checkpoint_store

    reset_checkpoint_store()
    clear_plan_cache()
    yield
    reset_checkpoint_store()
    clear_plan_cache()
