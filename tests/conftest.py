"""Test configuration: make the tests/ directory importable (helpers.py)
and isolate process-wide state between tests."""

import itertools
import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import compile_cache  # noqa: E402

# outside a test the compile caches' disk tier is off, whatever Python's
# bytecode-cache settings say, so tier-1 runs alike with and without
# PYTHONDONTWRITEBYTECODE
compile_cache.set_disk_dir(None)
_TEST_NUMBER = itertools.count()


@pytest.fixture(scope="session")
def _compile_cache_root():
    root = tempfile.mkdtemp(prefix="repro-compile-cache-")
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(autouse=True)
def _fresh_process_wide_stores(_compile_cache_root, monkeypatch):
    """The warm-prefix checkpoint store is a process-wide singleton;
    under ``REPRO_CHECKPOINT_EVERY`` every ``Session.run`` feeds it, and
    a prefix left by one test would let a later test resume instead of
    simulating (e.g. turning a deliberately-slow scenario instant and
    defeating an in-flight coalescing assertion).  The plan cache is
    one too: a plan left by one test, with its pysim backend memo,
    would let a later test skip planning and the pysim source cache.
    Reset both around every test so reuse only ever happens within one
    test.

    The compile caches' disk tier gets a directory of the test's own,
    removed after it, so no entry outlives its test.  Interpreters a
    test starts get none: ``PYTHONDONTWRITEBYTECODE`` turns their tier
    off (they still read the bytecode this one cached)."""
    from repro.core.fsmplan import clear_cache as clear_plan_cache
    from repro.rtl.snapshot import reset_checkpoint_store

    disk = os.path.join(_compile_cache_root, str(next(_TEST_NUMBER)))
    compile_cache.set_disk_dir(disk)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    reset_checkpoint_store()
    clear_plan_cache()
    yield
    reset_checkpoint_store()
    clear_plan_cache()
    compile_cache.set_disk_dir(None)
    shutil.rmtree(disk, ignore_errors=True)
