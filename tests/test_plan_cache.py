"""The plan cache: ``build_process_plan`` returns the plan of an equal
process planned earlier in this interpreter, and plans anything else
cold.

A hit must be indistinguishable from a cold build in everything the
backends generate from it; two processes that differ in anything the
plan depends on must never share one; and the cache stays bounded and
thread-safe.  (``tests/conftest.py`` empties it around every test.)
"""

import sys
import threading

import pytest

from helpers import tool_module
from repro import Logic, Process, SimConfig, cycle, get_registry, read, set_reg
from repro.codegen.pysim import generate_source
from repro.codegen.simfsm import AnvilProcessModule
from repro.codegen.sysverilog import emit_process
from repro.compile_cache import CAP
from repro.core import fsmplan
from repro.core.fsmplan import build_process_plan, plan_key

FACTORIES = tool_module("frontend_digest").FACTORIES


def _counter(width=8, delay=1, kind="loop"):
    p = Process("counter")
    p.register("r", Logic(width))
    body = set_reg("r", read("r") + 1) >> cycle(delay)
    (p.loop if kind == "loop" else p.recursive)(body)
    return p


def _stats():
    return fsmplan.cache_stats()


def test_a_fresh_factory_build_returns_the_cached_plan():
    from repro.anvil_designs.streams import spill_register

    first = build_process_plan(spill_register())
    assert build_process_plan(spill_register()) is first
    assert _stats() == {"hits": 1, "misses": 1, "entries": 1,
                        "evictions": 0}


@pytest.mark.parametrize("variant", [
    {"width": 9}, {"delay": 2}, {"kind": "recursive"}])
def test_one_difference_gives_a_distinct_plan(variant):
    base = build_process_plan(_counter())
    other = build_process_plan(_counter(**variant))
    assert other is not base
    assert _stats()["misses"] == 2
    if "kind" in variant:
        assert other.threads[0].kind == "recursive"
    if "delay" in variant:
        assert other.threads[0].events[-1].delay == 2


def test_the_optimize_flag_gives_a_distinct_plan():
    optimized = build_process_plan(_counter(), True)
    plain = build_process_plan(_counter(), False)
    assert plain is not optimized
    assert (optimized.optimized, plain.optimized) == (True, False)
    assert build_process_plan(_counter(), False) is plain


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_a_hit_generates_what_a_cold_build_generates(factory):
    cold_py = generate_source(build_process_plan(factory()))
    fsmplan.clear_cache()
    cold_sv = emit_process(factory())
    misses = _stats()["misses"]
    warm_py = generate_source(build_process_plan(factory()))
    warm_sv = emit_process(factory())
    assert _stats()["misses"] == misses      # both were hits
    assert warm_py == cold_py
    assert warm_sv == cold_sv


def test_the_least_recently_used_plan_is_evicted_at_the_cap():
    plans = [build_process_plan(_counter(width=w))
             for w in range(1, CAP + 1)]
    assert _stats()["entries"] == CAP
    assert build_process_plan(_counter(width=1)) is plans[0]   # touched
    build_process_plan(_counter(width=CAP + 1))                # one over
    assert _stats() == {"hits": 1, "misses": CAP + 1, "entries": CAP,
                        "evictions": 1}
    assert build_process_plan(_counter(width=1)) is plans[0]
    assert build_process_plan(_counter(width=2)) is not plans[1]


def test_concurrent_builds_plan_each_process_once():
    config = SimConfig(backend="pycompiled")
    sim = get_registry().build("anvil_streams", config)
    distinct = len({m.process.name for m in sim.modules
                    if isinstance(m, AnvilProcessModule)})
    assert _stats()["misses"] == distinct
    fsmplan.clear_cache()

    barrier = threading.Barrier(8)
    errors = []

    def build():
        try:
            barrier.wait(timeout=30)
            get_registry().build("anvil_streams", config)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)      # switch often: races show sooner
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    stats = _stats()
    assert stats["misses"] == stats["entries"] == distinct
    assert stats["hits"] + stats["misses"] == 8 * distinct


def test_an_unserializable_process_is_planned_cold_every_time():
    process = _counter()
    process.note = lambda: None      # pickle refuses a lambda
    assert plan_key(process, True) is None
    first = build_process_plan(process)
    assert build_process_plan(process) is not first
    assert _stats() == {"hits": 0, "misses": 2, "entries": 0,
                        "evictions": 0}
