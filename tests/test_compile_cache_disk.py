"""The compile caches' disk tier (``repro.compile_cache``): a plan is
loaded from its pickle and a code object from its marshal image on an
in-memory miss, and a build that does run writes what it made.

A build warm from disk must be indistinguishable from a cold one; an
entry this compiler did not write exactly as it stands (stale digest,
foreign magic number, truncated, corrupt) is skipped, counted and
rewritten; nothing is written where Python's bytecode-cache settings
say not to, or where the directory cannot be written, and neither case
raises.  (``tests/conftest.py`` gives each test a directory of its
own.)
"""

import importlib.util
import json
import os
import subprocess
import sys
import threading

import pytest

from helpers import tool_module
from repro import Logic, Process, SimConfig, cycle, get_registry, read, set_reg
from repro import compile_cache
from repro.codegen import pysim
from repro.codegen.sysverilog import emit_process
from repro.core import fsmplan
from repro.core.fsmplan import build_process_plan
from repro.rtl import kernel
from test_scenario_digests import scenario_digest

FACTORIES = tool_module("frontend_digest").FACTORIES
with open(os.path.join(os.path.dirname(__file__), "golden",
                       "scenario_digests.json")) as _golden:
    SCENARIO_DIGESTS = json.load(_golden)["digests"]
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _counter(width=8):
    p = Process("counter")
    p.register("r", Logic(width))
    p.loop(set_reg("r", read("r") + 1) >> cycle(1))
    return p


def _clear_memory():
    fsmplan.clear_cache()
    pysim.clear_cache()
    kernel.clear_cache()


@pytest.fixture(autouse=True)
def _cold_memory():
    """Start every test with all three memory tiers empty (the conftest
    empties only the plan cache), so each build here reaches the disk
    tier."""
    _clear_memory()


def _entries():
    """``{file name: bytes}`` of the live directory (none when the
    directory was never made)."""
    live = compile_cache.disk_tier().live_dir()
    if not os.path.isdir(live):
        return {}
    entries = {}
    for name in os.listdir(live):
        with open(os.path.join(live, name), "rb") as f:
            entries[name] = f.read()
    return entries


def _disk(stats):
    return {k: stats[k] for k in ("disk_hits", "disk_misses",
                                  "disk_rejected")}


def _front_end(factory):
    """Everything a backend generates from the plan of ``factory()``."""
    process = factory()
    plan = build_process_plan(process)
    return {
        "pysim": pysim.generate_source(plan),
        "sv": emit_process(process, plan),
        "ports": [(p.index, p.endpoint, p.message, p.is_sender, p.width,
                   p.drives) for p in plan.ports],
        "optimize_stats": [(s.removed, s.passes_run)
                           for s in plan.optimize_stats],
        "threads": [(t.kind, t.anchor, t.n_events, t.delays)
                    for t in plan.threads],
    }


# ---------------------------------------------------------------------------
# warm from disk equals cold
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_a_plan_warm_from_disk_generates_what_a_cold_plan_does(factory):
    cold = _front_end(factory)
    assert fsmplan.cache_stats()["disk_misses"] >= 1
    fsmplan.clear_cache()
    warm = _front_end(factory)
    stats = fsmplan.cache_stats()
    assert stats["disk_hits"] >= 1
    assert stats["disk_misses"] == stats["disk_rejected"] == 0
    assert warm == cold


@pytest.mark.parametrize("name, backend", [
    ("anvil_aes", "pycompiled"), ("y86_sum", "pycompiled"),
    ("sweep", "pycompiled"), ("anvil_streams", "interp")])
def test_a_simulation_warm_from_disk_runs_what_a_cold_one_does(name,
                                                               backend):
    config = SimConfig(engine="kernel", backend=backend, seed=0, stim=400)
    runs = []
    for _ in range(2):
        _clear_memory()
        sim = get_registry().build(name, config)
        sim.run(120)
        runs.append((sim.activity, sim.waveform.samples,
                     sim._kernel.source))
    assert runs[1] == runs[0]
    assert kernel.cache_stats()["disk_hits"] == 1


def test_warm_from_disk_counts_its_disk_hits():
    config = SimConfig(engine="kernel", backend="pycompiled", seed=0,
                       stim=100)
    get_registry().build("y86_sum", config).run(40)
    cold = {c.__name__: _disk(c.cache_stats())
            for c in (fsmplan, pysim, kernel)}
    _clear_memory()
    get_registry().build("y86_sum", config).run(40)
    warm = {c.__name__: _disk(c.cache_stats())
            for c in (fsmplan, pysim, kernel)}
    for name, counts in cold.items():
        assert counts["disk_hits"] == counts["disk_rejected"] == 0, name
        assert counts["disk_misses"] >= 1, name
        assert warm[name] == {"disk_hits": counts["disk_misses"],
                              "disk_misses": 0, "disk_rejected": 0}, name
    # a disk hit is a miss of the memory tier
    assert fsmplan.cache_stats()["misses"] == warm["repro.core.fsmplan"][
        "disk_hits"]


def test_every_scenario_warm_from_disk_matches_the_pinned_digest():
    names = get_registry().names()
    for name in names:
        get_registry().build(name, SimConfig(
            engine="kernel", backend="pycompiled", stim=400)).run(5)
    _clear_memory()
    got = {name: scenario_digest(name, "kernel", "pycompiled")
           for name in names}
    assert got == {name: SCENARIO_DIGESTS[name] for name in names}
    assert kernel.cache_stats()["disk_hits"] >= 1
    assert fsmplan.cache_stats()["disk_misses"] == 0
    assert pysim.cache_stats()["disk_misses"] == 0


# ---------------------------------------------------------------------------
# entries that cannot be used
# ---------------------------------------------------------------------------
def _rewrite_header(data, field, value):
    head, _nl, body = data.partition(b"\n")
    fields = head.split(b" ")
    fields[field] = value
    return b" ".join(fields) + b"\n" + body


_SPOIL = {
    # header fields: tag, format, digest, magic, kind, key, length, sha
    "stale_digest": lambda d: _rewrite_header(d, 2, b"0" * 64),
    "foreign_magic": lambda d: _rewrite_header(
        d, 3, bytes(b ^ 0xFF for b in importlib.util.MAGIC_NUMBER).hex()
        .encode()),
    "old_format": lambda d: _rewrite_header(d, 1, b"0"),
    "truncated": lambda d: d[:len(d) // 2],
    "corrupt": lambda d: d[:-40] + bytes(b ^ 0x55 for b in d[-40:]),
    "empty": lambda d: b"",
}


@pytest.mark.parametrize("spoil", sorted(_SPOIL))
def test_an_unusable_entry_is_skipped_counted_and_rewritten(spoil):
    cold = _front_end(_counter)
    config = SimConfig(engine="kernel", backend="pycompiled", seed=0,
                       stim=100)
    sim = get_registry().build("anvil_streams", config)
    sim.run(30)
    cold_run = (sim.activity, sim.waveform.samples)
    good = _entries()
    live = compile_cache.disk_tier().live_dir()
    for name, data in good.items():
        with open(os.path.join(live, name), "wb") as f:
            f.write(_SPOIL[spoil](data))
    _clear_memory()

    assert _front_end(_counter) == cold
    sim = get_registry().build("anvil_streams", config)
    sim.run(30)
    assert (sim.activity, sim.waveform.samples) == cold_run
    rejected = sum(c.cache_stats()["disk_rejected"]
                   for c in (fsmplan, pysim, kernel))
    hits = sum(c.cache_stats()["disk_hits"] for c in (fsmplan, pysim, kernel))
    assert rejected == len(good) and hits == 0
    assert _entries() == good         # each rebuilt and written again


def test_an_entry_under_another_key_is_rejected():
    _front_end(_counter)
    live = compile_cache.disk_tier().live_dir()
    data, = [d for n, d in _entries().items() if n.startswith("plan-")]
    other = fsmplan.plan_key(_counter(width=9), True)
    with open(os.path.join(live, f"plan-{other}"), "wb") as f:
        f.write(data)
    fsmplan.clear_cache()
    plan = build_process_plan(_counter(width=9))
    assert plan.reg_masks == {"r": 0x1FF}
    assert fsmplan.cache_stats()["disk_rejected"] == 1


# ---------------------------------------------------------------------------
# where the tier is, and where it is not
# ---------------------------------------------------------------------------
def _python_settings(monkeypatch, tmp_path, dont_write):
    monkeypatch.setattr(sys, "dont_write_bytecode", dont_write)
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path / "prefix"))
    compile_cache.reset_disk_dir()


def test_the_tier_follows_the_bytecode_cache_prefix(monkeypatch, tmp_path):
    _python_settings(monkeypatch, tmp_path, dont_write=False)
    pyc = importlib.util.cache_from_source(
        os.path.abspath(compile_cache.__file__))
    root = os.path.join(os.path.dirname(pyc), "compile-cache")
    assert root.startswith(str(tmp_path / "prefix"))
    assert compile_cache.disk_tier().root == root
    _front_end(_counter)
    assert sorted(os.listdir(root)) == [compile_cache.compiler_digest()]
    assert [n.split("-")[0] for n in _entries()] == ["plan"]


def test_the_tier_sits_beside_the_package_bytecode(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    monkeypatch.setattr(sys, "pycache_prefix", None)
    compile_cache.reset_disk_dir()
    package = os.path.dirname(os.path.abspath(compile_cache.__file__))
    assert compile_cache.disk_tier().root == os.path.join(
        package, "__pycache__", "compile-cache")


def test_nothing_is_written_without_bytecode_writes(monkeypatch, tmp_path):
    _python_settings(monkeypatch, tmp_path, dont_write=True)
    assert compile_cache.disk_tier() is None
    config = SimConfig(engine="kernel", backend="pycompiled", stim=100)
    get_registry().build("anvil_streams", config).run(20)
    assert not (tmp_path / "prefix").exists()
    for cache in (fsmplan, pysim, kernel):
        assert set(_disk(cache.cache_stats()).values()) == {0}


def test_an_unwritable_directory_writes_nothing_and_raises_nothing(
        tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    compile_cache.set_disk_dir(str(blocker / "cache"))
    cold = _front_end(_counter)
    config = SimConfig(engine="kernel", backend="pycompiled", stim=100)
    get_registry().build("anvil_streams", config).run(20)
    fsmplan.clear_cache()
    assert _front_end(_counter) == cold
    assert fsmplan.cache_stats()["disk_hits"] == 0
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_an_unpicklable_process_writes_nothing():
    process = _counter()
    process.note = lambda: None      # pickle refuses a lambda
    build_process_plan(process)
    build_process_plan(process)
    assert _entries() == {}
    assert set(_disk(fsmplan.cache_stats()).values()) == {0}


# ---------------------------------------------------------------------------
# compiler digest and bounds
# ---------------------------------------------------------------------------
def test_the_compiler_digest_covers_every_source(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("A = 1\n")
    (package / "sub" / "b.py").write_text("B = 2\n")
    first = compile_cache.source_digest(str(package))
    assert compile_cache.source_digest(str(package)) == first
    (package / "sub" / "b.py").write_text("B = 3\n")
    edited = compile_cache.source_digest(str(package))
    (package / "c.py").write_text("")
    added = compile_cache.source_digest(str(package))
    assert len({first, edited, added}) == 3
    assert compile_cache.compiler_digest() == compile_cache.source_digest(
        os.path.dirname(os.path.abspath(compile_cache.__file__)))


def test_another_compiler_reads_nothing_and_clears_the_old_entries(
        monkeypatch):
    cold = _front_end(_counter)
    root = compile_cache.disk_tier().root
    old = compile_cache.compiler_digest()
    monkeypatch.setattr(compile_cache, "_DIGEST", "f" * 64)
    fsmplan.clear_cache()
    assert _front_end(_counter) == cold
    assert _disk(fsmplan.cache_stats()) == {
        "disk_hits": 0, "disk_misses": 1, "disk_rejected": 0}
    assert os.listdir(root) == ["f" * 64]
    assert old not in os.listdir(root)


def test_the_count_cap_evicts_the_oldest_entry(monkeypatch):
    monkeypatch.setattr(compile_cache, "DISK_CAP", 3)
    live = compile_cache.disk_tier().live_dir()
    written = []
    for width in range(1, 6):
        build_process_plan(_counter(width=width))
        name = f"plan-{fsmplan.plan_key(_counter(width=width), True)}"
        # distinct, increasing ages whatever the clock's resolution
        os.utime(os.path.join(live, name), ns=(width * 10**9,) * 2)
        written.append(name)
        assert len(os.listdir(live)) <= 3
    assert sorted(os.listdir(live)) == sorted(written[-3:])


def test_concurrent_writers_leave_every_entry_whole():
    # eight threads miss every tier at once, so each builds and writes
    # the same entries; renaming into place must leave each one whole
    config = SimConfig(engine="kernel", backend="pycompiled", stim=100)
    barrier = threading.Barrier(8)
    errors = []

    def build():
        try:
            barrier.wait(timeout=30)
            get_registry().build("anvil_streams", config).run(10)
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
    names = list(_entries())
    assert names and not [n for n in names if n.startswith(".tmp-")]
    _clear_memory()
    get_registry().build("anvil_streams", config).run(10)
    for cache in (fsmplan, pysim, kernel):
        stats = cache.cache_stats()
        assert stats["disk_hits"] >= 1, cache.__name__
        assert stats["disk_misses"] == stats["disk_rejected"] == 0, \
            cache.__name__


# ---------------------------------------------------------------------------
# across interpreters
# ---------------------------------------------------------------------------
_RUN_AND_COUNT = """
import json, sys
from repro import Session, SimConfig
from repro.codegen import pysim
from repro.core import fsmplan
from repro.rtl import kernel
result = Session(SimConfig(engine="kernel", backend="pycompiled",
                           cycles=200)).run("y86_sum")
print(json.dumps({"activity": result.total_activity,
                  "cycles": result.cycles,
                  "disk": {c.__name__: [c.cache_stats()[k] for k in
                                        ("disk_hits", "disk_misses")]
                           for c in (fsmplan, pysim, kernel)}}))
"""


def test_a_fresh_interpreter_reuses_what_an_earlier_one_built(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=str(tmp_path))
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _RUN_AND_COUNT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    cold, warm = outs
    assert (warm["activity"], warm["cycles"]) == (cold["activity"],
                                                   cold["cycles"])
    for name, (hits, misses) in cold["disk"].items():
        assert hits == 0 and misses >= 1, name
        assert warm["disk"][name] == [misses, 0], name
