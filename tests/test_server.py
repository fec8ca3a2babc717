"""The serving loop end to end: registry browsing, submit/poll/fetch
pinned bit-identical to direct ``Session.run``, the result cache (zero
builds and recompiles on repeats), 429 backpressure at queue capacity,
concurrent WebSocket trace streams, slow-consumer drop-and-flag, the
wire-schema round trips and the compile-cache hammer.

Server fixtures bind port 0 (the OS picks a free one) and run on a
daemon thread inside this process, so worker threads share this
process's warm compile caches -- which is exactly the property the
cache assertions pin.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (
    RunResult,
    Session,
    SimConfig,
    UnknownScenarioError,
    get_registry,
)
from repro.codegen import pysim
from repro.core import fsmplan
from repro.rtl import kernel
from repro.rtl.module import Module
from repro.rtl.simulator import Simulator
from repro.rtl.snapshot import reset_checkpoint_store
from repro.server import (
    Backpressure,
    JobQueue,
    ReproServer,
    ServerBusy,
    ServerClient,
    ServerError,
    TraceHub,
)

# ---------------------------------------------------------------------------
# a deliberately slow scenario (for backpressure and streaming timing)
# ---------------------------------------------------------------------------
class _SlowCounter(Module):
    """A counter whose tick sleeps: cycles take real wall-clock, so a
    job over it reliably occupies a worker while tests probe the queue."""

    def __init__(self, name: str, delay: float):
        super().__init__(name)
        self.delay = delay
        self.count = 0
        self.out = self.wire("count", width=16)

    def comb_inputs(self):
        return ()

    def comb_outputs(self):
        return (self.out,)

    def eval_comb(self):
        self.out.set(self.count & 0xFFFF)

    def tick(self):
        time.sleep(self.delay)
        self.count += 1


_REGISTRY = get_registry()


def _build_server_slow(engine="levelized", seed=0, stim=100,
                       sim=None, backend="interp"):
    """Wall-clock-bound counter (tests only: ~4ms per cycle)."""
    sim = sim or Simulator("server_slow", engine=engine)
    mod = _SlowCounter("slow", delay=0.004)
    sim.add(mod)
    sim.watch(mod.out, "slow.count")
    return sim


@pytest.fixture(scope="module", autouse=True)
def _server_slow_scenario():
    # registered per-module (not at import) so collection of this file
    # never leaks the test-only scenario/tag into the global registry
    # seen by the rest of the suite
    if "server_slow" not in _REGISTRY:
        _REGISTRY.add("server_slow", _build_server_slow,
                      tags=("server-test",))
    try:
        yield
    finally:
        _REGISTRY.remove("server_slow")


@pytest.fixture()
def server():
    srv = ReproServer(config=SimConfig(), port=0, queue_depth=8,
                      workers=2).start_in_thread()
    try:
        yield srv
    finally:
        srv.close()


@pytest.fixture()
def client(server):
    with ServerClient(port=server.port) as cl:
        yield cl


# ---------------------------------------------------------------------------
# registry browsing
# ---------------------------------------------------------------------------
def test_health_and_scenario_browsing(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["scenarios"] == len(get_registry())

    everything = {s["name"] for s in client.scenarios()}
    assert everything == set(get_registry().names())

    rtl_only = client.scenarios(tag="rtl")
    assert {s["name"] for s in rtl_only} == set(get_registry().names("rtl"))
    assert all("rtl" in s["tags"] for s in rtl_only)

    one = client.scenario("streams")
    assert one["name"] == "streams"
    assert "rtl" in one["tags"]
    assert one["description"]


def test_unknown_scenario_is_404_with_suggestions(client):
    with pytest.raises(ServerError) as exc_info:
        client.scenario("streems")
    assert exc_info.value.status == 404
    assert "streams" in str(exc_info.value)


def test_unknown_tag_is_404_with_the_registry_error(client):
    with pytest.raises(UnknownScenarioError) as refused:
        get_registry().names("anvill")
    with pytest.raises(ServerError) as exc_info:
        client.scenarios(tag="anvill")
    assert exc_info.value.status == 404
    assert exc_info.value.payload == {"error": refused.value.args[0]}
    assert refused.value.args[0].startswith(
        "unknown tag 'anvill' (did you mean 'anvil'?)")


# ---------------------------------------------------------------------------
# submit / poll / fetch -- pinned bit-identical to a direct Session.run
# ---------------------------------------------------------------------------
def test_run_job_matches_direct_session_run(client):
    config = SimConfig(cycles=300, seed=3)
    direct = Session(config).run("memory")

    record = client.submit("memory", cycles=300, config={"seed": 3})
    assert record["state"] in ("queued", "running", "done")
    final = client.wait(record["id"])
    assert final["state"] == "done"
    served = client.result(record["id"])

    assert isinstance(served, RunResult)
    assert served.scenario == direct.scenario
    assert served.cycles == direct.cycles
    assert served.total_activity == direct.total_activity
    assert served.activity == direct.activity
    assert served.waveform.samples == direct.waveform.samples
    assert served.config == direct.config


def test_resubmission_is_a_submit_level_cache_hit(client):
    first = client.submit("streams", cycles=150)
    client.wait(first["id"])

    pysim_before = pysim.cache_stats()["misses"]
    kernel_before = kernel.cache_stats()["misses"]
    again = client.submit("streams", cycles=150)
    # answered inline: already done, no queue slot, nothing recompiled
    assert again["state"] == "done"
    assert again["cached"] == "submit"
    assert pysim.cache_stats()["misses"] == pysim_before
    assert kernel.cache_stats()["misses"] == kernel_before

    a = client.result(first["id"])
    b = client.result(again["id"])
    assert a.activity == b.activity
    assert a.waveform.samples == b.waveform.samples
    assert b.diagnostics["result_cache"] == "submit"


def test_stats_report_every_compile_cache(client):
    # an Anvil run plans its processes and compiles their pysim sources
    client.run("anvil_streams", cycles=20, config={"backend": "pycompiled"})
    caches = client.stats()["compile_caches"]
    assert sorted(caches) == ["kernel", "plan", "pysim"]
    for name, counters in caches.items():
        assert sorted(counters) == ["entries", "evictions", "hits",
                                    "misses"], name
    assert caches["plan"]["misses"] >= 1


def test_cross_engine_submission_hits_the_result_cache(client):
    base_engine = SimConfig().engine     # whatever the env resolves to
    other_engine = "kernel" if base_engine != "kernel" else "levelized"
    base = client.submit("streams", cycles=200)
    client.wait(base["id"])
    reference = client.result(base["id"])

    other = client.submit("streams", cycles=200,
                          config={"engine": other_engine})
    final = client.wait(other["id"])
    # same stimulus, cycles and trace -> served from the result cache
    # without running (the repo pins engines bit-identical)
    assert final["cached"] == "submit"
    served = client.result(other["id"])
    assert served.activity == reference.activity
    assert served.waveform.samples == reference.waveform.samples
    # the echoed config is the requester's; diagnostics say who computed
    assert served.config.engine == other_engine
    assert served.diagnostics["computed_by"]["engine"] == base_engine


@pytest.mark.parametrize("resubmission", [
    {"config": {"engine": "brute"}},
    {"config": {"backend": "pycompiled"}},
    {"from_cycle": 100},
], ids=["engine", "backend", "from_cycle"])
def test_resubmission_answered_without_building(resubmission,
                                                monkeypatch):
    # only stimulus, cycles and trace key the result cache: a finished
    # run resubmitted under another engine or backend, or as a fork
    # from a cycle, is answered at submit, before anything is built
    q = JobQueue(depth=2, workers=1).start()
    run = {"scenario": "anvil_streams", "cycles": 160,
           "config": {"engine": "kernel", "stim": 200}}
    try:
        first = _finished(q.submit(run))
        builds = []
        real_build = type(_REGISTRY).build

        def counting_build(self, *args, **kwargs):
            builds.append(args)
            return real_build(self, *args, **kwargs)

        monkeypatch.setattr(type(_REGISTRY), "build", counting_build)
        again = q.submit({
            **run, **resubmission,
            "config": {**run["config"],
                       **resubmission.get("config", {})}})
        assert again.state == "done" and again.cached == "submit"
        assert builds == []
    finally:
        q.shutdown()
    assert again.result.activity == first.result.activity
    assert again.result.waveform.samples == first.result.waveform.samples
    assert again.result.config == again.config
    assert again.result.diagnostics["result_cache"] == "submit"
    assert again.result.diagnostics["computed_by"] == {
        "engine": "kernel", "backend": first.config.backend}


def test_queued_twin_answered_when_it_starts(monkeypatch):
    # a run queued behind its twin misses at submit; when it leaves the
    # queue the twin has finished, so the second lookup answers it
    # without a build, and its miss is counted once, at submit
    entered, release = threading.Event(), threading.Event()
    builds = []
    real_build = type(_REGISTRY).build

    def held_build(self, *args, **kwargs):
        builds.append(args)
        entered.set()
        assert release.wait(60)
        return real_build(self, *args, **kwargs)

    monkeypatch.setattr(type(_REGISTRY), "build", held_build)
    q = JobQueue(depth=2, workers=1).start()
    run = {"scenario": "anvil_streams", "cycles": 160,
           "config": {"engine": "kernel", "stim": 200}}
    try:
        first = q.submit(run)
        assert entered.wait(60)
        twin = q.submit({**run, "config": {**run["config"],
                                           "engine": "brute"}})
        assert twin is not first and twin.state == "queued"
        release.set()
        _finished(first)
        _finished(twin)
        stats = q.stats()["result_cache"]
    finally:
        release.set()
        q.shutdown()
    assert len(builds) == 1
    assert twin.cached == "submit"
    assert twin.result.activity == first.result.activity
    assert twin.result.config == twin.config
    assert twin.result.diagnostics["computed_by"]["engine"] == "kernel"
    assert stats == {"hits": 1, "misses": 2, "entries": 1}


def test_sweep_and_bench_job_kinds(client):
    record = client.submit(kind="sweep", scenarios=["streams", "memory"],
                           cycles=120)
    client.wait(record["id"], timeout=180)
    sweep = client.result(record["id"])
    assert set(sweep) == {"streams", "memory"}
    direct = Session(SimConfig(cycles=120)).run("streams")
    assert sweep["streams"]["total_activity"] == direct.total_activity

    record = client.submit(kind="bench", scenarios=["streams"],
                           cycles=120, warmup=2, repeats=1)
    client.wait(record["id"], timeout=180)
    rows = client.result(record["id"])
    assert rows[0]["scenario"] == "streams"
    assert rows[0]["equivalent"] is True


# ---------------------------------------------------------------------------
# backpressure and lifecycle
# ---------------------------------------------------------------------------
def test_backpressure_429_at_queue_capacity():
    srv = ReproServer(config=SimConfig(), port=0, queue_depth=1,
                      workers=1, retry_after=2.5).start_in_thread()
    try:
        with ServerClient(port=srv.port) as cl:
            running = cl.submit("server_slow", cycles=800)
            deadline = time.monotonic() + 30
            while cl.status(running["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = cl.submit("server_slow", cycles=801)
            assert cl.status(queued["id"])["state"] == "queued"
            with pytest.raises(ServerBusy) as exc_info:
                cl.submit("server_slow", cycles=802)
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after == pytest.approx(2.5, abs=1)
            # a queued job can be cancelled, freeing its slot
            cancelled = cl.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            retry = cl.submit("server_slow", cycles=803)
            assert retry["state"] == "queued"
    finally:
        srv.close()


def test_identical_inflight_submissions_coalesce(client):
    a = client.submit("server_slow", cycles=400)
    b = client.submit("server_slow", cycles=400)
    assert a["id"] == b["id"]
    assert client.stats()["coalesced"] >= 1
    client.wait(a["id"], timeout=60)


def test_cancel_running_job_is_409(client):
    record = client.submit("server_slow", cycles=900)
    deadline = time.monotonic() + 30
    while client.status(record["id"])["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.005)
    with pytest.raises(ServerError) as exc_info:
        client.cancel(record["id"])
    assert exc_info.value.status == 409
    client.wait(record["id"], timeout=60)


def test_bad_submissions_are_400(client):
    for body in (
        {"kind": "explode", "scenario": "streams"},
        {"kind": "run"},                               # no scenario
        {"kind": "run", "scenario": "nope_not_real"},
        {"kind": "run", "scenario": "streams",
         "config": {"engine": "warp-drive"}},
        {"kind": "run", "scenario": "streams", "trace_buffer": 0},
        {"kind": "sweep", "stream": True},             # stream != sweep
    ):
        with pytest.raises(ServerError) as exc_info:
            client._request("POST", "/jobs", body)
        assert exc_info.value.status == 400, body

    assert client._request("GET", "/jobs") is not None
    with pytest.raises(ServerError) as exc_info:
        client.status("job-999999")
    assert exc_info.value.status == 404
    with pytest.raises(ServerError) as exc_info:
        client._request("GET", "/no/such/route")
    assert exc_info.value.status == 404


def test_sweep_and_bench_with_an_unknown_selection_are_400(client):
    for body, message in (
        ({"kind": "sweep", "tag": "nosuch"}, "unknown tag 'nosuch'"),
        ({"kind": "bench", "tag": "Anvil"}, "did you mean 'anvil'"),
        ({"kind": "sweep", "scenarios": ["streams", "y86_summ"]},
         "unknown scenario 'y86_summ' (did you mean 'y86_sum'"),
        ({"kind": "bench", "scenarios": ["nonesuch"]},
         "known scenarios are"),
        ({"kind": "sweep", "tag": 5}, "tag must be a string"),
    ):
        with pytest.raises(ServerError) as exc_info:
            client._request("POST", "/jobs", body)
        assert exc_info.value.status == 400, body
        assert message in str(exc_info.value), body
    assert client._request("GET", "/jobs") == {"jobs": []}


def test_result_before_done_is_409(client):
    record = client.submit("server_slow", cycles=500)
    with pytest.raises(ServerError) as exc_info:
        client.result(record["id"])
    assert exc_info.value.status == 409
    client.wait(record["id"], timeout=60)
    assert client.result(record["id"]).cycles == 500


# ---------------------------------------------------------------------------
# trace streaming over WebSocket
# ---------------------------------------------------------------------------
def test_stream_delivers_every_cycle_delta(client):
    record = client.submit("streams", cycles=64, stream=True)
    frames = list(client.stream(record["id"]))
    deltas = [f for f in frames if f["type"] == "delta"]
    end = frames[-1]
    assert end["type"] == "end"
    assert end["state"] == "done"
    assert end["dropped"] == 0
    assert len(deltas) == 64
    assert [d["cycle"] for d in deltas] == list(range(64))
    # activity is cumulative and the final delta matches the result
    assert deltas[-1]["activity"] == client.result(record["id"]).total_activity


def test_concurrent_websocket_clients_see_identical_streams(client):
    record = client.submit("server_slow", cycles=120, stream=True)
    streams: dict = {}
    errors: list = []

    def consume(i):
        try:
            with ServerClient(port=client.port) as own:
                streams[i] = list(own.stream(record["id"]))
        except Exception as exc:   # surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=consume, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert set(streams) == {0, 1, 2, 3}
    reference = streams[0]
    deltas = [f for f in reference if f["type"] == "delta"]
    assert len(deltas) == 120
    for i in (1, 2, 3):
        assert streams[i] == reference


def test_slow_consumer_drops_are_flagged_not_stalling(client):
    # ring depth 16 << 96 cycles: by the time this late subscriber
    # connects, most deltas are evicted -- the stream must still end
    # cleanly, flagging exactly how many it lost
    record = client.submit("streams", cycles=96, stream=True,
                           trace_buffer=16)
    client.wait(record["id"])
    frames = list(client.stream(record["id"]))
    deltas = [f for f in frames if f["type"] == "delta"]
    end = frames[-1]
    assert end["type"] == "end"
    assert 0 < len(deltas) <= 16
    assert end["dropped"] == 96 - len(deltas)
    assert deltas[-1]["cycle"] == 95     # the retained tail, in order


def test_trace_hub_drop_accounting_is_exact():
    hub = TraceHub(depth=4)

    async def exercise():
        sub = hub.subscribe(asyncio.get_running_loop())
        for i in range(10):
            hub.publish({"type": "delta", "cycle": i})
        hub.close(state="done")
        return [d async for d in sub.deltas()], sub.dropped

    got, dropped = asyncio.run(exercise())
    assert [d["cycle"] for d in got] == [6, 7, 8, 9]
    assert dropped == 6
    assert hub.stats()["retained"] == 4


def test_stream_request_on_plain_job_is_409(client):
    record = client.submit("streams", cycles=64)
    client.wait(record["id"])
    with pytest.raises(ServerError) as exc_info:
        list(client.stream(record["id"]))
    assert exc_info.value.status == 409


# ---------------------------------------------------------------------------
# the acceptance integration: 8 concurrent clients, one warm cache
# ---------------------------------------------------------------------------
def test_eight_concurrent_clients_one_simulation_zero_recompiles():
    config = SimConfig(cycles=250, engine="kernel", backend="pycompiled")
    direct = Session(config).run("anvil_streams")   # primes the caches
    overrides = {"engine": "kernel", "backend": "pycompiled"}

    srv = ReproServer(config=SimConfig(), port=0, queue_depth=4,
                      workers=2).start_in_thread()
    try:
        pysim_misses = pysim.cache_stats()["misses"]
        kernel_misses = kernel.cache_stats()["misses"]
        results: dict = {}
        errors: list = []

        def one_client(i):
            try:
                with ServerClient(port=srv.port) as cl:
                    results[i] = cl.run("anvil_streams", cycles=250,
                                        config=overrides)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors
        assert set(results) == set(range(8))

        for res in results.values():
            assert res.cycles == direct.cycles
            assert res.total_activity == direct.total_activity
            assert res.activity == direct.activity
            assert res.waveform.samples == direct.waveform.samples

        # the warm caches served every worker: nothing recompiled
        assert pysim.cache_stats()["misses"] == pysim_misses
        assert kernel.cache_stats()["misses"] == kernel_misses
        # and at most one simulation actually ran: everyone else was
        # answered by coalescing or the result cache
        stats = srv.queue.stats()
        cache = stats["result_cache"]
        assert cache["hits"] + stats["coalesced"] >= 7
        assert stats["states"]["failed"] == 0

        # a full queue answers 429, never accepts unbounded work
        with ServerClient(port=srv.port) as cl:
            with pytest.raises(ServerBusy):
                for i in range(1 + stats["depth"] + len(srv.queue._workers)):
                    cl.submit("server_slow", cycles=600 + i)
    finally:
        srv.close()


# ---------------------------------------------------------------------------
# queue unit behaviour (no sockets)
# ---------------------------------------------------------------------------
def test_job_queue_rejects_invalid_shapes_before_queueing():
    q = JobQueue(depth=2, workers=1)
    # never started: submissions still validate
    from repro.server.jobs import BadSubmission
    for payload in ("not a dict", {"kind": "run"},
                    {"kind": "run", "scenario": "streams",
                     "cycles": "many"}):
        with pytest.raises((BadSubmission, Backpressure)):
            q.submit(payload if isinstance(payload, dict) else payload)


@pytest.mark.parametrize("override,named", [
    ({"parallel": 2}, "known fields are"),
    ({"executor": "thread"}, "'serial', 'process'"),
], ids=["parallel", "executor-thread"])
def test_job_queue_rejects_retired_pool_config(override, named):
    # a client still sending the old pool knobs gets a 400-class error
    # that says what to send instead, before anything is queued
    from repro.server.jobs import BadSubmission
    q = JobQueue(depth=2, workers=1)
    with pytest.raises(BadSubmission, match="bad config override") as exc:
        q.submit({"kind": "sweep", "scenarios": ["streams"],
                  "config": override})
    assert named in str(exc.value)
    assert sum(q.stats()["states"].values()) == 0


def test_job_queue_backpressure_without_server():
    q = JobQueue(depth=1, workers=1).start()
    try:
        a = q.submit({"scenario": "server_slow", "cycles": 500})
        deadline = time.monotonic() + 30
        while a.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        q.submit({"scenario": "server_slow", "cycles": 501})
        with pytest.raises(Backpressure):
            q.submit({"scenario": "server_slow", "cycles": 502})
    finally:
        summary = q.shutdown(drain=True)
    assert summary["cancelled"] == 1     # the queued job was cancelled
    assert a.state == "done"


def _finished(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state in ("queued", "running"):
        assert time.monotonic() < deadline, job.id
        time.sleep(0.005)
    assert job.state == "done", (job.error, job.traceback)
    return job


def test_job_queue_from_cycle_resumes_the_deepest_prefix_below_it(
        monkeypatch):
    # a checkpointed run leaves prefixes at cycles 50, 100 and 150; a
    # fork from cycle 120 restores the one at 100 and simulates the rest.
    # Only the first run may checkpoint, and a config cannot say "off"
    # while $REPRO_CHECKPOINT_EVERY is set
    monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
    q = JobQueue(depth=4, workers=1).start()
    run = {"scenario": "streams", "config": {"stim": 400}}
    try:
        _finished(q.submit({**run, "cycles": 150,
                            "config": {"stim": 400,
                                       "checkpoint_every": 50}}))
        fork = _finished(q.submit({**run, "cycles": 300,
                                   "from_cycle": 120}))
        streamed = _finished(q.submit({**run, "cycles": 300,
                                       "from_cycle": 120, "stream": True}))
    finally:
        q.shutdown()
    diag = fork.result.diagnostics
    assert diag["resumed_from"] == 100
    assert diag["simulated_cycles"] == 200
    assert "checkpoints_stored" not in diag      # the fork stores none
    cold = Session(SimConfig(stim=400)).run("streams", cycles=300)
    assert fork.result.activity == cold.activity
    assert fork.result.waveform.samples == cold.waveform.samples
    # the stream begins at the restored boundary, in absolute cycles
    deltas, _cursor, lost = streamed.hub.read_from(0)
    assert lost == 0
    assert [d["cycle"] for d in deltas] == list(range(100, 300))
    assert deltas[-1]["activity"] == cold.total_activity


# ---------------------------------------------------------------------------
# wire schema round trips (the satellite: one pinned JSON shape)
# ---------------------------------------------------------------------------
def test_simconfig_json_round_trip():
    cfg = SimConfig(engine="kernel", backend="pycompiled", cycles=123,
                    seed=7, stim=55, trace=True)
    assert SimConfig.from_json(cfg.to_json()) == cfg
    # canonical: key order cannot wobble the text (cache key material)
    assert cfg.to_json() == SimConfig.from_json(cfg.to_json()).to_json()
    with pytest.raises(ValueError):
        SimConfig.from_json("[1, 2, 3]")


def test_runresult_json_round_trip_preserves_observables():
    result = Session(SimConfig(cycles=80, trace=True)).run("streams")
    back = RunResult.from_json(result.to_json())
    assert back.scenario == result.scenario
    assert back.cycles == result.cycles
    assert back.total_activity == result.total_activity
    assert back.activity == result.activity
    assert back.waveform.samples == result.waveform.samples
    assert back.trace == result.trace
    assert back.config == result.config
    assert back.sim is None
    assert back.cycles_per_second == pytest.approx(
        result.cycles_per_second)


def test_cli_json_output_parses_as_runresult():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "streams",
         "--cycles", "90", "--activity", "--json", "-"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    back = RunResult.from_dict(json.loads(proc.stdout))
    direct = Session(SimConfig(cycles=90)).run("streams")
    assert back.cycles == direct.cycles
    assert back.total_activity == direct.total_activity
    assert back.activity == direct.activity


# ---------------------------------------------------------------------------
# graceful shutdown (the satellite: no tracebacks on SIGINT/SIGTERM)
# ---------------------------------------------------------------------------
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn_repro(*argv):
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=ROOT)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_sweep_exits_cleanly(sig):
    # 16 seeds x every rtl scenario x 30k cycles: long enough that the
    # signal always lands mid-sweep, short enough that the running jobs
    # finish promptly once the queued remainder is cancelled
    proc = _spawn_repro("sweep", "--tag", "rtl", "--seeds", "16",
                        "--cycles", "30000")
    time.sleep(2.0)              # let it get into the run loop
    proc.send_signal(sig)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 130, (stdout, stderr)
    assert "interrupted" in stderr
    assert "Traceback" not in stderr


def test_serve_drains_and_reports_on_sigterm():
    proc = _spawn_repro("serve", "--port", "0", "--workers", "1")
    try:
        line = proc.stdout.readline()
        assert "repro.server listening on" in line
        port = int(line.split("http://")[1].split(":")[1].split()[0])
        with ServerClient(port=port) as cl:
            record = cl.submit("streams", cycles=60)
            cl.wait(record["id"])
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (stdout, stderr)
    assert "shut down cleanly" in stderr
    assert "Traceback" not in stderr


# ---------------------------------------------------------------------------
# compile-cache hammer (the satellite: concurrent workers, one compile)
# ---------------------------------------------------------------------------
def _hammer(fn, n=8):
    barrier = threading.Barrier(n)
    errors: list = []

    def run():
        try:
            barrier.wait(timeout=30)
            fn()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    assert not errors


def test_pysim_cache_survives_concurrent_compilation():
    pysim.clear_cache()
    Session(SimConfig(cycles=10, backend="pycompiled")).run("anvil_streams")
    expected = pysim.cache_stats()["misses"]     # distinct plans compiled
    assert pysim.cache_stats()["entries"] == expected

    pysim.clear_cache()
    # fresh plans too: the cached ones keep their compiled backends
    fsmplan.clear_cache()
    _hammer(lambda: Session(
        SimConfig(cycles=10, backend="pycompiled")).run("anvil_streams"))
    stats = pysim.cache_stats()
    # the lock makes lookup-compile-insert atomic: racing workers never
    # duplicate an entry or double-count a miss
    assert stats["misses"] == expected
    assert stats["entries"] == expected


def test_kernel_cache_survives_concurrent_compilation():
    kernel.clear_cache()
    Session(SimConfig(cycles=10, engine="kernel")).run("streams")
    expected = kernel.cache_stats()["misses"]
    assert kernel.cache_stats()["entries"] == expected

    kernel.clear_cache()
    # under REPRO_CHECKPOINT_EVERY the seed run above left a full-run
    # checkpoint; drop it so the hammered re-runs actually simulate
    # (and compile) instead of restoring the warm prefix
    reset_checkpoint_store()
    _hammer(lambda: Session(
        SimConfig(cycles=10, engine="kernel")).run("streams"))
    stats = kernel.cache_stats()
    assert stats["misses"] == expected
    assert stats["entries"] == expected


def test_simulator_monitor_detach():
    sim = get_registry().build("streams", SimConfig(cycles=10))
    seen = []
    sim.on_cycle(seen.append)
    sim.run(5)
    assert seen == [0, 1, 2, 3, 4]
    assert sim.remove_monitor(seen.append) is True
    assert sim.remove_monitor(seen.append) is False
    sim.run(5)
    assert seen == [0, 1, 2, 3, 4]       # detached: no further calls
