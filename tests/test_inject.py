"""Fault injection: deterministic campaigns, hand-placed outcomes,
watchdogs, executor retry, server traceback/timeout plumbing."""

import json
import os
import signal
import socket

import pytest

from repro.api import Session, SimConfig, get_registry
from repro.designs.y86 import RNONE, SAOK
from repro.errors import SimulationError, WatchdogTimeout
from repro.inject import Fault, FaultInjector, run_campaign
from repro.inject.campaign import (
    _arch_digest,
    _classify,
    _halt_module,
    _run_tail,
    default_budget,
)
from repro.inject.faults import enumerate_sites
from repro.isa.encoding import FN_ADD, FN_SUB, IOPQ
from repro.rtl.executors import (
    _MAX_RETRIES,
    ExecutorError,
    JobSpec,
    ProcessExecutor,
    job_kind,
)
from repro.rtl.simulator import ENGINES, advance
from repro.server.jobs import BadSubmission, JobQueue

BACKENDS = ("interp", "pycompiled")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "inject_y86_sum_25.json")


def _normalized(result):
    """The deterministic portion of a campaign result (everything but
    wall-clock and the echoed config)."""
    result = dict(result)
    result.pop("elapsed")
    result.pop("config")
    return json.dumps(result, sort_keys=True)


def _probe_cycle(cfg, cond, limit=400):
    """The first cycle at which ``cond(cpu)`` holds on an uninjected
    y86_sum run -- i.e. the cycle whose tick will consume the latch
    contents the condition matched (the injection hook fires after
    settle, before tick)."""
    sim = get_registry().build("y86_sum", cfg)
    cpu = _halt_module(sim)
    while sim.cycle < limit:
        if cond(cpu):
            return sim.cycle
        sim.run(1)
    raise AssertionError("probe condition never held")


# ---------------------------------------------------------------------------
# campaign determinism and snapshot-fork fidelity
# ---------------------------------------------------------------------------
def test_campaign_byte_identical_across_engines_and_backends():
    for scenario in ("y86_sum", "anvil_memory"):
        reference = None
        for engine in ENGINES:
            for backend in BACKENDS:
                cfg = SimConfig(engine=engine, backend=backend)
                got = _normalized(run_campaign(scenario, cfg, n_faults=8))
                if reference is None:
                    reference = got
                assert got == reference, (scenario, engine, backend)


def test_sharded_process_campaign_matches_serial():
    serial = _normalized(run_campaign(
        "y86_sum", SimConfig(executor="serial"), n_faults=10))
    sharded = Session(SimConfig(executor="process", jobs=2)) \
        .inject_campaign("y86_sum", faults=10)
    assert _normalized(sharded) == serial


def test_forked_injection_matches_cold_start():
    """A tail forked from a warm prefix snapshot must classify exactly
    as a cold run injecting the same fault at the same cycle."""
    for engine in ENGINES:
        for backend in BACKENDS:
            cfg = SimConfig(engine=engine, backend=backend)
            result = run_campaign("y86_sum", cfg, n_faults=6)
            budget = result["tail_budget"]
            for record in result["outcomes"]:
                fault = Fault.from_dict({
                    k: record[k] for k in ("kind", "module", "target",
                                           "cycle", "bit", "width",
                                           "duration")})
                sim = get_registry().build("y86_sum", cfg)
                cpu = _halt_module(sim)
                if fault.cycle > 0:
                    sim.run(fault.cycle)
                injector = FaultInjector(fault).arm(sim)
                error = None
                try:
                    _run_tail(sim, cpu, result["golden"], budget, None)
                except WatchdogTimeout as exc:
                    error = exc
                finally:
                    injector.disarm()
                outcome, digest = _classify(sim, cpu, result["golden"],
                                            error)
                assert outcome == record["outcome"], (engine, backend,
                                                      fault)
                assert digest == record["digest"], (engine, backend,
                                                    fault)
                assert sim.cycle == record["end_cycle"]
                assert injector.fired == record["fired"]


def test_pinned_golden_histogram():
    """The CI smoke campaign's classification histogram, pinned."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    result = run_campaign("y86_sum", SimConfig(), n_faults=25)
    assert result["histogram"] == golden["histogram"]
    assert result["golden"] == golden["golden"]
    assert result["tail_budget"] == golden["tail_budget"]


# ---------------------------------------------------------------------------
# hand-placed faults with known consequences
# ---------------------------------------------------------------------------
def _campaign_with(fault, cfg=None, tail_budget=None):
    result = run_campaign("y86_sum", cfg or SimConfig(),
                          faults=[fault], tail_budget=tail_budget)
    (record,) = result["outcomes"]
    return result, record


def test_bitflip_in_forwarding_operand_is_sdc():
    # corrupt valA of an addq whose destination is %rax while it sits
    # in the execute latch: the ALU adds a wrong operand, the sum in
    # rax is silently off, the machine still halts cleanly
    cfg = SimConfig()
    cycle = _probe_cycle(cfg, lambda cpu: (
        cpu.E["icode"] == IOPQ and cpu.E["ifun"] == FN_ADD
        and cpu.E["dste"] == 0 and cpu.E["stat"] == SAOK))
    result, record = _campaign_with(Fault(
        kind="transient_bitflip", module="y86_sum_cpu",
        target="E[vala]", cycle=cycle))
    assert record["outcome"] == "sdc"
    assert record["fired"] == 1
    assert record["digest"] != result["golden"]["digest"]


def test_bitflip_on_observability_wire_is_masked():
    # w_icode mirrors committed state for the waveform only; its driver
    # recomputes a clean value on the next settle, so a transient flip
    # never reaches architectural state
    _result, record = _campaign_with(Fault(
        kind="transient_bitflip", module="y86_sum_cpu",
        target="w_icode", cycle=40, bit=2))
    assert record["outcome"] == "masked"
    assert record["fired"] == 1


def test_bitflip_in_stat_logic_is_detected():
    # flip SAOK (1) to SADR (3) in the writeback latch: the exception
    # gate freezes the machine with a non-golden stat
    cfg = SimConfig()
    cycle = _probe_cycle(cfg, lambda cpu: cpu.W["stat"] == SAOK)
    result, record = _campaign_with(Fault(
        kind="transient_bitflip", module="y86_sum_cpu",
        target="W[stat]", cycle=cycle, bit=1))
    assert record["outcome"] == "detected"
    assert result["histogram"]["detected"] == 1


def test_injected_infinite_loop_is_hang():
    # blow up the subq's loop-counter operand (valB = %rsi) while it
    # sits in execute: the countdown restarts from ~2^40, the tail
    # exceeds its cycle budget, and the watchdog classifies a hang
    cfg = SimConfig()
    cycle = _probe_cycle(cfg, lambda cpu: (
        cpu.E["icode"] == IOPQ and cpu.E["ifun"] == FN_SUB
        and cpu.E["stat"] == SAOK))
    result, record = _campaign_with(Fault(
        kind="transient_bitflip", module="y86_sum_cpu",
        target="E[valb]", cycle=cycle, bit=40))
    assert record["outcome"] == "hang"
    assert record["end_cycle"] == result["tail_budget"]
    assert result["histogram"]["hang"] == 1


def test_stuck_at_refires_across_its_window():
    _result, record = _campaign_with(Fault(
        kind="stuck_at_1", module="y86_sum_cpu", target="w_icode",
        cycle=30, bit=0, duration=4))
    assert record["fired"] == 4
    assert record["outcome"] == "masked"


def test_register_id_upset_above_the_port_width_is_classified():
    # register ids are sampled as 64-bit state sites, but the register
    # file's 4-bit ports only ever see the low bits: a flip above bit 3
    # must not index past the 16 entries and abort the whole campaign
    cycle = _probe_cycle(SimConfig(), lambda cpu: (
        cpu.W["stat"] == SAOK and cpu.W["dste"] != RNONE))
    _result, record = _campaign_with(Fault(
        kind="transient_bitflip", module="y86_sum_cpu",
        target="W[dste]", cycle=cycle, bit=5))
    assert record["fired"] == 1
    assert record["outcome"] == "masked"
    assert "error" not in record


def test_campaign_with_register_id_upsets_completes():
    # inject seed 2 samples register-id flips above the port width
    result = run_campaign("y86_sum", SimConfig(), n_faults=25,
                          inject_seed=2)
    assert sum(result["histogram"].values()) == 25


def test_enumerate_sites_is_deterministic():
    cfg = SimConfig()
    a = enumerate_sites(get_registry().build("y86_sum", cfg))
    b = enumerate_sites(get_registry().build("y86_sum", cfg))
    assert a == b
    assert any(s.family == "wire" for s in a)
    assert any(s.target == "registers[0]" for s in a)
    assert any(s.target == "E[vala]" for s in a)


# ---------------------------------------------------------------------------
# watchdogs
# ---------------------------------------------------------------------------
def test_wall_clock_watchdog_fires():
    sim = get_registry().build("streams", SimConfig())
    with pytest.raises(WatchdogTimeout, match="unsimulated"):
        advance(sim, 50_000_000, max_wall_time=0.05)
    assert 0 < sim.cycle < 50_000_000


def test_watchdog_spares_a_run_whose_last_cycle_lands_late(monkeypatch):
    # the budget is one more stop predicate, checked at every boundary:
    # a fake clock reading the cycle number makes the expiry exact
    from types import SimpleNamespace

    from repro.rtl import simulator

    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(simulator, "time",
                        SimpleNamespace(monotonic=lambda: clock.now))
    sim = get_registry().build("streams", SimConfig(engine="kernel"))

    def tick_clock(jump=0.0):
        clock.now = float(sim.cycle) + jump

    # expires at the boundary after the last cycle: completed work stands
    assert advance(sim, 30, stop=tick_clock, max_wall_time=29.5) == 30
    # expires mid-run: the pending cycles are cancelled
    with pytest.raises(WatchdogTimeout, match="at cycle 36: 4 of 10"):
        advance(sim, 10, stop=tick_clock, max_wall_time=5.5)
    # expired at the first boundary check: nothing runs
    with pytest.raises(WatchdogTimeout, match="at cycle 36: 5 of 5"):
        advance(sim, 5, stop=lambda: tick_clock(jump=1.0),
                max_wall_time=0.5)


def test_session_run_respects_max_wall_time():
    session = Session(SimConfig(max_wall_time=0.05, cycles=50_000_000))
    with pytest.raises(SimulationError):
        session.run("streams")


def test_max_wall_time_validation():
    with pytest.raises(ValueError):
        SimConfig(max_wall_time=-1.0)
    with pytest.raises(ValueError):
        SimConfig(max_wall_time=True)
    assert SimConfig(max_wall_time=2.5).max_wall_time == 2.5
    assert "max_wall_time" in SimConfig().to_dict()


def test_campaign_with_hang_faults_completes():
    """A whole campaign over hang-inducing faults terminates within its
    budget instead of spinning forever."""
    cfg = SimConfig()
    cycle = _probe_cycle(cfg, lambda cpu: (
        cpu.E["icode"] == IOPQ and cpu.E["ifun"] == FN_SUB
        and cpu.E["stat"] == SAOK))
    faults = [
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="E[valb]", cycle=cycle, bit=bit)
        for bit in (38, 40, 42)
    ]
    result = run_campaign("y86_sum", cfg, faults=faults)
    assert result["histogram"]["hang"] == 3
    assert all(r["end_cycle"] == result["tail_budget"]
               for r in result["outcomes"])
    assert result["tail_budget"] == max(
        default_budget(result["golden"]["cycles"]), cycle + 1)


# ---------------------------------------------------------------------------
# process-executor retry on killed workers
# ---------------------------------------------------------------------------
@job_kind("test_kamikaze")
def _kamikaze_job(spec):
    if spec.param("always_die"):
        os.kill(os.getpid(), signal.SIGKILL)
    sentinel = spec.param("sentinel")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("died once\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def test_process_executor_retries_killed_worker(tmp_path):
    sentinel = str(tmp_path / "kamikaze.marker")
    executor = ProcessExecutor(workers=1)
    spec = JobSpec(kind="test_kamikaze", name="k1",
                   params=(("sentinel", sentinel),))
    results = executor.run([spec])
    assert results["k1"] == "survived"
    assert executor.retries == 1


def test_process_executor_raises_after_retry_exhausted():
    # the worker dies on every attempt: the one retry is spent and the
    # failure surfaces as an ExecutorError naming the job, instead of
    # an opaque BrokenProcessPool
    executor = ProcessExecutor(workers=1)
    spec = JobSpec(kind="test_kamikaze", name="k2",
                   params=(("always_die", True),))
    with pytest.raises(ExecutorError) as info:
        executor.run([spec])
    assert executor.retries == _MAX_RETRIES == 1
    assert "k2" in str(info.value)


# ---------------------------------------------------------------------------
# server: job tracebacks, inject kind, client timeout
# ---------------------------------------------------------------------------
def _wait_state(job, states, timeout=30.0):
    import time
    deadline = time.monotonic() + timeout
    while job.state not in states:
        assert time.monotonic() < deadline, job.state
        time.sleep(0.01)


def test_job_queue_persists_worker_traceback(monkeypatch):
    q = JobQueue(workers=1).start()
    try:
        def boom(job):
            raise RuntimeError("boom")
        monkeypatch.setattr(q, "_execute", boom)
        job = q.submit({"kind": "run", "scenario": "streams",
                        "cycles": 10})
        _wait_state(job, ("failed",))
        assert "RuntimeError: boom" in job.error
        assert "Traceback (most recent call last)" in job.traceback
        assert "RuntimeError: boom" in job.traceback
        record = job.record()
        assert record["error"] == job.error
        assert record["traceback"] == job.traceback
    finally:
        q.shutdown()


def test_job_queue_runs_inject_kind():
    q = JobQueue(config=SimConfig(executor="serial"), workers=1).start()
    try:
        job = q.submit({"kind": "inject", "scenario": "y86_sum",
                        "faults": 3})
        _wait_state(job, ("done", "failed"))
        assert job.state == "done", (job.error, job.traceback)
        result = job.result_payload()
        assert sum(result["histogram"].values()) == 3
        assert result["faults"] == 3
        record = job.record()
        assert "traceback" not in record
    finally:
        q.shutdown()


def test_job_queue_validates_inject_submissions():
    q = JobQueue(workers=1)
    with pytest.raises(BadSubmission):
        q._job_from({"kind": "inject"})                 # no scenario
    with pytest.raises(BadSubmission):
        q._job_from({"kind": "inject", "scenario": "y86_sum",
                     "faults": 0})
    with pytest.raises(BadSubmission):
        q._job_from({"kind": "inject", "scenario": "y86_sum",
                     "stream": True})
    with pytest.raises(BadSubmission):
        q._job_from({"kind": "inject", "scenario": "y86_sum",
                     "tail_budget": -5})
    job = q._job_from({"kind": "inject", "scenario": "y86_sum",
                       "faults": 7, "inject_seed": 3, "tail_budget": 99})
    assert job.params == {"faults": 7, "inject_seed": 3,
                          "tail_budget": 99}


def test_client_timeout_is_clear_and_not_retried():
    from repro.server.client import ServerClient

    # a socket that completes TCP handshakes (listen backlog) but never
    # answers an HTTP request
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    _host, port = server.getsockname()
    try:
        client = ServerClient("127.0.0.1", port, timeout=0.2)
        with pytest.raises(TimeoutError) as info:
            client.health()
        message = str(info.value)
        assert f"127.0.0.1:{port}" in message
        assert "0.2" in message
        client.close()
    finally:
        server.close()


def test_client_timeout_is_configurable():
    from repro.server.client import ServerClient

    assert ServerClient().timeout == 60.0
    assert ServerClient(timeout=7.5).timeout == 7.5


def test_cli_inject_parses_timeout_and_campaign_flags():
    from repro.__main__ import build_parser

    args = build_parser().parse_args([
        "inject", "y86_sum", "--faults", "5", "--inject-seed", "9",
        "--tail-budget", "300", "--timeout", "12.5",
        "--max-wall-time", "4", "--executor", "serial"])
    assert args.faults == 5
    assert args.inject_seed == 9
    assert args.tail_budget == 300
    assert args.timeout == 12.5
    assert args.max_wall_time == 4.0
    assert args.fn.__name__ == "cmd_inject"


def test_arch_digest_is_engine_and_backend_independent():
    digests = set()
    for engine in ENGINES:
        for backend in BACKENDS:
            sim = get_registry().build(
                "y86_sum", SimConfig(engine=engine, backend=backend))
            cpu = _halt_module(sim)
            sim.run_until(lambda: cpu.halted, limit=1000)
            digests.add(_arch_digest(cpu.arch_state()))
    assert len(digests) == 1
