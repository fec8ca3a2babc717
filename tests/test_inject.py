"""Fault injection: deterministic campaigns, hand-placed outcomes,
watchdogs, executor retry, server traceback/timeout plumbing."""

import functools
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
PIPELINE_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                    "inject_anvil_pipeline_25.json")
SORT_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                "inject_y86_sort_25.json")
ALL_PAIRS = [(engine, backend) for engine in ENGINES
             for backend in BACKENDS]


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


@functools.lru_cache(maxsize=None)
def _serial_campaign(scenario, config, n_faults):
    return _normalized(run_campaign(
        scenario, SimConfig(executor="serial", **dict(config)),
        n_faults=n_faults))


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("scenario,config,n_faults", [
    ("y86_sum", (), 25),
    ("y86_sum", (), 7),
    ("y86_sort", (("cycles", 2000), ("engine", "kernel"),
                  ("backend", "pycompiled")), 25),
    ("anvil_pipeline", (("cycles", 300), ("stim", 400)), 25),
], ids=["y86_sum-25", "y86_sum-7", "y86_sort-25", "anvil_pipeline-25"])
def test_sharded_process_campaign_matches_serial(scenario, config, n_faults,
                                                 jobs):
    """Every shard walks the whole plan's golden checkpoints, so the
    merged result -- ``converged_at`` included -- is the serial one."""
    sharded = Session(SimConfig(executor="process", jobs=jobs,
                                **dict(config))) \
        .inject_campaign(scenario, faults=n_faults)
    assert _normalized(sharded) == _serial_campaign(scenario, config,
                                                    n_faults)


def test_sharded_campaign_builds_nothing_in_the_parent(monkeypatch):
    from repro.api import ScenarioRegistry

    parent, build = os.getpid(), ScenarioRegistry.build

    def build_in_workers_only(registry, *args, **kwargs):
        assert os.getpid() != parent, "the parent built a simulator"
        return build(registry, *args, **kwargs)

    monkeypatch.setattr(ScenarioRegistry, "build", build_in_workers_only)
    result = Session(SimConfig(executor="process", jobs=2)) \
        .inject_campaign("y86_sum", faults=5)
    assert [rec["index"] for rec in result["outcomes"]] == list(range(5))


def test_sharded_campaign_refuses_shards_that_disagree(monkeypatch):
    import repro.api

    run_batch = repro.api.run_batch

    def skewed(specs, executor, workers):
        runs = run_batch(specs, "serial", workers)
        runs[specs[-1].name]["tail_budget"] += 1
        return runs

    monkeypatch.setattr(repro.api, "run_batch", skewed)
    with pytest.raises(SimulationError, match="shards disagree"):
        Session(SimConfig(executor="process", jobs=2)) \
            .inject_campaign("y86_sum", faults=4)


@pytest.mark.parametrize("shard", [(1, 3), (2, 3), (0, 1)])
def test_a_shard_is_the_serial_campaign_over_its_slice(shard):
    whole = run_campaign("y86_sum", SimConfig(), n_faults=7)
    part = run_campaign("y86_sum", SimConfig(), n_faults=7, shard=shard)
    index, count = shard
    assert part["outcomes"] == \
        whole["outcomes"][7 * index // count:7 * (index + 1) // count]
    assert (part["golden"], part["tail_budget"], part["faults"]) == \
        (whole["golden"], whole["tail_budget"], len(part["outcomes"]))


@pytest.mark.parametrize("kwargs,named", [
    ({"tail_budget": -5}, "tail budget must be a positive cycle count, "
                          "got -5"),
    ({"tail_budget": 0}, "got 0"),
    ({"n_faults": 0}, "fault count must be positive, got 0"),
    ({"shard": (3, 3)}, r"shard \(3, 3\)"),
])
def test_campaign_inputs_are_validated(kwargs, named, monkeypatch):
    from repro.api import ScenarioRegistry

    def no_build(*_args, **_kwargs):
        raise AssertionError("built a simulator for invalid inputs")

    monkeypatch.setattr(ScenarioRegistry, "build", no_build)
    with pytest.raises(SimulationError, match=named):
        run_campaign("y86_sum", SimConfig(), **kwargs)


@pytest.mark.parametrize("flags,named", [
    (["--tail-budget", "-5"], "got -5"),
    (["--tail-budget", "0"], "got 0"),
    (["--faults", "0"], "fault count must be positive"),
    (["--tail-budget", "0", "--executor", "process", "--jobs", "2"],
     "got 0"),
], ids=["negative-budget", "zero-budget", "zero-faults",
        "zero-budget-sharded"])
def test_cli_inject_rejects_invalid_campaign_inputs(flags, named, capsys):
    from repro.__main__ import main

    code = main(["inject", "y86_sum", "--faults", "5", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scenario,config,pairs", [
    ("y86_sum", {}, ALL_PAIRS),
    ("y86_sort", {"cycles": 2000},
     [("brute", "interp"), ("kernel", "pycompiled")]),
    ("anvil_pipeline", {"cycles": 300, "stim": 400}, ALL_PAIRS),
], ids=["y86_sum", "y86_sort", "anvil_pipeline"])
def test_forked_injection_matches_cold_start(scenario, config, pairs):
    """A tail forked from a warm prefix snapshot must classify exactly
    as a cold run injecting the same fault at the same cycle and running
    its full tail -- also when the fork stopped early because it
    re-converged with the golden run."""
    converged = set()
    for engine, backend in pairs:
        cfg = SimConfig(engine=engine, backend=backend, **config)
        result = run_campaign(scenario, cfg, n_faults=6)
        budget = result["tail_budget"]
        for record in result["outcomes"]:
            fault = Fault.from_dict({
                k: record[k] for k in ("kind", "module", "target",
                                       "cycle", "bit", "width",
                                       "duration")})
            sim = get_registry().build(scenario, cfg)
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
            assert outcome == record["outcome"], (engine, backend, fault)
            assert digest == record["digest"], (engine, backend, fault)
            assert sim.cycle == record["end_cycle"]
            assert injector.fired == record["fired"]
            if record["converged_at"] is not None:
                assert record["converged_at"] >= fault.cycle + \
                    fault.duration
            converged.add(record["converged_at"] is not None)
    assert converged == {True, False}


def test_pinned_golden_histogram():
    """The CI smoke campaign's classification histogram, pinned."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    result = run_campaign("y86_sum", SimConfig(), n_faults=25)
    assert result["histogram"] == golden["histogram"]
    assert result["golden"] == golden["golden"]
    assert result["tail_budget"] == golden["tail_budget"]


@pytest.mark.parametrize("path,scenario,config", [
    (PIPELINE_GOLDEN_PATH, "anvil_pipeline", {"cycles": 300, "stim": 400}),
    (SORT_GOLDEN_PATH, "y86_sort",
     {"cycles": 2000, "engine": "kernel", "backend": "pycompiled"}),
], ids=["anvil_pipeline", "y86_sort"])
def test_pinned_campaign_outcomes(path, scenario, config):
    """Campaigns pinned fault by fault.  ``anvil_pipeline`` is
    classified on whole-simulator state rather than a CPU halt and has
    endpoint send queues and activation dedup merges; its golden omits
    the ``digest`` strings, which move with the snapshot layout.
    ``y86_sort`` is a long CPU run whose tails mostly re-converge with
    the golden run before the halt; its architectural digests are
    layout-independent, so they are pinned too."""
    with open(path) as fh:
        golden = json.load(fh)
    result = run_campaign(scenario, SimConfig(**config), n_faults=25)
    assert result["histogram"] == golden["histogram"]
    assert result["tail_budget"] == golden["tail_budget"]
    assert {k: result["golden"][k] for k in golden["golden"]} \
        == golden["golden"]
    fields = golden["outcomes"][0].keys()
    assert [{k: rec[k] for k in fields}
            for rec in result["outcomes"]] == golden["outcomes"]
    assert any(rec["converged_at"] is not None
               for rec in result["outcomes"])


def test_crashing_tail_aborts_naming_the_fault(capsys):
    """An upset FIFO pointer in the rtl ``streams`` family indexes past
    its storage: the campaign cannot classify that, so ``inject`` exits
    2 with one error line naming the fault and the raising file."""
    from repro.__main__ import main

    code = main(["inject", "streams", "--faults", "40", "--cycles", "300",
                 "--stim", "400"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "fault 6 (stuck_at_1 on st_pfifo2.rptr at cycle 47)" in err
    assert "IndexError" in err and "designs/streams.py" in err


def test_cli_golden_run_that_does_not_halt_names_the_limit(capsys):
    """y86_sort halts at cycle 1456, past the default 1000-cycle limit:
    the error names the scenario and the limit and says how to raise
    it."""
    from repro.__main__ import main

    code = main(["inject", "y86_sort", "--faults", "25"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: y86_sort: ") and err.count("\n") == 1
    assert "golden run did not halt within 1000 cycles" in err
    assert "--cycles" in err


def test_unarmable_fault_aborts_naming_the_fault():
    fault = Fault("transient_bitflip", "anvil_systolic", "no_such_site", 5)
    with pytest.raises(SimulationError,
                       match=r"fault 0 \(transient_bitflip on "
                             r"anvil_systolic\.no_such_site at cycle 5\)"):
        run_campaign("anvil_pipeline", SimConfig(cycles=20, stim=40),
                     faults=[fault])


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


def test_tails_past_their_budget_never_stop_early():
    # y86_sort halts at cycle 1456, after this campaign's tail budget:
    # every tail is a hang at the budget, re-converged or not
    result = run_campaign(
        "y86_sort", SimConfig(engine="kernel", backend="pycompiled",
                              cycles=4000),
        n_faults=10, inject_seed=1, tail_budget=1000)
    assert result["tail_budget"] == 1204
    assert result["histogram"]["hang"] == 10
    assert all(rec["end_cycle"] == 1204 and rec["converged_at"] is None
               for rec in result["outcomes"])


def test_stuck_at_window_is_not_compared_before_it_closes():
    # stuck-at-0 on a bit that is 0 anyway leaves the golden state
    # untouched, so a comparison at the checkpoint inside its window
    # (cycle 32) would match there; the tail must wait for the window
    # to close and re-converge at the next checkpoint instead
    faults = [
        Fault(kind="stuck_at_0", module="y86_sum_cpu", target="instret",
              cycle=30, bit=60, width=2, duration=4),
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="w_icode", cycle=32, bit=2),
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="w_icode", cycle=50, bit=2),
    ]
    result = run_campaign("y86_sum", SimConfig(), faults=faults)
    stuck = result["outcomes"][0]
    assert stuck["fired"] == 4
    assert stuck["converged_at"] == 50
    assert stuck["outcome"] == "masked"
    assert stuck["end_cycle"] == result["golden"]["cycles"]


def test_tail_deadline_is_not_renewed_at_checkpoints(monkeypatch):
    # a fake clock reading the simulator's cycle makes the watchdog
    # exact: the hang fault's tail starts at cycle 17 with a 50.5-cycle
    # budget, so it must be cancelled at cycle 68 -- not 51 cycles after
    # the checkpoint at 30 it is compared against on the way
    from types import SimpleNamespace

    from repro.rtl import simulator

    clock = SimpleNamespace(sim=None)
    monkeypatch.setattr(simulator, "time", SimpleNamespace(
        monotonic=lambda: float(clock.sim.cycle) if clock.sim else 0.0))
    arm = FaultInjector.arm

    def arm_and_watch(injector, sim):
        clock.sim = sim
        return arm(injector, sim)

    monkeypatch.setattr(FaultInjector, "arm", arm_and_watch)
    faults = [
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="E[valb]", cycle=17, bit=40),
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="w_icode", cycle=30, bit=2),
        Fault(kind="transient_bitflip", module="y86_sum_cpu",
              target="w_icode", cycle=80, bit=2),
    ]
    result = run_campaign("y86_sum", SimConfig(max_wall_time=50.5),
                          faults=faults)
    hang, masked, late = result["outcomes"]
    assert (hang["outcome"], hang["end_cycle"]) == ("hang", 68)
    assert (masked["outcome"], masked["converged_at"]) == ("masked", 80)
    assert (late["outcome"], late["end_cycle"]) == ("masked", 122)


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


@pytest.mark.parametrize("kind", ["run", "inject"])
def test_job_queue_scenario_errors_name_the_kind_and_suggest(kind):
    q = JobQueue(workers=1)
    with pytest.raises(BadSubmission,
                       match=f"^{kind} jobs need a scenario name$"):
        q._job_from({"kind": kind, "scenario": ""})
    with pytest.raises(BadSubmission,
                       match=r"^unknown scenario 'y86_summ' \(did you "
                             r"mean 'y86_sum'"):
        q._job_from({"kind": kind, "scenario": "y86_summ"})


def test_cli_inject_on_a_server_matches_a_local_campaign(tmp_path):
    from repro.__main__ import main

    server = Session().serve(port=0, background=True)
    try:
        remote = tmp_path / "remote.json"
        assert main(["inject", "y86_sum", "--faults", "5", "--server",
                     f"127.0.0.1:{server.port}", "--json",
                     str(remote)]) == 0
    finally:
        server.close()
    local = tmp_path / "local.json"
    assert main(["inject", "y86_sum", "--faults", "5", "--json",
                 str(local)]) == 0
    results = [json.loads(path.read_text())["result"]
               for path in (remote, local)]
    assert _normalized(results[0]) == _normalized(results[1])


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
