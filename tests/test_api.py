"""The unified run-time surface (`repro.api`) and the `python -m repro`
CLI: SimConfig validation, the scenario registry, Session runs/sweeps,
the deprecation shims (pinned bit-identical to the new path), and a
smoke pass over every CLI subcommand."""

import json
import os
import subprocess
import sys

import pytest

from repro import (
    RunResult,
    ScenarioRegistry,
    Session,
    SimConfig,
    Simulator,
    get_registry,
    list_scenarios,
    resolve_config,
)
from repro.__main__ import main as cli_main

#: small workloads throughout -- these tests pin behaviour, not perf
FAST = dict(stim=150, cycles=60)


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------
class TestSimConfig:
    def test_defaults(self, monkeypatch):
        # the executor/engine defaults are env-sensitive by design;
        # this test pins the unset behaviour (the CI smoke jobs run the
        # whole suite under REPRO_EXECUTOR=process and REPRO_ENGINE=
        # kernel)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        cfg = SimConfig()
        assert cfg.engine == "levelized"
        assert cfg.backend == "interp"
        assert cfg.parallel is None
        assert cfg.executor == "thread"
        assert cfg.jobs is None
        assert cfg.seed == 0
        assert cfg.stim is None
        assert not cfg.trace

    def test_executor_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert SimConfig().executor == "process"
        # an explicit value beats the environment
        assert SimConfig(executor="serial").executor == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "warp-drive")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            SimConfig()

    def test_unknown_engine_names_the_choices(self):
        with pytest.raises(ValueError, match="'levelized'"):
            SimConfig(engine="warp")

    def test_unknown_backend_names_the_choices(self):
        with pytest.raises(ValueError, match="'pycompiled'"):
            SimConfig(backend="llvm")

    @pytest.mark.parametrize("bad", [
        dict(cycles=0), dict(cycles=-5), dict(cycles="many"),
        dict(stim=0), dict(stim="lots"),
        dict(seed="abc"), dict(parallel="yes"),
        dict(executor="warp"), dict(jobs=0), dict(jobs="four"),
        dict(jobs=True),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SimConfig(**bad)

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(AttributeError):
            cfg.engine = "brute"

    def test_replace_revalidates(self):
        cfg = SimConfig().replace(engine="brute", seed=7)
        assert (cfg.engine, cfg.seed) == ("brute", 7)
        with pytest.raises(ValueError):
            cfg.replace(backend="bogus")

    def test_dict_roundtrip(self):
        cfg = SimConfig(engine="brute", backend="pycompiled", seed=3,
                        cycles=42, stim=99, trace=True)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="turbo"):
            SimConfig.from_dict({"turbo": True})

    def test_resolve_config_layers(self):
        base = SimConfig(seed=5)
        assert resolve_config(None) == SimConfig()
        assert resolve_config(base) is base
        assert resolve_config(base, backend="pycompiled").seed == 5
        assert resolve_config(Session(base)).seed == 5
        # None overrides are "not given", they never clobber the config
        assert resolve_config(base, seed=None).seed == 5
        with pytest.raises(TypeError):
            resolve_config("levelized")


# ---------------------------------------------------------------------------
# environment knobs: junk values fail loudly, never fall back silently
# ---------------------------------------------------------------------------
class TestEnvKnobGarbage:
    """Every ``REPRO_*`` tuning knob rejects garbage with one clear
    ValueError naming the variable and echoing the offending value --
    a typo'd override must never silently run the default path."""

    KNOBS = ("REPRO_ENGINE", "REPRO_EXECUTOR", "REPRO_PARALLEL")

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for var in self.KNOBS:
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("var", ["REPRO_ENGINE", "REPRO_EXECUTOR"])
    def test_config_construction_rejects_garbage(self, var, monkeypatch):
        monkeypatch.setenv(var, "garbage?!")
        with pytest.raises(ValueError, match=var) as exc:
            SimConfig()
        assert "garbage?!" in str(exc.value)

    def test_sweep_rejects_garbage_parallel(self, monkeypatch):
        # REPRO_PARALLEL is read at pool-sizing time, not construction
        monkeypatch.setenv("REPRO_PARALLEL", "garbage?!")
        session = Session(SimConfig(**FAST))
        with pytest.raises(ValueError, match="REPRO_PARALLEL") as exc:
            session.sweep(["streams"])
        assert "garbage?!" in str(exc.value)

    @pytest.mark.parametrize("var", ["REPRO_ENGINE", "REPRO_EXECUTOR",
                                     "REPRO_PARALLEL"])
    def test_cli_reports_garbage_and_exits_two(self, var, monkeypatch,
                                               capsys):
        monkeypatch.setenv(var, "garbage?!")
        assert cli_main(["run", "streams", "--cycles", "5"]) == 2
        err = capsys.readouterr().err
        assert var in err and "garbage?!" in err


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_bundled_scenarios_registered_with_tags(self):
        reg = get_registry()
        names = reg.names()
        for family in ("streams", "memory", "aes", "axi", "mmu",
                       "pipeline"):
            assert family in names
            assert f"anvil_{family}" in names
        for workload in ("sum", "sort", "memcpy"):
            assert f"y86_{workload}" in names
        assert reg.names("sweep") == ["sweep", "anvil_sweep"]
        assert set(reg.tags()) == {"rtl", "anvil", "sweep", "cpu"}
        assert len(reg.names("anvil", exclude="sweep")) == 6
        assert reg.names("cpu") == ["y86_sum", "y86_sort", "y86_memcpy"]
        assert list_scenarios() == names

    def test_unknown_name_suggests_and_enumerates(self):
        with pytest.raises(KeyError) as exc:
            get_registry().get("anvil_aess")
        msg = str(exc.value)
        assert "did you mean" in msg and "anvil_aes" in msg

    def test_decorator_registration_and_duplicates(self):
        reg = ScenarioRegistry()

        @reg.scenario("toy", tags=("rtl", "tiny"))
        def build_toy(engine="levelized", seed=0, stim=10, sim=None,
                      backend="interp"):
            """A toy scenario."""
            return sim or Simulator("toy", engine=engine)

        assert "toy" in reg and len(reg) == 1
        assert reg.get("toy").description == "A toy scenario."
        assert reg.get("toy").tags == frozenset({"rtl", "tiny"})
        sim = reg.build("toy", SimConfig(engine="brute"))
        assert sim.engine == "brute"
        with pytest.raises(ValueError, match="already registered"):
            reg.add("toy", build_toy)

    def test_build_threads_the_whole_config(self):
        sim = get_registry().build(
            "anvil_memory",
            SimConfig(engine="brute", backend="pycompiled", seed=4,
                      stim=100))
        assert sim.engine == "brute"
        anvil = [m for m in sim.modules if hasattr(m, "plan")]
        assert anvil and all(m.backend == "pycompiled" for m in anvil)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
class TestSession:
    def test_run_returns_structured_result(self):
        result = Session(SimConfig(**FAST)).run("streams")
        assert isinstance(result, RunResult)
        assert result.scenario == "streams"
        assert result.cycles == FAST["cycles"] == result.sim.cycle
        assert result.total_activity == sum(result.activity.values()) > 0
        assert result.seconds > 0 and result.cycles_per_second > 0
        assert result.trace is None
        assert result.diagnostics["modules"] == len(result.sim.modules)
        blob = result.to_dict(include_activity=True)
        assert blob["config"]["cycles"] == FAST["cycles"]
        assert sum(blob["activity"].values()) == result.total_activity

    def test_trace_renders_waveform(self):
        result = Session(SimConfig(trace=True, stim=50, cycles=20)).run(
            "streams")
        assert "st.out.data" in result.trace
        assert result.to_dict()["trace"] == result.trace

    def test_per_call_overrides_do_not_mutate_the_session(self):
        session = Session(SimConfig(**FAST))
        result = session.run("anvil_memory", backend="pycompiled",
                             cycles=30)
        assert result.config.backend == "pycompiled"
        assert result.cycles == 30
        assert session.config.backend == "interp"

    def test_with_config_derives_a_new_session(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        a = Session()
        b = a.with_config(engine="brute")
        assert a.config.engine == "levelized"
        assert b.config.engine == "brute"

    def test_sweep_by_tag(self):
        results = Session(SimConfig(**FAST)).sweep(tag="anvil",
                                                   cycles=40)
        assert list(results) == get_registry().names("anvil",
                                                     exclude="sweep")
        assert all(r.cycles == 40 for r in results.values())
        assert all(r.total_activity > 0 for r in results.values())

    def test_sweep_matches_individual_runs(self):
        session = Session(SimConfig(**FAST))
        swept = session.sweep(["streams", "memory"])
        for name in ("streams", "memory"):
            solo = session.run(name)
            assert swept[name].activity == solo.activity
            assert (swept[name].waveform.samples
                    == solo.waveform.samples)

    def test_bench_reports_equivalent_speedup_rows(self):
        cfg = SimConfig(stim=100, cycles=50)
        rows = Session(cfg).bench(["streams"], warmup=5)
        (row,) = rows
        assert row["scenario"] == "streams"
        assert row["equivalent"] is True
        assert row["speedup"] > 0
        assert row["baseline"]["config"]["engine"] == "brute"
        # the configured side carries the resolved session engine
        # (levelized unless REPRO_ENGINE says otherwise)
        assert row["configured"]["config"]["engine"] == cfg.engine

    def test_unknown_scenario_raises_actionably(self):
        with pytest.raises(KeyError, match="known scenarios"):
            Session().run("nonesuch")


# ---------------------------------------------------------------------------
# deprecation shims: old kwargs path pinned bit-identical to the new one
# ---------------------------------------------------------------------------
class TestDeprecationShims:
    def _state(self, sim, cycles):
        sim.run(cycles)
        return sim.activity, sim.waveform.samples

    @pytest.mark.parametrize("name", ["memory", "anvil_pipeline"])
    def test_build_scenario_shims_match_session(self, name):
        from repro.harness.scenarios import (
            build_anvil_scenario,
            build_scenario,
        )

        cfg = SimConfig(seed=3, stim=150, backend="pycompiled")
        new = self._state(get_registry().build(name, cfg), 60)
        with pytest.warns(DeprecationWarning):
            if name.startswith("anvil_"):
                old_sim = build_anvil_scenario(
                    name.removeprefix("anvil_"), seed=3, stim=150,
                    backend="pycompiled")
            else:
                old_sim = build_scenario(name, seed=3, stim=150,
                                         backend="pycompiled")
        assert self._state(old_sim, 60) == new

    def test_sweep_shims_match_registered_sweeps(self):
        from repro.harness.scenarios import build_anvil_sweep, build_sweep

        session = Session(SimConfig(seed=2, stim=80))
        for shim, name in ((build_sweep, "sweep"),
                           (build_anvil_sweep, "anvil_sweep")):
            new = self._state(session.build(name), 30)
            with pytest.warns(DeprecationWarning):
                old_sim = shim(seed=2, stim=80)
            assert self._state(old_sim, 30) == new

    def test_add_scenario_legacy_kwargs_match_config_path(self):
        from repro import BatchSimulator

        batch = BatchSimulator(parallel=False)
        batch.add_scenario("memory", SimConfig(seed=1, stim=120),
                           as_name="via_config")
        batch.add_scenario("memory", seed=1, stim=120,
                           as_name="via_kwargs")
        # the old positional-engine call shape still resolves
        batch.add_scenario("memory", "levelized", seed=1, stim=120,
                           as_name="via_positional")
        batch.run(50)
        acts = batch.total_activity()
        assert acts["via_config"] == acts["via_kwargs"] \
            == acts["via_positional"] > 0

    def test_add_scenario_anvil_flag_maps_to_registry_name(self):
        from repro import BatchSimulator

        batch = BatchSimulator(parallel=False)
        sim = batch.add_scenario("aes", stim=64, anvil=True)
        assert sim.name == "anvil_aes"

    def test_harness_driver_kwargs_match_config(self):
        from repro.harness import generate_table1, generate_table2

        cfg = SimConfig(backend="pycompiled", parallel=False)
        assert generate_table1(fast=True, parallel=False) \
            == generate_table1(fast=True, config=cfg)
        assert generate_table2(parallel=False, backend="pycompiled") \
            == generate_table2(config=cfg)

    def test_legacy_scenario_dicts_still_enumerate(self):
        from repro.harness.scenarios import ANVIL_SCENARIOS, SCENARIOS

        assert set(SCENARIOS) == set(ANVIL_SCENARIOS) \
            == {"streams", "memory", "aes", "axi", "mmu", "pipeline"}


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
def _cli_json(capsys, argv):
    assert cli_main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestCli:
    def test_list_scenarios_matches_registry(self, capsys):
        payload = _cli_json(capsys, ["list-scenarios"])
        assert [s["name"] for s in payload] == get_registry().names()
        assert cli_main(["list-scenarios", "--tag", "anvil"]) == 0
        out = capsys.readouterr().out
        assert "anvil_aes" in out and "streams [" not in out

    def test_run_json_roundtrips(self, capsys):
        payload = _cli_json(capsys, [
            "run", "streams", "--cycles", "50", "--stim", "100",
            "--activity",
        ])
        assert payload["scenario"] == "streams"
        assert payload["cycles"] == 50
        assert payload["config"]["stim"] == 100
        assert sum(payload["activity"].values()) \
            == payload["total_activity"] > 0

    def test_run_trace_prints_waveform(self, capsys):
        assert cli_main(["run", "streams", "--cycles", "20",
                         "--stim", "40", "--trace"]) == 0
        assert "st.out.data" in capsys.readouterr().out

    def test_run_unknown_scenario_is_a_clean_error(self, capsys):
        assert cli_main(["run", "nonesuch", "--cycles", "10"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_run_rejects_sweep_only_executor_flags(self, capsys):
        # a single run has no sweep: it must not accept (and then
        # silently ignore) the executor knobs
        with pytest.raises(SystemExit):
            cli_main(["run", "streams", "--executor", "process"])
        assert "--executor" in capsys.readouterr().err

    def test_invalid_config_value_is_a_clean_error(self, capsys):
        assert cli_main(["run", "streams", "--cycles", "0"]) == 2
        assert "cycles must be" in capsys.readouterr().err

    def test_unknown_tag_fails_in_both_output_modes(self, capsys):
        assert cli_main(["list-scenarios", "--tag", "nosuch"]) == 1
        assert cli_main(["list-scenarios", "--tag", "nosuch",
                         "--json"]) == 1
        assert "known tags" in capsys.readouterr().err

    def test_harness_json_echoes_only_consumed_config(self, capsys):
        payload = _cli_json(capsys, ["table1", "--fast"])
        assert set(payload["config"]) == {"engine", "backend", "parallel",
                                          "executor", "jobs"}
        payload = _cli_json(capsys, ["appendix-a", "--fast"])
        assert set(payload["config"]) == {"engine", "backend"}

    def test_sweep_json(self, capsys):
        payload = _cli_json(capsys, [
            "sweep", "streams", "memory", "--cycles", "40",
            "--stim", "80",
        ])
        assert set(payload["result"]) == {"streams", "memory"}
        assert payload["config"]["cycles"] == 40

    def test_bench_json(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        payload = _cli_json(capsys, [
            "bench", "streams", "--cycles", "40", "--stim", "80",
            "--warmup", "5",
        ])
        (row,) = payload["result"]
        assert row["equivalent"] is True
        assert payload["config"]["engine"] == "levelized"

    def test_table1_fast_json(self, capsys):
        payload = _cli_json(capsys, ["table1", "--fast"])
        rows = payload["result"]
        assert len(rows) == 10
        assert {"design", "area_overhead"} <= set(rows[0])

    def test_table2_json(self, capsys):
        payload = _cli_json(capsys, ["table2", "--parallel", "0"])
        assert payload["result"]["opentitan"]["unsafe_rejected"]
        assert not payload["result"]["stream_fifo"]["anvil_data_lost"]

    def test_appendix_a_fast_json(self, capsys):
        payload = _cli_json(capsys, ["appendix-a", "--fast"])
        result = payload["result"]
        assert result["anvil"]["verdict"] == "rejected"
        assert result["bmc_reduced_width"]["found_violation"]
        assert not result["bmc_full_width"]["found_violation"]

    def test_figures_smoke(self, capsys):
        assert cli_main(["figures", "--parallel", "0"]) == 0
        out = capsys.readouterr().out
        for fig in ("figure1", "figure2_bsv", "figure4", "figure8"):
            assert fig in out

    def test_json_to_path(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert cli_main(["run", "memory", "--cycles", "30",
                         "--stim", "60", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "memory"

    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list-scenarios"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for name in get_registry().names():
            assert name in proc.stdout
