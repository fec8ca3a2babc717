"""repro -- a Python reproduction of *Anvil: A General-Purpose Timing-Safe
Hardware Description Language* (ASPLOS 2026).

The package implements the complete system described in the paper:

* :mod:`repro.lang` -- the Anvil language: channels with timing contracts,
  processes, threads and the term DSL (``send``/``recv``/``cycle``/``let``/
  the wait operator ``>>``).
* :mod:`repro.core` -- the event-graph IR and the type system that
  statically guarantees timing safety (lifetimes, loan times, the
  ``<=G`` oracle, optimization passes).
* :mod:`repro.codegen` -- FSM lowering, an executable FSM interpreter and
  SystemVerilog emission.
* :mod:`repro.rtl` -- a two-phase cycle-based RTL simulator substrate.
* :mod:`repro.designs` / :mod:`repro.anvil_designs` -- the paper's ten
  evaluation designs as hand-written RTL baselines and as Anvil programs.
* :mod:`repro.bsv`, :mod:`repro.verif`, :mod:`repro.semantics`,
  :mod:`repro.synth` -- the comparison substrates (rule scheduling, bounded
  model checking, execution-log semantics, synthesis cost model).
* :mod:`repro.harness` -- regenerates every table and figure of the paper.
* :mod:`repro.api` -- the unified run-time surface: one validated
  :class:`~repro.api.SimConfig`, a :class:`~repro.api.Session` that
  builds/runs/sweeps registered scenarios, and the scenario registry
  behind the ``python -m repro`` CLI (:mod:`repro.__main__`).

Quickstart::

    from repro import *

    ch = simple_channel("mem_ch")
    top = Process("top")
    top.endpoint("mem", ch, Side.LEFT)
    top.register("addr", Logic(8))
    top.loop(
        send("mem", "req", read("addr"))
        >> let("d", recv("mem", "res"),
               var("d") >> set_reg("addr", read("addr") + 1))
    )
    assert_safe(top)            # static timing-safety check
    print(to_systemverilog(top))

Running the bundled workloads::

    from repro import Session, SimConfig

    session = Session(SimConfig(backend="pycompiled"))
    print(session.run("anvil_aes", cycles=500).total_activity)
"""

from .errors import (
    AnvilError,
    ContractViolationError,
    ElaborationError,
    LoanedRegisterMutationError,
    MessageSendError,
    ParseError,
    SimulationError,
    TypeCheckError,
    ValueNotLiveError,
)
from .lang.channels import (
    ChannelDef,
    DependentSync,
    DynamicSync,
    LifetimeSpec,
    MessageDef,
    Side,
    StaticSync,
    simple_channel,
)
from .lang.process import Process, System, Thread
from .lang.terms import (
    Term,
    bundle,
    cycle,
    dprint,
    if_,
    let,
    lit,
    mux,
    par,
    read,
    ready,
    recurse,
    recv,
    send,
    seq,
    set_reg,
    unit,
    var,
)
from .lang.types import BIT, Bundle, DataType, Logic
from .core.typecheck import CheckReport, assert_safe, check_process
from .core.graph_builder import build_thread
from .core.optimize import optimize
from .codegen.simfsm import (
    AnvilProcessModule,
    ExternalEndpoint,
    build_simulation,
    compile_process,
)
from .codegen.sysverilog import emit_process as to_systemverilog
from .codegen.sysverilog import emit_system
from .lang.parser import parse, parse_process
from .rtl.simulator import Simulator
from .rtl.scheduler import CombScheduler   # kept importable, not in __all__
from .rtl.executors import run_batch
from .rtl.module import Module
from .rtl.signal import Wire               # kept importable, not in __all__
from .api import (
    RunResult,
    Scenario,
    ScenarioRegistry,
    Session,
    SimConfig,
    UnknownScenarioError,
    get_registry,
    list_scenarios,
    resolve_config,
)

__version__ = "1.0.0"

__all__ = [
    "AnvilError", "ContractViolationError", "ElaborationError",
    "LoanedRegisterMutationError", "MessageSendError", "ParseError",
    "SimulationError", "TypeCheckError", "ValueNotLiveError",
    "ChannelDef", "DependentSync", "DynamicSync", "LifetimeSpec",
    "MessageDef", "Side", "StaticSync", "simple_channel",
    "Process", "System", "Thread",
    "Term", "bundle", "cycle", "dprint", "if_", "let", "lit", "mux", "par",
    "read", "ready", "recurse", "recv", "send", "seq", "set_reg", "unit",
    "var",
    "BIT", "Bundle", "DataType", "Logic",
    "CheckReport", "assert_safe", "check_process", "build_thread",
    "optimize",
    "AnvilProcessModule", "build_simulation",
    "compile_process", "to_systemverilog", "emit_system",
    "parse", "parse_process",
    "Simulator", "run_batch", "Module",
    # the unified run-time API (repro.api)
    "SimConfig", "Session", "RunResult",
    "Scenario", "ScenarioRegistry", "UnknownScenarioError",
    "get_registry", "list_scenarios", "resolve_config",
    "__version__",
]
