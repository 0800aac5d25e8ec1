"""A Python reproduction of REFLEX.

*Automating Formal Proofs for Reactive Systems* (Ricketts, Robert, Jang,
Tatlock, Lerner — PLDI 2014) introduced REFLEX, a DSL for the kernels of
privilege-separated reactive systems co-designed with proof automation so
that user-stated safety and security properties verify with **zero manual
proof**.  This package rebuilds the whole system in Python:

* :mod:`repro.lang` — the DSL: types, AST, validation, builders,
* :mod:`repro.frontend` — concrete syntax (Figure 3 style): parser and
  pretty-printer,
* :mod:`repro.runtime` — the interpreter, ghost traces, the simulated
  world of sandboxed components, and the trace replay that checks a run
  against the behavioral abstraction,
* :mod:`repro.props` — action patterns, the five trace primitives, and
  non-interference labelings,
* :mod:`repro.symbolic` — terms, a path-condition solver, symbolic
  evaluation, and the behavioral abstraction ``BehAbs``,
* :mod:`repro.prover` — the proof automation (induction over BehAbs,
  branch-condition invariant inference, lookup bridges, NI conditions)
  plus an independent proof checker,
* :mod:`repro.systems` — the seven benchmark kernels with all 41 paper
  properties,
* :mod:`repro.harness` — regeneration of every table and figure.

Quickstart::

    from repro import parse_program, Verifier

    spec = parse_program(REFLEX_SOURCE)       # parse + validate
    report = Verifier(spec).verify_all()      # pushbutton verification
    assert report.all_proved

    from repro import World, Interpreter
    world = World(seed=0)
    ...                                        # register components
    interp = Interpreter(spec.info, world)
    state = interp.run_init()
    interp.run(state)                          # the reactive event loop
"""

from .frontend import parse_program, pretty
from .lang import ProgramInfo, ReflexError, validate
from .lang.builder import ProgramBuilder
from .props import (
    NonInterference,
    SpecifiedProgram,
    TraceProperty,
    specify,
)
from .prover import (
    PropertyResult,
    ProverOptions,
    VerificationReport,
    Verifier,
    prove,
    verify,
)
from .runtime import (
    AbstractionChecker,
    Interpreter,
    ScriptedBehavior,
    Trace,
    World,
    run_program,
)

__version__ = "0.1.0"

__all__ = [
    "parse_program",
    "pretty",
    "ProgramInfo",
    "ReflexError",
    "validate",
    "ProgramBuilder",
    "NonInterference",
    "SpecifiedProgram",
    "TraceProperty",
    "specify",
    "PropertyResult",
    "ProverOptions",
    "VerificationReport",
    "Verifier",
    "prove",
    "verify",
    "Interpreter",
    "ScriptedBehavior",
    "Trace",
    "World",
    "run_program",
    "AbstractionChecker",
    "__version__",
]
