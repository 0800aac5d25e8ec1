"""Property declarations and specified programs.

A :class:`TraceProperty` is one line of a REFLEX ``Properties`` section:
a name, a primitive, and two action patterns.  A :class:`NonInterference`
declaration carries the paper's labeling functions: θc (component labeling,
expressed as patterns that select the *high* components, possibly
parameterized by universally quantified variables such as a browser
domain) and θv (the set of *high* global variables, section 5.2).

:class:`SpecifiedProgram` bundles a validated program with its properties
and re-validates the patterns against the program's declarations — name
mismatches and arity errors in properties are caught here rather than by a
failing proof, which is the DSL-frontend discipline the paper advocates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from ..lang.errors import ValidationError
from ..lang.validate import ProgramInfo
from . import tracepreds
from .patterns import (
    ActionPattern,
    CallPat,
    CompPat,
    MsgPat,
    PVar,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
)


@dataclass(frozen=True)
class TraceProperty:
    """``name: [A] primitive [B]`` with an optional human description."""

    name: str
    primitive: str
    a: ActionPattern
    b: ActionPattern
    description: str = ""

    def __str__(self) -> str:
        return f"{self.name}: [{self.a}] {self.primitive} [{self.b}]"

    def holds_on(self, trace) -> bool:
        """Oracle check on a concrete trace."""
        return tracepreds.holds(self.primitive, self.a, self.b, trace)

    def violations_on(self, trace):
        """Counterexamples on a concrete trace."""
        return tracepreds.violations(self.primitive, self.a, self.b, trace)


@dataclass(frozen=True)
class NonInterference:
    """A non-interference declaration (paper sections 4.2 and 5.2).

    ``high_patterns`` select the high components (θc maps a component to
    *high* iff some pattern matches its type and configuration); everything
    else is low.  ``high_vars`` is θv, the set of high global variables.
    ``params`` are universally quantified labeling parameters: the browser's
    "different domains do not interfere" is expressed with high patterns
    ``Tab(?d)``/``CookieProc(?d)`` and ``params=("d",)`` — NI must hold for
    every instantiation of ``d``.
    """

    name: str
    high_patterns: Tuple[CompPat, ...]
    high_vars: FrozenSet[str] = frozenset()
    params: Tuple[str, ...] = ()
    description: str = ""

    def __str__(self) -> str:
        pats = ", ".join(str(p) for p in self.high_patterns)
        quant = f"forall {', '.join(self.params)}. " if self.params else ""
        return f"{self.name}: {quant}NoInterference high=[{pats}] " \
               f"highvars={sorted(self.high_vars)}"


Property = Union[TraceProperty, NonInterference]


@dataclass(frozen=True)
class SpecifiedProgram:
    """A validated program together with its validated properties.

    This is the unit the prover, the harness and the examples all consume:
    the whole content of one REFLEX source file.
    """

    info: ProgramInfo
    properties: Tuple[Property, ...] = ()

    @property
    def program(self):
        return self.info.program

    @property
    def name(self) -> str:
        return self.info.program.name

    def trace_properties(self) -> Tuple[TraceProperty, ...]:
        return tuple(
            p for p in self.properties if isinstance(p, TraceProperty)
        )

    def ni_properties(self) -> Tuple[NonInterference, ...]:
        return tuple(
            p for p in self.properties if isinstance(p, NonInterference)
        )

    def property_named(self, name: str) -> Property:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Validation of properties against a program
# ---------------------------------------------------------------------------


def _check_comp_pat(pat: CompPat, info: ProgramInfo, where: str) -> None:
    decl = info.comp_table.get(pat.ctype)
    if decl is None:
        raise ValidationError(
            f"{where}: pattern mentions undeclared component type "
            f"{pat.ctype}"
        )
    if pat.config is not None and len(pat.config) != len(decl.config):
        raise ValidationError(
            f"{where}: component pattern {pat} has {len(pat.config)} config "
            f"fields but {pat.ctype} declares {len(decl.config)}"
        )


def _check_msg_pat(pat: MsgPat, info: ProgramInfo, where: str) -> None:
    decl = info.msg_table.get(pat.name)
    if decl is None:
        raise ValidationError(
            f"{where}: pattern mentions undeclared message type {pat.name}"
        )
    if len(pat.payload) != decl.arity:
        raise ValidationError(
            f"{where}: message pattern {pat} has {len(pat.payload)} payload "
            f"fields but {pat.name} declares {decl.arity}"
        )


def _check_action_pat(pat: ActionPattern, info: ProgramInfo,
                      where: str) -> None:
    if isinstance(pat, (SendPat, RecvPat)):
        _check_comp_pat(pat.comp, info, where)
        _check_msg_pat(pat.msg, info, where)
    elif isinstance(pat, (SpawnPat, SelectPat)):
        _check_comp_pat(pat.comp, info, where)
    elif isinstance(pat, CallPat):
        pass  # call functions are not declared in the program
    else:
        raise ValidationError(f"{where}: unknown action pattern {pat!r}")


def _check_trace_property(prop: TraceProperty, info: ProgramInfo) -> None:
    where = f"property {prop.name}"
    _check_action_pat(prop.a, info, where)
    _check_action_pat(prop.b, info, where)
    tracepreds.check_wellformed(prop.primitive, prop.a, prop.b)


def _check_ni_property(prop: NonInterference, info: ProgramInfo) -> None:
    where = f"property {prop.name}"
    if not prop.high_patterns:
        raise ValidationError(f"{where}: empty high-component labeling")
    declared_params = set(prop.params)
    for pat in prop.high_patterns:
        _check_comp_pat(pat, info, where)
        used = pat.variables()
        stray = used - declared_params
        if stray:
            raise ValidationError(
                f"{where}: labeling pattern {pat} uses undeclared "
                f"parameters {sorted(stray)}"
            )
        if pat.config is not None:
            for fp in pat.config:
                if isinstance(fp, PVar) and fp.name not in declared_params:
                    raise ValidationError(
                        f"{where}: labeling variable {fp.name} is not a "
                        f"declared parameter"
                    )
    for var in prop.high_vars:
        if var not in info.global_types:
            raise ValidationError(
                f"{where}: high variable {var} is not a global of the "
                f"program"
            )


def specify(info: ProgramInfo, *properties: Property) -> SpecifiedProgram:
    """Bundle and validate: the one entry point producing a
    :class:`SpecifiedProgram`."""
    names = [p.name for p in properties]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"duplicate property names: {dupes}")
    for prop in properties:
        if isinstance(prop, TraceProperty):
            _check_trace_property(prop, info)
        elif isinstance(prop, NonInterference):
            _check_ni_property(prop, info)
        else:
            raise ValidationError(f"unknown property form: {prop!r}")
    return SpecifiedProgram(info, tuple(properties))
