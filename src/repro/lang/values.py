"""Runtime values of the REFLEX reproduction.

Values are immutable and hashable.  Component references (:class:`VComp`)
point at :class:`ComponentInstance` records, the runtime analog of the
paper's ``comp`` triple ``(type, configuration, file-descriptor)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from . import types as ty
from .errors import RuntimeFault


@dataclass(frozen=True)
class VStr:
    s: str

    def __str__(self) -> str:
        return repr(self.s)


@dataclass(frozen=True)
class VNum:
    n: int

    def __str__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class VBool:
    b: bool

    def __str__(self) -> str:
        return "true" if self.b else "false"


@dataclass(frozen=True)
class VFd:
    """An opaque file descriptor.  The integer is world-assigned."""

    fd: int

    def __str__(self) -> str:
        return f"fd:{self.fd}"


@dataclass(frozen=True)
class VTuple:
    elems: Tuple["Value", ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elems) + ")"


@dataclass(frozen=True)
class ComponentInstance:
    """A live component the kernel communicates with.

    ``ident`` is a world-unique id (spawn order); ``ctype`` names the
    component type; ``config`` is the read-only configuration record fixed at
    spawn time (paper section 3.1); ``fd`` is the channel descriptor.
    """

    ident: int
    ctype: str
    config: Tuple["Value", ...]
    fd: int

    def __str__(self) -> str:
        cfg = ", ".join(str(c) for c in self.config)
        return f"{self.ctype}#{self.ident}({cfg})"


@dataclass(frozen=True)
class VComp:
    """A first-class reference to a component instance."""

    comp: ComponentInstance

    def __str__(self) -> str:
        return str(self.comp)


Value = Union[VStr, VNum, VBool, VFd, VTuple, VComp]


TRUE = VBool(True)
FALSE = VBool(False)


def vstr(s: str) -> VStr:
    return VStr(s)


def vnum(n: int) -> VNum:
    return VNum(n)


def vbool(b: bool) -> VBool:
    return TRUE if b else FALSE


def vtuple(*elems: Value) -> VTuple:
    return VTuple(tuple(elems))


def type_of(v: Value) -> ty.Type:
    """The REFLEX type of a runtime value."""
    if isinstance(v, VStr):
        return ty.STR
    if isinstance(v, VNum):
        return ty.NUM
    if isinstance(v, VBool):
        return ty.BOOL
    if isinstance(v, VFd):
        return ty.FD
    if isinstance(v, VTuple):
        return ty.TupleType(tuple(type_of(e) for e in v.elems))
    if isinstance(v, VComp):
        return ty.CompType(v.comp.ctype)
    raise RuntimeFault(f"not a value: {v!r}")


def default_value(t: ty.Type) -> Value:
    """The zero value used to initialise a declared variable before the Init
    section assigns it (strings default to ``""``, numbers to ``0``...).

    Component-reference variables have no sensible default; the validator
    guarantees they are assigned (by ``spawn``) before use, so requesting a
    default for them is a fault.
    """
    if isinstance(t, ty.StrType):
        return VStr("")
    if isinstance(t, ty.NumType):
        return VNum(0)
    if isinstance(t, ty.BoolType):
        return FALSE
    if isinstance(t, ty.FdType):
        return VFd(-1)
    if isinstance(t, ty.TupleType):
        return VTuple(tuple(default_value(e) for e in t.elems))
    raise RuntimeFault(f"type {t} has no default value")


def as_python(v: Value) -> object:
    """Unwrap a value into a plain Python object (for examples/logging)."""
    if isinstance(v, VStr):
        return v.s
    if isinstance(v, VNum):
        return v.n
    if isinstance(v, VBool):
        return v.b
    if isinstance(v, VFd):
        return ("fd", v.fd)
    if isinstance(v, VTuple):
        return tuple(as_python(e) for e in v.elems)
    if isinstance(v, VComp):
        return ("comp", v.comp.ctype, v.comp.ident)
    raise RuntimeFault(f"not a value: {v!r}")


def from_python(obj: object) -> Value:
    """Wrap a plain Python object into a :class:`Value` (for scripted
    components and tests).  Tuples become :class:`VTuple`."""
    if isinstance(obj, bool):  # bool before int: bool is an int subclass
        return vbool(obj)
    if isinstance(obj, int):
        return VNum(obj)
    if isinstance(obj, str):
        return VStr(obj)
    if isinstance(obj, tuple):
        return VTuple(tuple(from_python(e) for e in obj))
    if isinstance(obj, (VStr, VNum, VBool, VFd, VTuple, VComp)):
        return obj
    raise RuntimeFault(f"cannot lift {obj!r} into a REFLEX value")
