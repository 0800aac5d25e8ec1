"""The REFLEX type universe.

The paper's DSL is simply typed: message payloads and global variables range
over strings, numbers, booleans, file descriptors, tuples of these, and
component references.  Component types are *nominal* — each ``Components``
declaration introduces a fresh type carrying an executable path and a
read-only configuration record (paper section 3.1).

Types here are immutable value objects with structural equality so they can
be freely shared, hashed, and compared by the validator, the interpreter and
the symbolic evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple


class Type:
    """Base class of all REFLEX types.  Subclasses are frozen dataclasses."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return self.__class__.__name__


@dataclass(frozen=True)
class StrType(Type):
    """The type of character strings (user names, passwords, URLs...)."""

    def __str__(self) -> str:
        return "string"


@dataclass(frozen=True)
class NumType(Type):
    """The type of (unbounded, non-negative in practice) integers."""

    def __str__(self) -> str:
        return "num"


@dataclass(frozen=True)
class BoolType(Type):
    """The type of booleans."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class FdType(Type):
    """The type of file descriptors handed around between components.

    File descriptors are opaque: the kernel can receive them from one
    component and forward them to another (e.g. the PTY descriptor in the
    SSH benchmark) but cannot compute with them.
    """

    def __str__(self) -> str:
        return "fdesc"


@dataclass(frozen=True)
class TupleType(Type):
    """A product of element types, e.g. ``(string, bool)`` for the SSH
    kernel's ``authorized`` variable."""

    elems: Tuple[Type, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.elems) + ")"


@dataclass(frozen=True)
class CompType(Type):
    """A reference to a component of the named component type.

    Global variables bound by ``spawn`` or ``lookup`` have this type; the
    validator checks sends target an expression of a ``CompType``.
    """

    name: str

    def __str__(self) -> str:
        return f"comp<{self.name}>"


# Canonical singletons; the dataclasses are frozen so sharing is safe.
STR = StrType()
NUM = NumType()
BOOL = BoolType()
FD = FdType()


def tuple_of(*elems: Type) -> TupleType:
    """Convenience constructor for :class:`TupleType`."""
    return TupleType(tuple(elems))


@dataclass(frozen=True)
class ConfigField:
    """One field of a component type's read-only configuration record."""

    name: str
    type: Type

    def __str__(self) -> str:
        return f"{self.name}: {self.type}"


@dataclass(frozen=True)
class ComponentDecl:
    """Declaration of a component type (paper: ``Components`` section).

    ``executable`` is the path of the program the kernel spawns for each
    instance; in this reproduction it names a scripted simulated component
    registered with the runtime world.
    """

    name: str
    executable: str
    config: Tuple[ConfigField, ...] = field(default_factory=tuple)

    def config_index(self, field_name: str) -> int:
        """Position of ``field_name`` in the configuration record.

        Raises ``KeyError`` when the field does not exist; the validator
        turns that into a :class:`~repro.lang.errors.ValidationError`.
        """
        for i, f in enumerate(self.config):
            if f.name == field_name:
                return i
        raise KeyError(field_name)

    def config_type(self, field_name: str) -> Type:
        """Type of the named configuration field."""
        return self.config[self.config_index(field_name)].type

    @property
    def type(self) -> CompType:
        """The reference type for instances of this component type."""
        return CompType(self.name)

    def __str__(self) -> str:
        cfg = ", ".join(str(f) for f in self.config)
        return f"{self.name}({cfg}) \"{self.executable}\""


@dataclass(frozen=True)
class MessageDecl:
    """Declaration of a message type (paper: ``Messages`` section)."""

    name: str
    payload: Tuple[Type, ...] = field(default_factory=tuple)

    @property
    def arity(self) -> int:
        return len(self.payload)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(t) for t in self.payload)})"


def is_base(t: Type) -> bool:
    """True for types message payloads may carry (no component refs,
    no nested kernel state)."""
    if isinstance(t, (StrType, NumType, BoolType, FdType)):
        return True
    if isinstance(t, TupleType):
        return all(is_base(e) for e in t.elems)
    return False


def make_decl_table(decls: Iterable[object], kind: str) -> dict:
    """Build a name → declaration table, rejecting duplicates.

    Shared by the validator for component and message declarations.
    """
    from .errors import ValidationError

    table: dict = {}
    for d in decls:
        name = d.name  # type: ignore[attr-defined]
        if name in table:
            raise ValidationError(f"duplicate {kind} declaration: {name}")
        table[name] = d
    return table
