"""A fluent, Python-embedded builder for REFLEX programs.

The paper drives REFLEX through a Python *frontend* translating concrete
syntax into the deeply embedded Coq AST (section 3.1); this module is the
programmatic half of our frontend.  The textual half lives in
:mod:`repro.frontend`.

Example (the core of Figure 3)::

    b = ProgramBuilder("ssh")
    b.component("Connection", "client.py")
    b.component("Password", "user-auth.c")
    b.message("ReqAuth", STR, STR)
    b.init(
        assign("authorized", lit(("", False))),
        spawn("C", "Connection"),
        spawn("P", "Password"),
    )
    b.handler("Connection", "ReqAuth", ["user", "pass"],
              send(name("P"), "ReqAuth", name("user"), name("pass")))
    program = b.build()
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import ast
from . import types as ty
from .errors import ValidationError
from .validate import ProgramInfo, validate
from .values import from_python

# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def lit(value: object) -> ast.Lit:
    """A literal from a plain Python value (``str``/``int``/``bool``/tuple)
    or an already-wrapped :class:`~repro.lang.values.Value`."""
    return ast.Lit(from_python(value))


def name(n: str) -> ast.Name:
    """Reference to a global variable or handler-scope binding."""
    return ast.Name(n)


def sender() -> ast.Sender:
    """The component whose message is being handled."""
    return ast.Sender()


def cfg(comp: ast.Expr, field_name: str) -> ast.Field:
    """Configuration field access, e.g. ``cfg(sender(), "domain")``."""
    return ast.Field(comp, field_name)


def _expr(x: object) -> ast.Expr:
    """Coerce Python literals to :class:`~repro.lang.ast.Lit` for fluency."""
    if isinstance(x, ast.Expr):
        return x
    return lit(x)


def eq(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("eq", _expr(left), _expr(right))


def ne(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("ne", _expr(left), _expr(right))


def add(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("add", _expr(left), _expr(right))


def lt(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("lt", _expr(left), _expr(right))


def le(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("le", _expr(left), _expr(right))


def band(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("and", _expr(left), _expr(right))


def bor(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("or", _expr(left), _expr(right))


def bnot(arg: object) -> ast.Not:
    return ast.Not(_expr(arg))


def concat(left: object, right: object) -> ast.BinOp:
    return ast.BinOp("concat", _expr(left), _expr(right))


def tup(*elems: object) -> ast.TupleExpr:
    return ast.TupleExpr(tuple(_expr(e) for e in elems))


def proj(tuple_expr: ast.Expr, index: int) -> ast.Proj:
    return ast.Proj(tuple_expr, index)


# ---------------------------------------------------------------------------
# Command helpers
# ---------------------------------------------------------------------------


def assign(var: str, expr: object) -> ast.Assign:
    return ast.Assign(var, _expr(expr))


def send(target: ast.Expr, msg: str, *args: object) -> ast.SendCmd:
    return ast.SendCmd(target, msg, tuple(_expr(a) for a in args))


def spawn(bind: Optional[str], ctype: str, *config: object) -> ast.SpawnCmd:
    return ast.SpawnCmd(ctype, tuple(_expr(c) for c in config), bind)


def call(bind: str, func: str, *args: object) -> ast.CallCmd:
    return ast.CallCmd(func, tuple(_expr(a) for a in args), bind)


def lookup(bind: str, ctype: str, pred: ast.Expr, found: ast.Cmd,
           missing: Optional[ast.Cmd] = None) -> ast.LookupCmd:
    return ast.LookupCmd(ctype, bind, pred, found,
                         ast.Nop() if missing is None else missing)


def ite(cond: ast.Expr, then: ast.Cmd,
        otherwise: Optional[ast.Cmd] = None) -> ast.If:
    return ast.If(cond, then, ast.Nop() if otherwise is None else otherwise)


def block(*cmds: ast.Cmd) -> ast.Cmd:
    """Sequence, flattening nested sequences and dropping no-ops."""
    return ast.seq(*cmds)


nop = ast.Nop


# ---------------------------------------------------------------------------
# Program builder
# ---------------------------------------------------------------------------


class ProgramBuilder:
    """Accumulates the five program sections and validates on ``build``."""

    def __init__(self, program_name: str) -> None:
        self.program_name = program_name
        self._components: List[ty.ComponentDecl] = []
        self._messages: List[ty.MessageDecl] = []
        self._init: List[ast.Cmd] = []
        self._handlers: List[ast.Handler] = []

    # -- declarations -------------------------------------------------------

    def component(self, comp_name: str, executable: str,
                  **config_fields: ty.Type) -> "ProgramBuilder":
        """Declare a component type; keyword arguments declare configuration
        fields in order, e.g. ``b.component("Tab", "tab.py", domain=STR)``."""
        fields = tuple(
            ty.ConfigField(n, t) for n, t in config_fields.items()
        )
        self._components.append(
            ty.ComponentDecl(comp_name, executable, fields)
        )
        return self

    def message(self, msg_name: str, *payload: ty.Type) -> "ProgramBuilder":
        """Declare a message type with the given payload types."""
        self._messages.append(ty.MessageDecl(msg_name, tuple(payload)))
        return self

    # -- code ---------------------------------------------------------------

    def init(self, *cmds: ast.Cmd) -> "ProgramBuilder":
        """Append commands to the Init section (flat, in order)."""
        self._init.extend(cmds)
        return self

    def handler(self, ctype: str, msg: str, params: Sequence[str],
                *body: ast.Cmd) -> "ProgramBuilder":
        """Register the handler for messages of type ``msg`` from components
        of type ``ctype``."""
        self._handlers.append(
            ast.Handler(ctype, msg, tuple(params), ast.seq(*body))
        )
        return self

    # -- result -------------------------------------------------------------

    def build(self) -> ast.Program:
        """The assembled (not yet validated) program."""
        if not self._components:
            raise ValidationError(
                f"program {self.program_name}: no component types declared"
            )
        return ast.Program(
            name=self.program_name,
            components=tuple(self._components),
            messages=tuple(self._messages),
            init=tuple(self._init),
            handlers=tuple(self._handlers),
        )

    def build_validated(self) -> ProgramInfo:
        """Assemble and validate in one step."""
        return validate(self.build())
