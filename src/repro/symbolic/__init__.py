"""Symbolic machinery: terms, simplification, the path-condition solver,
pattern/template unification, symbolic evaluation, and the behavioral
abstraction ``BehAbs`` the prover inducts over.

Terms are hash-consed (see :mod:`repro.symbolic.expr`) and the hot
simplify/DNF/solver paths are memoized behind the one switch in
:mod:`repro.symbolic.cache`; ``docs/performance.md`` describes the layer.
"""

from .behabs import (
    Exchange,
    GenericStep,
    InitSummary,
    generic_step,
    init_summary,
)
from .expr import (
    FreshNames,
    SComp,
    SConst,
    SOp,
    SProj,
    STuple,
    SVar,
    Term,
    free_vars,
    intern_table_size,
    lift_value,
    reset_interning,
    sand,
    sconst,
    seq_,
    sne,
    snot,
    snum,
    sor,
    sstr,
    substitute,
    term_children,
)
from .seval import FoundFact, MissingFact, SymPath, eval_sexpr, sym_exec
from .simplify import dnf, linearize, simplify, term_type
from .solver import Facts, cube_implies, cube_inconsistent
from .templates import (
    TCall,
    TRecv,
    TSelect,
    TSend,
    TSpawn,
    Template,
    substitute_template,
)
from .unify import SymMatch, match_comp_term, match_template

__all__ = [
    "Exchange",
    "GenericStep",
    "InitSummary",
    "generic_step",
    "init_summary",
    "FreshNames",
    "SComp",
    "SConst",
    "SOp",
    "SProj",
    "STuple",
    "SVar",
    "Term",
    "free_vars",
    "intern_table_size",
    "lift_value",
    "reset_interning",
    "sand",
    "sconst",
    "seq_",
    "sne",
    "snot",
    "snum",
    "sor",
    "sstr",
    "substitute",
    "term_children",
    "FoundFact",
    "MissingFact",
    "SymPath",
    "eval_sexpr",
    "sym_exec",
    "dnf",
    "linearize",
    "simplify",
    "term_type",
    "Facts",
    "cube_implies",
    "cube_inconsistent",
    "TCall",
    "TRecv",
    "TSelect",
    "TSend",
    "TSpawn",
    "Template",
    "substitute_template",
    "SymMatch",
    "match_comp_term",
    "match_template",
]
