"""The switch, bounds and introspection of the symbolic caching layer.

Four caches sit on the prover's hot path, all keyed on interned terms
(see :mod:`repro.symbolic.expr`):

* the :func:`repro.symbolic.simplify.simplify` memo,
* the DNF memo in the same module,
* the solver query cache in :mod:`repro.symbolic.solver` (entailment and
  consistency answers keyed on the asserted-literal sequence),
* the solver prefix cache in the same module (built ``Facts`` states
  keyed on the asserted-literal sequence).

This module owns their one *enabled* flag, their LRU bounds, and the
introspection helpers the CLI folds into ``--profile`` output.  The flag
has one way in: ``ProverOptions.term_cache`` (the CLI's
``--no-term-cache``), which ``Verifier.prove_property`` applies with
:func:`scope` around every property.
Caching is *semantically invisible*: the differential tests assert
byte-identical verdicts, derivations and derivation keys with caches on
and off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: Maximum entries in the simplify memo (LRU evicted beyond this).
SIMPLIFY_CACHE_SIZE = 65536
#: Maximum entries in the DNF memo.
DNF_CACHE_SIZE = 16384
#: Maximum entries in the solver query cache.
SOLVER_CACHE_SIZE = 32768
#: Maximum entries in the solver prefix cache (built ``Facts`` states
#: keyed on their asserted-literal sequence; see ``facts_for``).
PREFIX_CACHE_SIZE = 4096

#: The process-wide switch (``True`` = memoize).  Interning itself is
#: independent of this flag — identity fast paths stay sound either way.
_ENABLED = True


def enabled() -> bool:
    """Whether the simplify/DNF/query/prefix caches are currently
    consulted."""
    return _ENABLED


@contextmanager
def scope(value: bool) -> Iterator[None]:
    """Run a block with caching forced on or off, restoring the previous
    setting afterwards (``Verifier.prove_property`` enters one scope per
    property with ``ProverOptions.term_cache``)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    try:
        yield
    finally:
        _ENABLED = previous


def clear_all() -> None:
    """Empty the simplify, DNF, query and prefix caches (not the intern
    table)."""
    # Import the names, not the modules: the package __init__ rebinds
    # ``simplify`` to the function, shadowing the submodule attribute.
    from .simplify import clear_caches as clear_simplify
    from .solver import clear_caches as clear_solver

    clear_simplify()
    clear_solver()


def sizes() -> Dict[str, int]:
    """Current entry counts, named like the telemetry counters they
    accompany (folded into ``repro verify --profile`` output)."""
    from .expr import intern_table_size
    from .simplify import cache_sizes as simplify_sizes
    from .solver import cache_sizes as solver_sizes

    out = {"term.intern.size": intern_table_size()}
    out.update(simplify_sizes())
    out.update(solver_sizes())
    return out


def hit_ratios(counters: Dict[str, int]) -> Dict[str, float]:
    """Hit ratios for every ``<cache>.hit``/``<cache>.miss`` counter pair
    in ``counters`` (``<cache>.hit_ratio`` → hits / (hits + misses)).

    The CLI folds these into the metrics gauges so ``repro report`` can
    show cache effectiveness without re-deriving it from raw counters.
    """
    prefixes = {name[:-len(".hit")] for name in counters
                if name.endswith(".hit")}
    prefixes.update(name[:-len(".miss")] for name in counters
                    if name.endswith(".miss"))
    out: Dict[str, float] = {}
    for prefix in sorted(prefixes):
        hits = counters.get(f"{prefix}.hit", 0)
        misses = counters.get(f"{prefix}.miss", 0)
        total = hits + misses
        if total:
            out[f"{prefix}.hit_ratio"] = hits / total
    return out
