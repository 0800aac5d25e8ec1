"""Automatic non-interference verification (paper sections 4.2 and 5.2).

The user supplies θc (patterns selecting the *high* components, possibly
parameterized — e.g. every ``Tab`` and ``CookieProc`` of domain ``d`` for a
universally quantified ``d``) and θv (the *high* globals).  Theorem 1 of the
paper reduces non-interference to two conditions, each checked here by
symbolic evaluation of every handler path:

* ``NIlo`` — on every path where the sender may be **low**, the handler
  never sends to or spawns a provably-high component and never changes a
  high variable.
* ``NIhi`` — on every path where the sender may be **high**, the two
  executions of the relational definition stay in lock-step: every branch
  decision (including ``lookup`` outcomes) depends only on *shared* data,
  and every high-visible effect (sends to high components, spawns of high
  components, writes to high variables) is built from shared data.

Shared ("untainted") data in a high exchange:

* the message payload and the sender's identity/configuration — equal by
  the equal-high-inputs hypothesis (they are part of πi);
* high globals — equal by the NIinv induction hypothesis;
* labeling parameters — universally quantified, fixed;
* external call results — equal by construction: the paper factors them
  into ghost context trees that follow the handler's code structure and are
  part of the (equal) inputs;
* components found by a *high-only* ``lookup`` (predicate provably
  restricted to high components, itself computed from shared data) — the
  executions agree on the high portion of the component set, hence on the
  lookup's outcome.

Everything else — low globals, low-lookup results — is tainted.  Unlike the
trace tactics there is no search here: the conditions are checked directly,
so "proof" and "check" coincide; the emitted :class:`NIProof` records every
path verdict for reporting and re-validation.

Base condition (implicit in the paper's setting, enforced here): the Init
state must give high variables and high spawns deterministic values — an
Init whose external ``call`` results flow into high state would break the
induction at its root.

The labeling (:class:`~repro.prover.checker.Labeling`), the base condition
(:func:`~repro.prover.checker.check_ni_base`) and the sender-label case
split (:func:`~repro.prover.checker.ni_case_cubes`) live in the checker,
which re-derives the base condition and the coverage of a record's
verdicts; this module imports them and checks NIlo/NIhi path by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.spec import NonInterference
from ..symbolic import cache as symcache
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import SComp, SOp, SVar, Term, free_vars, snot
from ..symbolic.seval import FoundFact, SymPath, eval_sexpr
from ..symbolic.solver import Facts, entail_batch, extend_facts
from ..symbolic.templates import TSend, TSpawn
from .checker import Labeling, build_labeling, check_ni_base, ni_case_cubes


# ---------------------------------------------------------------------------
# Proof objects (verdict records)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathVerdict:
    exchange_key: Tuple[str, str]
    path_index: int
    case: str  # "low" | "high"
    notes: Tuple[str, ...]


@dataclass(frozen=True)
class NIProof:
    """The record of a successful NIlo/NIhi check (every path verdict)."""

    prop: NonInterference
    base_notes: Tuple[str, ...]
    verdicts: Tuple[PathVerdict, ...]

    def summary(self) -> str:
        """One-line account of the NI case analysis."""
        lows = sum(1 for v in self.verdicts if v.case == "low")
        highs = len(self.verdicts) - lows
        return (
            f"{self.prop.name}: init deterministic; {lows} low path "
            f"case(s) satisfy NIlo, {highs} high path case(s) satisfy NIhi"
        )


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def prove_noninterference(step: GenericStep,
                          prop: NonInterference) -> NIProof:
    """Check NIlo/NIhi for every exchange path; raise
    :class:`ProofSearchFailure` on the first violation.

    This is the serial composition of the pipeline's NI obligations: the
    base condition (:func:`~repro.prover.checker.check_ni_base`) followed
    by every exchange (:func:`check_ni_exchange`) in program order.  The
    engine calls the pieces directly so each obligation can be cached on
    its own and the run's deadline checked between them.
    """
    labeling = build_labeling(step, prop)
    base_notes = check_ni_base(step, labeling)
    verdicts: List[PathVerdict] = []
    for ex in step.exchanges:
        verdicts.extend(check_ni_exchange(step, labeling, ex))
    return NIProof(prop, tuple(base_notes), tuple(verdicts))


def check_ni_exchange(step: GenericStep, labeling: Labeling,
                      ex: Exchange) -> List[PathVerdict]:
    """Check NIlo/NIhi on every feasible path case of one exchange — the
    pipeline's per-exchange NI obligation."""
    verdicts: List[PathVerdict] = []
    for case, cube in ni_case_cubes(labeling, ex):
        for path_index, path in enumerate(ex.paths):
            facts = extend_facts(path.cond, cube)
            if facts.inconsistent():
                continue
            obs.incr("ni.path_case")
            prefix = tuple(path.cond) + tuple(cube)
            if case == "low":
                notes = _check_nilo(step, labeling, ex, path, facts,
                                    prefix)
            else:
                notes = _check_nihi(step, labeling, ex, path, facts)
            verdicts.append(PathVerdict(
                ex.key, path_index, case, tuple(notes)
            ))
    return verdicts


# -- NIlo ---------------------------------------------------------------------


def _check_nilo(step: GenericStep, labeling: Labeling, ex: Exchange,
                path: SymPath, facts: Facts,
                prefix: Tuple[Term, ...] = ()) -> List[str]:
    """A low sender's handler must not touch anything high."""
    notes: List[str] = []
    where = f"{labeling.prop.name}: NIlo at {ex.ctype}=>{ex.msg}"
    pre_env = step.pre_env_dict()
    frame = [
        (name, SOp("eq", (post, pre_env[name])))
        for name, post in path.env if labeling.is_high_var(name)
    ]
    if frame:
        queries = [query for _name, query in frame]
        # The high-variable frame conditions of one path form one query
        # batch over the path's asserted prefix; with the symbolic caches
        # off the shared Facts discharges them directly (identical
        # answers either way — pinned by the batch equivalence test).
        if prefix and symcache.enabled():
            results = entail_batch(prefix, queries,
                                   stop_on_failure=True)
        else:
            results = facts.implies_all(queries, stop_on_failure=True)
        for (name, _query), entailed in zip(frame, results):
            if not entailed:
                raise ProofSearchFailure(
                    f"{where}: low handler may update high variable "
                    f"{name}"
                )
    for action in path.actions:
        if isinstance(action, TSend):
            if not facts.implies(snot(labeling.high_condition(action.comp))):
                raise ProofSearchFailure(
                    f"{where}: low handler may send {action.msg} to a "
                    f"high component ({action.comp})"
                )
            notes.append(f"send {action.msg} provably targets low")
        elif isinstance(action, TSpawn):
            if not facts.implies(snot(labeling.high_condition(action.comp))):
                raise ProofSearchFailure(
                    f"{where}: low handler may spawn a high component "
                    f"({action.comp})"
                )
            notes.append("spawn provably low")
    return notes


# -- NIhi ---------------------------------------------------------------------


def _check_nihi(step: GenericStep, labeling: Labeling, ex: Exchange,
                path: SymPath, facts: Facts) -> List[str]:
    """A high sender's handler must stay in relational lock-step."""
    notes: List[str] = []
    where = f"{labeling.prop.name}: NIhi at {ex.ctype}=>{ex.msg}"
    untainted = _initial_untainted(step, labeling, ex)

    # Lookups, in execution order, may add their candidate's configuration
    # to the shared set — or taint the whole path.
    for fact in path.lookup_facts:
        candidate = fact.comp if isinstance(fact, FoundFact) \
            else _arbitrary_candidate(step, fact)
        candidate_vars = set(free_vars(candidate))
        pred_term = eval_sexpr(
            fact.pred, dict(fact.env), {fact.bind: candidate},
            fact.sender, step.info,
        )
        foreign = {
            v for v in free_vars(pred_term) if v not in candidate_vars
        }
        if not foreign.issubset(untainted):
            raise ProofSearchFailure(
                f"{where}: lookup predicate reads low data "
                f"({[str(v) for v in sorted(foreign - untainted, key=str)]})"
            )
        if not _lookup_high_only(step, labeling, fact, facts):
            raise ProofSearchFailure(
                f"{where}: lookup over components that may be low — the "
                f"executions may disagree on its outcome"
            )
        if isinstance(fact, FoundFact):
            untainted |= candidate_vars
        notes.append(f"lookup of {fact.ctype} is high-only")

    # Every branch decision on the path must be over shared data.
    for literal in path.cond:
        stray = {
            v for v in free_vars(literal)
            if v not in untainted and v.origin != "param"
        }
        if stray:
            raise ProofSearchFailure(
                f"{where}: branch condition {literal} depends on low data "
                f"({[str(v) for v in sorted(stray, key=str)]})"
            )

    # High-visible effects must be built from shared data.
    pre_env = step.pre_env_dict()
    for action in path.actions:
        if isinstance(action, TSend):
            _check_output(step, labeling, facts, untainted,
                          action.comp, action.payload,
                          f"{where}: send {action.msg}")
        elif isinstance(action, TSpawn):
            _check_output(step, labeling, facts, untainted,
                          action.comp, action.comp.config,
                          f"{where}: spawn of {action.comp.ctype}")
    for name, post in path.env:
        if not labeling.is_high_var(name):
            continue
        if facts.implies(SOp("eq", (post, pre_env[name]))):
            continue
        stray = {v for v in free_vars(post) if v not in untainted}
        if stray:
            raise ProofSearchFailure(
                f"{where}: high variable {name} assigned from low data "
                f"({[str(v) for v in sorted(stray, key=str)]})"
            )
        notes.append(f"high var {name} updated from shared data")
    return notes


def _initial_untainted(step: GenericStep, labeling: Labeling,
                       ex: Exchange) -> set:
    """Variables shared between the two executions at handler entry."""
    untainted = set(ex.payload)
    untainted.update(
        v for v in free_vars(ex.sender) if v.origin == "config"
    )
    untainted.update(v for _, v in labeling.params)
    for name, term in step.pre_env_dict().items():
        if labeling.is_high_var(name) and isinstance(term, SVar):
            untainted.add(term)
    # Call results are shared by the ghost-context-tree construction.
    return _CallClosedSet(untainted)


class _CallClosedSet(set):
    """A variable set that additionally contains every call result."""

    def __contains__(self, item: object) -> bool:
        if isinstance(item, SVar) and item.origin == "call":
            return True
        return set.__contains__(self, item)


def _arbitrary_candidate(step: GenericStep, fact) -> SComp:
    """An arbitrary component of the fact's type, used to probe whose
    components a lookup predicate could select."""
    decl = step.info.comp_table[fact.ctype]
    return SComp(
        label=f"ni_probe_{fact.ctype}",
        ctype=fact.ctype,
        config=tuple(
            SVar(f"ni_probe_{fact.ctype}_{f.name}", f.type, "config")
            for f in decl.config
        ),
        origin="lookup",
        seq=0,
    )


def _lookup_high_only(step: GenericStep, labeling: Labeling, fact,
                      facts: Facts) -> bool:
    """Is the lookup's predicate provably restricted to high components?

    Take an arbitrary component of the type, assume the predicate holds of
    it (under the path facts), and require it to be labeled high.
    """
    decl = step.info.comp_table[fact.ctype]
    candidate = SComp(
        label=f"ni_cand_{fact.ctype}",
        ctype=fact.ctype,
        config=tuple(
            SVar(f"ni_cand_{fact.ctype}_{f.name}", f.type, "config")
            for f in decl.config
        ),
        origin="lookup",
        seq=0,
    )
    pred_term = eval_sexpr(
        fact.pred, dict(fact.env), {fact.bind: candidate}, fact.sender,
        step.info,
    )
    probe = facts.copy()
    probe.assert_term(pred_term)
    if probe.inconsistent():
        return True
    return probe.implies(labeling.high_condition(candidate))


def _check_output(step: GenericStep, labeling: Labeling, facts: Facts,
                  untainted: set, comp: SComp, payload: Sequence[Term],
                  where: str) -> None:
    """Check one output action of a high handler.

    An action built entirely from shared data is *identical* in the two
    executions, so its projection onto the high outputs agrees whatever its
    label turns out to be.  An action involving tainted data is only
    admissible when its target is provably low (then it never appears in
    πo).
    """
    stray = set()
    for term in list(payload) + [comp]:
        stray |= {v for v in free_vars(term) if v not in untainted}
    if not stray:
        return
    if facts.implies(snot(labeling.high_condition(comp))):
        return  # a low output: unconstrained by NIinv
    raise ProofSearchFailure(
        f"{where}: possibly-high output built from low data "
        f"({[str(v) for v in sorted(stray, key=str)]})"
    )
