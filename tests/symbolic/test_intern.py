"""Invariants of the hash-consing (interning) layer in
:mod:`repro.symbolic.expr`.

Interning is an optimization, never a semantic dependency: equal terms
built through any constructor path must be the *same object* while the
table is warm, structural equality and hashing must keep working after a
table reset (the fork-worker situation), ``term_hash`` must be stable
across processes and pickle round-trips, and memoized simplification
must be byte-identical to the uncached simplifier.
"""

import os
import pickle
import subprocess
import sys

from hypothesis import given

from repro.lang import types as ty
from repro.lang.values import VBool
from repro.symbolic import cache as symcache
from repro.symbolic.expr import (
    S_FALSE,
    S_TRUE,
    SComp,
    SConst,
    SOp,
    SProj,
    STuple,
    SVar,
    intern_table_size,
    reset_interning,
    sand,
    seq_,
    snot,
    snum,
    sor,
    sstr,
)
from repro.symbolic.simplify import dnf, simplify
from tests.symbolic.test_simplify import NX, SX, bool_terms


def _samples():
    """A spread of term shapes across every constructor."""
    comp = SComp("w", "Worker", (snum(1), sstr("a")), "spawned")
    return [
        S_TRUE,
        S_FALSE,
        SConst(VBool(True)),
        snum(7),
        sstr("hello"),
        SVar("nx", ty.NUM, "state"),
        STuple((snum(1), sstr("x"))),
        SProj(STuple((snum(1), sstr("x"))), 1),
        comp,
        SOp("add", (NX, snum(3))),
        sand(seq_(SX, sstr("a")), snot(seq_(NX, snum(0)))),
        sor(seq_(NX, snum(1)), seq_(NX, snum(2))),
    ]


class TestIdentity:
    def test_equal_constructions_are_identical(self):
        for term in _samples():
            rebuilt = pickle.loads(pickle.dumps(term))
            assert rebuilt is term, term

    def test_identity_via_every_constructor_path(self):
        a = SOp("eq", (SVar("nx", ty.NUM, "state"), SConst(snum(2).value)))
        b = seq_(NX, snum(2))
        assert a is b

    def test_singletons_are_the_interned_representatives(self):
        assert SConst(VBool(True)) is S_TRUE
        assert SConst(VBool(False)) is S_FALSE

    def test_table_grows_only_for_new_shapes(self):
        seq_(NX, snum(40401))
        before = intern_table_size()
        seq_(NX, snum(40401))
        assert intern_table_size() == before

    @given(bool_terms)
    def test_hypothesis_terms_intern(self, term):
        # The strategy's constants may predate an interning reset by
        # another test; one round trip lands on the current canonical
        # representative, which then round-trips to itself.
        canonical = pickle.loads(pickle.dumps(term))
        assert canonical == term
        assert canonical.term_hash == term.term_hash
        assert pickle.loads(pickle.dumps(canonical)) is canonical


class TestResetSafety:
    def test_structural_equality_survives_reset(self):
        old = [(t, hash(t), t.term_hash) for t in _samples()]
        reset_interning()
        try:
            for term, h, sh in old:
                rebuilt = pickle.loads(pickle.dumps(term))
                # Fresh table: a new object, but equal in every way the
                # prover relies on.
                assert rebuilt == term
                assert hash(rebuilt) == h
                assert rebuilt.term_hash == sh
        finally:
            reset_interning()

    def test_singletons_reseeded_after_reset(self):
        reset_interning()
        try:
            assert SConst(VBool(True)) is S_TRUE
            assert SConst(VBool(False)) is S_FALSE
        finally:
            reset_interning()

    def test_reinterning_round_trip_across_a_reset(self):
        """The cache-generation contract end to end: terms pickled
        under a warm table (as proof-store entries are) must unpickle
        after a reset into representatives with identical structure,
        ``hash`` and ``term_hash``."""
        shipped = [pickle.dumps(t) for t in _samples()]
        expected = [(t, hash(t), t.term_hash) for t in _samples()]

        reset_interning()  # what the serve daemon's governor does
        try:
            for blob, (term, h, sh) in zip(shipped, expected):
                revived = pickle.loads(blob)
                assert revived == term
                assert hash(revived) == h
                assert revived.term_hash == sh
                # Unpickling re-interned it: building the same shape
                # again yields the *same object*, not a lookalike.
                assert pickle.loads(blob) is revived
        finally:
            reset_interning()


_HASH_SCRIPT = """
from repro.lang import types as ty
from repro.symbolic.expr import SVar, sand, seq_, snot, snum, sstr

t = sand(seq_(SVar("nx", ty.NUM, "state"), snum(2)),
         snot(seq_(SVar("sx", ty.STR, "state"), sstr("a"))))
print(t.term_hash)
"""


def _term_hash_under_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    return proc.stdout


class TestHashStability:
    def test_term_hash_stable_across_processes_and_hash_seeds(self):
        assert _term_hash_under_seed("0") == _term_hash_under_seed("1")

    def test_term_hash_survives_pickle(self):
        for term in _samples():
            assert pickle.loads(pickle.dumps(term)).term_hash \
                == term.term_hash

    def test_term_hash_is_64_bit(self):
        for term in _samples():
            assert 0 <= term.term_hash < 2 ** 64


class TestCachedSimplifyIdentical:
    @given(bool_terms)
    def test_simplify_matches_uncached(self, term):
        with symcache.scope(False):
            cold = simplify(term)
        with symcache.scope(True):
            warm = simplify(term)
        assert warm is cold

    @given(bool_terms)
    def test_dnf_matches_uncached(self, term):
        with symcache.scope(False):
            cold = dnf(term)
        with symcache.scope(True):
            warm = dnf(term)
        assert warm == cold

    def test_scope_restores_flag(self):
        assert symcache.enabled()
        with symcache.scope(False):
            assert not symcache.enabled()
        assert symcache.enabled()
