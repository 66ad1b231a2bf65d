"""Cross-cutting kernel properties sampled over the corpus and generators."""

import os
import random

import pytest

from trikernel.core import (
    App,
    I0,
    I1,
    IntT,
    JoinT,
    Lam,
    MeetT,
    Pair,
    Refl,
    Univ,
    Var,
    apply_cell,
    shift,
    subst,
)
from trikernel.corpus import default_stdlib_dir, load_manifest
from trikernel.kernel import Checker
from trikernel.modality import cell_normalize, cell_search, identity_cell, normalize
from trikernel.prelude import load_prelude
from trikernel.syntax import parse_term


def loaded_checker():
    checker = Checker()
    assert load_prelude(checker) == []
    manifest = load_manifest()
    base = default_stdlib_dir()
    for entry in manifest.entries:
        if entry.expect_code is None:
            with open(os.path.join(base, entry.file), encoding="utf-8") as handle:
                assert checker.check_source(handle.read(), entry.file) == []
    return checker


CHECKER = loaded_checker()


def test_conv_reflexive_on_all_corpus_globals():
    for name, entry in CHECKER.globals.items():
        assert CHECKER.conv_str(entry.ty, entry.ty), name
        if entry.body is not None:
            assert CHECKER.conv_str(entry.body, entry.body), name


def test_conv_symmetric_transitive_on_samples():
    rng = random.Random(7)
    names = [n for n, g in CHECKER.globals.items() if g.body is not None]
    sample = rng.sample(names, 30)
    terms = [CHECKER.globals[n].body for n in sample]
    for t in terms:
        for u in terms:
            forward = CHECKER.conv_str(t, u)
            backward = CHECKER.conv_str(u, t)
            assert forward == backward
    # transitivity on equal chains: every definition equals its own whnf,
    # and whnf of whnf
    for t in terms:
        w1 = CHECKER.whnf(t)
        w2 = CHECKER.whnf(w1)
        assert CHECKER.conv_str(t, w1) and CHECKER.conv_str(w1, w2)
        assert CHECKER.conv_str(t, w2)


def test_substitution_stability_sampled_redexes():
    """A beta redex and its inlined form are definitionally equal."""
    checker = Checker()
    load_prelude(checker)
    program = (
        "def redex1 : Int := ((fun i => i /\\ 1) : Int -> Int) (0 \\/ 1)\n"
        "def inline1 : Int := (0 \\/ 1) /\\ 1\n"
        "check refl : redex1 = inline1\n"
        "def redex2 : Nat := ((fun n => succ n) : Nat -> Nat) 2\n"
        "def inline2 : Nat := succ 2\n"
        "check refl : redex2 = inline2\n"
        "def redex3 : Int := ((fun b => boolrec(fun x => Int, 1, 0, b)) : Bool -> Int) true\n"
        "def inline3 : Int := boolrec(fun x => Int, 1, 0, true)\n"
        "check refl : redex3 = inline3\n"
    )
    diags = checker.check_source(program, "subst-stability.ttt")
    assert diags == [], [d.render() for d in diags]


def test_subject_reduction_head_steps_on_corpus_bodies():
    rng = random.Random(11)
    names = [n for n, g in CHECKER.globals.items() if g.body is not None]
    for name in rng.sample(names, 40):
        entry = CHECKER.globals[name]
        reduced = CHECKER.whnf(entry.body)
        # one head expansion step preserves convertibility at the type
        assert CHECKER.conv(entry.body, reduced, entry.ty), name


def test_apply_cell_identity_on_generated_terms():
    rng = random.Random(23)

    def random_term(depth):
        if depth == 0:
            return rng.choice([Var(rng.randrange(3)), I0(), I1(), Refl()])
        roll = rng.randrange(5)
        sub = lambda: random_term(depth - 1)
        if roll == 0:
            return App(sub(), sub())
        if roll == 1:
            return Lam(sub())
        if roll == 2:
            return MeetT(sub(), sub())
        if roll == 3:
            return Pair(sub(), sub())
        return JoinT(sub(), sub())

    for word in [(), ("g",), ("s", "g"), ("a", "p")]:
        cell = identity_cell(word)
        for _ in range(50):
            term = random_term(rng.randrange(1, 5))
            assert apply_cell(term, cell) == term


def test_interval_conversion_agrees_at_int_and_nat():
    """`g a = g b` at g : Int -> Int holds exactly when `h a = h b` at h : Int -> Nat.

    At `Int` the two sides are interval atoms, interned by the lattice
    canonicaliser; at `Nat` they are compared by structural conversion.  The
    terms nest `f : Int -> Int`, so atoms sit inside atoms.
    """
    rng = random.Random(31)
    meet, join = "/\\", "\\/"

    def random_interval(depth):
        roll = rng.randrange(4) if depth else 3
        if roll == 3:
            return rng.choice("ijk")
        if roll == 0:
            return ("f", random_interval(depth - 1))
        return (rng.choice((meet, join)), random_interval(depth - 1), random_interval(depth - 1))

    def rewrite(term):
        """An equal term: operands commuted at random, absorption laws added."""
        if isinstance(term, str):
            if rng.random() < 0.3:
                outer, inner = rng.choice(((meet, join), (join, meet)))
                return (outer, term, (inner, term, random_interval(1)))
            return term
        if term[0] == "f":
            return ("f", rewrite(term[1]))
        op, lhs, rhs = term[0], rewrite(term[1]), rewrite(term[2])
        return (op, rhs, lhs) if rng.random() < 0.5 else (op, lhs, rhs)

    def show(term):
        if isinstance(term, str):
            return term
        if term[0] == "f":
            return f"f ({show(term[1])})"
        return f"({show(term[1])} {term[0]} {show(term[2])})"

    def holds(head, lhs, rhs):
        text = (
            "axiom f : Int -> Int\naxiom g : Int -> Int\naxiom h : Int -> Nat\n"
            f"def t : (i j k : Int) -> {head} ({show(lhs)}) = {head} ({show(rhs)})\n"
            "  := fun i j k => refl\n"
        )
        return Checker().check_source(text, "agree.ttt") == []

    for _ in range(300):
        lhs = random_interval(3)
        rewritten = rng.random() < 0.7
        rhs = rewrite(lhs) if rewritten else random_interval(3)
        at_nat = holds("h", lhs, rhs)
        assert holds("g", lhs, rhs) == at_nat, (show(lhs), show(rhs))
        assert at_nat or not rewritten, (show(lhs), show(rhs))


def test_cell_search_results_normalize_and_validate():
    words = [(), ("g",), ("s",), ("o",), ("p",), ("a",), ("g", "s"), ("a", "p"), ("p", "a")]
    for src in words:
        for dst in words:
            found = cell_search(src, dst, depth=5)
            if found is not None:
                found.validate()
                norm = cell_normalize(found)
                assert (norm.src, norm.dst) == (found.src, found.dst)
                norm.validate()


def test_shift_subst_inverse_on_samples():
    rng = random.Random(5)
    for _ in range(100):
        depth = rng.randrange(1, 4)
        term = Var(rng.randrange(3))
        for _ in range(depth):
            term = App(Lam(term), Var(rng.randrange(2)))
        # after a shift the bottom variable cannot occur, so substituting
        # for it just undoes the shift
        assert subst(shift(term, 1), I0()) == term
        assert shift(term, 0) == term
