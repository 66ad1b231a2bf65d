"""Cross-cutting kernel properties sampled over the corpus and generators."""

import os
import random

import pytest

from trikernel import core
from trikernel.core import (
    App,
    I0,
    I1,
    INT,
    IntT,
    JoinT,
    Lam,
    MeetT,
    Modify,
    Pair,
    Pi,
    Refl,
    Term,
    Univ,
    Var,
    apply_cell,
    instantiate,
    same_data,
    shift,
    subst,
    subterms,
    syn_eq,
)
from trikernel.corpus import default_stdlib_dir, load_manifest
from trikernel.kernel import Checker
from trikernel.modality import (
    ModeError,
    cell_normalize,
    cell_search,
    generator_cell,
    identity_cell,
    normalize,
)
from trikernel.prelude import load_prelude
from trikernel.record import fields
from trikernel.syntax import parse_term

from support import reference_map, reference_same_data, reference_syn_eq, validate


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

# The non-identity 2-cells that generated variables carry.
CELLS = [generator_cell(name) for name in ("eps0", "eta_gs", "eps_gs", "eta_pa", "eps_pa")]
CELLS += [cell_search(("g",), ()), cell_search((), ("s",))]


def random_term(rng, depth, free, annotated):
    """A term over Var 0 .. free - 1 with interval (`Int`) and modal binders;
    with `annotated`, variables carry 2-cells from `CELLS`."""
    roll = rng.randrange(8) if depth else 0
    sub = lambda: random_term(rng, depth - 1, free, annotated)
    under = lambda: random_term(rng, depth - 1, free + 1, annotated)
    if roll == 0:
        cell = rng.choice(CELLS) if annotated and rng.random() < 0.5 else None
        return Var(rng.randrange(free), cell)
    if roll == 1:
        return App(sub(), sub())
    if roll == 2:
        return Lam(under())
    if roll == 3:
        return Pi((), INT, under())  # an interval binder: its codomain is under p
    if roll == 4:
        return Pi(("g",), sub(), under())
    if roll == 5:
        return Modify(("g",), sub())
    if roll == 6:
        return Pair(sub(), MeetT(sub(), I1()))
    return rng.choice([I0(), Univ(0), INT])


def peeled(t):
    """`t` under at most three of its leading binders."""
    for _ in range(3):
        if isinstance(t, Lam):
            t = t.body
        elif isinstance(t, Pi):
            t = t.cod
    return t


def rebuilt(t):
    """A copy of `t` that shares no node with it."""
    return type(t)(*[rebuilt(v) if isinstance(v, Term) else v
                     for v in (getattr(t, name) for name in fields(type(t)))])


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
        assert CHECKER.conv(entry.body, reduced), name


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
            found = cell_search(src, dst)
            if found is not None:
                validate(found)
                norm = cell_normalize(found)
                assert (norm.src, norm.dst) == (found.src, found.dst)
                validate(norm)


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


def test_instantiate_is_substitution_one_argument_at_a_time():
    """`instantiate(b, (a, c))`, which beta reduction and the typing of an
    application spine use, is the same term as substituting `a` for Var 1
    under the binder of Var 0, then `c` for Var 0."""
    rng = random.Random(41)

    def one_at_a_time(body, a, c):
        return subst(subst(Lam(body), a).body, c)

    bodies = [peeled(t) for g in CHECKER.globals.values() for t in (g.ty, g.body)
              if t is not None and isinstance(t, (Lam, Pi))]
    bodies = rng.sample(bodies, 120) + [random_term(rng, 5, 4, True) for _ in range(300)]
    annotated_uses = 0
    for body in bodies:
        annotated_uses += any(isinstance(u, Var) and u.cell is not None and u.ix - d in (0, 1)
                              for u, d in subterms(body))
        a, c = random_term(rng, 3, 3, False), random_term(rng, 3, 3, False)
        assert instantiate(body, (a, c)) == one_at_a_time(body, a, c)
    assert annotated_uses > 50


def test_table_driven_walks_agree_with_the_generic_references():
    """`syn_eq`, `same_data` and the `_map` under `shift`, `instantiate` and
    `apply_cell` give what the generic walks of `support` give, and return
    their input object exactly when those do, on every global of one checker
    per passing manifest file and on generated terms with annotated
    variables."""
    rng = random.Random(43)
    base = default_stdlib_dir()
    manifest = load_manifest()
    terms = []
    for entry in manifest.entries:
        if entry.expect_code is not None:
            continue
        checker = Checker()
        assert load_prelude(checker) == []
        for file in manifest.files[entry.file][1] + [entry.file]:
            with open(os.path.join(base, file), encoding="utf-8") as handle:
                assert checker.check_source(handle.read(), file) == []
        globals_ = [t for g in checker.globals.values() for t in (g.ty, g.body) if t is not None]
        terms += globals_ + [peeled(t) for t in globals_ if isinstance(t, (Lam, Pi))]
    assert len(terms) > 11 * 2 * 104
    terms += [random_term(rng, 5, 4, True) for _ in range(300)]
    small = [random_term(rng, 3, 3, False) for _ in range(30)]

    walks = []
    for t in terms:
        by, cutoff, n = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
        args = tuple(rng.choice(small) for _ in range(n))
        walks.append((t, lambda t=t, by=by, cutoff=cutoff: shift(t, by, cutoff)))
        walks.append((t, lambda t=t, args=args: instantiate(t, args)))
        walks.append((t, lambda t=t, cell=rng.choice(CELLS): apply_cell(t, cell)))

    def outcomes():
        out = []
        for t, walk in walks:
            try:
                result = walk()
            except ModeError as exc:  # a cell whiskered onto a mismatched one
                out.append((False, exc.code))
            else:
                out.append((result is t, result))
        return out

    table_driven = outcomes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_map", reference_map)
        reference = outcomes()
    assert len(table_driven) == len(reference) == 3 * len(terms)
    changed = 0
    for (same, new), (ref_same, ref) in zip(table_driven, reference):
        assert same == ref_same
        assert new == ref if isinstance(ref, str) else reference_syn_eq(new, ref)
        changed += not ref_same
    assert changed > len(terms) // 2

    for t in terms:
        copy = rebuilt(t)
        assert copy is not t and syn_eq(t, copy) and reference_syn_eq(t, copy)
    for _ in range(3000):
        a, b = rng.choice(terms), rng.choice(terms)
        assert syn_eq(a, b) == reference_syn_eq(a, b)
        if type(a) is type(b):
            assert same_data(a, b) == reference_same_data(a, b)
