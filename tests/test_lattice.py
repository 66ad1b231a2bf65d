"""Lattice decision procedure tests, oracle-checked."""

import functools
import itertools
import random

import pytest

from trikernel import core, lattice
from trikernel.kernel import Checker, print_core
from trikernel.lattice import (
    ONE,
    ZERO,
    Atom,
    AtomTable,
    Bot,
    Expr,
    Join,
    Meet,
    Top,
    canon,
    monomial_atoms,
    poly_atom,
    poly_join,
    poly_meet,
)

from lattice_oracle import (
    BudgetError,
    Presentation,
    antichains,
    count_monotone_functions,
    dualize,
    eval_expr,
    fp_algebra_homs,
    named,
    oracle_eq,
    parse,
    phoa_reconstruct,
)

X, Y, Z = Atom("x"), Atom("y"), Atom("z")


def leq(p, q):
    """The lattice order: p <= q exactly when p /\\ q = p."""
    return poly_meet(p, q) == p


def ids(n):
    """A table in which the atom named i has id i, for i < n."""
    table = AtomTable()
    for i in range(n):
        table.intern(i)
    return table


def form(p, leaf=Atom):
    """An expression of the canonical form `p`, its atom i written `leaf(i)`."""
    return functools.reduce(Join, (functools.reduce(Meet, map(leaf, monomial_atoms(m)), Top())
                                   for m in p), Bot())


def endpoints(p, x, table):
    """`p` at x = 0 and at x = 1, each folded by `canon`."""
    return tuple(canon(form(p, lambda i: bound if i == x else Atom(i)), named(table))
                 for bound in (Bot(), Top()))


def exprs_of_depth(depth, leaves):
    """All expression trees of depth <= depth over the given leaves."""
    layer = list(leaves)
    for _ in range(depth - 1):
        new = list(leaves)
        for a in layer:
            for b in layer:
                new.append(Meet(a, b))
                new.append(Join(a, b))
        layer = new
    return layer


def random_expr(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Bot()
        if roll < 0.2:
            return Top()
        return Atom(rng.choice(atoms))
    ctor = Meet if rng.random() < 0.5 else Join
    return ctor(random_expr(rng, atoms, depth - 1), random_expr(rng, atoms, depth - 1))


def test_canon_distributivity():
    atom = named(AtomTable())
    lhs = canon(Meet(X, Join(Y, Z)), atom)
    rhs = canon(Join(Meet(X, Y), Meet(X, Z)), atom)
    assert lhs == rhs


def test_canon_absorption_and_units():
    atom = named(AtomTable())
    assert canon(Join(X, Meet(X, Y)), atom) == canon(X, atom)
    assert canon(Meet(Top(), Join(X, Top())), atom) == ONE
    assert canon(Meet(X, Bot()), atom) == ZERO


def test_eq_leq_examples():
    atom = named(AtomTable())
    assert canon(Meet(X, Y), atom) == canon(Meet(Y, X), atom)
    assert leq(canon(Meet(X, Y), atom), canon(Join(X, Y), atom))
    assert not leq(canon(X, atom), canon(Y, atom))


def test_oracle_examples():
    assert oracle_eq(Meet(X, Join(Y, Z)), Join(Meet(X, Y), Meet(X, Z)))
    assert not oracle_eq(X, Y)
    assert oracle_eq(Bot(), Meet(X, Bot()))


def test_oracle_budget():
    big = [Atom(f"v{i}") for i in range(21)]
    lhs = big[0]
    for a in big[1:]:
        lhs = Meet(lhs, a)
    with pytest.raises(BudgetError):
        oracle_eq(lhs, Bot())


def test_eq_matches_oracle_exhaustive_two_atoms_depth3():
    """Canonical equality and the Boolean oracle agree on all pairs.

    Partitioning the expressions by canonical form and by truth table and
    checking the partitions coincide is equivalent to checking every pair.
    """
    leaves = [X, Y, Bot(), Top()]
    exprs = exprs_of_depth(3, leaves)
    assert len(exprs) > 2000
    table = AtomTable()
    table.intern("x")
    table.intern("y")
    assignments = [
        {"x": bool(i), "y": bool(j)} for i in range(2) for j in range(2)
    ]
    by_canon = {}
    by_truth = {}
    for idx, e in enumerate(exprs):
        c = canon(e, named(table))
        t = tuple(eval_expr(e, a) for a in assignments)
        by_canon.setdefault(c, set()).add(idx)
        by_truth.setdefault(t, set()).add(idx)
    canon_classes = {frozenset(v) for v in by_canon.values()}
    truth_classes = {frozenset(v) for v in by_truth.values()}
    assert canon_classes == truth_classes


def test_eq_matches_oracle_random_10000_pairs():
    """Canonical equality agrees with the Boolean oracle, and so does the
    checker on every 50th pair and on that pair's first side against an
    equal rewriting of it, each spelled under a neutral head, `f (a) = f (b)`
    at `f : Int -> Nat`, and through a definition, `A = b` with `def A : Int
    := a`."""
    rng = random.Random(20260808)
    atoms = ["x", "y", "z", "w"]
    axioms = "".join(f"axiom {v} : Int\n" for v in atoms) + "axiom f : Int -> Nat\n"

    def commuted(e):
        if isinstance(e, (Meet, Join)):
            return type(e)(commuted(e.rhs), commuted(e.lhs))
        return e

    def checks(a, b):
        verdicts = set()
        for program in (f"check refl : f ({print_core(a)}) = f ({print_core(b)})\n",
                        f"def A : Int := {print_core(a)}\ncheck refl : A = {print_core(b)}\n"):
            verdicts.add(Checker().check_source(axioms + program) == [])
        assert len(verdicts) == 1, (a, b)
        return verdicts.pop()

    extra = random.Random(1)  # leaves the stream of the 10,000 pairs as it was
    disagreements = kernel_pairs = 0
    for k in range(10_000):
        a = random_expr(rng, atoms, 4)
        b = random_expr(rng, atoms, 4)
        table = AtomTable()
        if (canon(a, named(table)) == canon(b, named(table))) != oracle_eq(a, b):
            disagreements += 1
        if k % 50 == 0:
            absorbed = Join(commuted(a), Meet(a, random_expr(extra, atoms, 2)))
            for lhs, rhs in ((a, b), (a, absorbed)):
                kernel_pairs += 1
                if checks(lhs, rhs) != oracle_eq(lhs, rhs):
                    disagreements += 1
    assert (disagreements, kernel_pairs) == (0, 400)


def test_phoa_examples():
    table = ids(3)
    p = poly_atom(0)
    p0, p1 = endpoints(p, 0, table)
    assert p0 == ZERO and p1 == ONE
    assert phoa_reconstruct(p0, p1, 0) == p

    assert endpoints(ONE, 0, table) == (ONE, ONE)

    p = canon(Join(Atom(1), Meet(Atom(0), Atom(2))), named(table))
    p0, p1 = endpoints(p, 0, table)
    assert p0 == poly_atom(1)
    assert p1 == poly_join(poly_atom(1), poly_atom(2))
    assert phoa_reconstruct(p0, p1, 0) == p


def test_phoa_reconstruction_exhaustive_three_atoms():
    table = ids(3)
    for p in antichains(3):
        assert canon(form(p), named(table)) == p
        for x in range(3):
            p0, p1 = endpoints(p, x, table)
            assert leq(p0, p1)
            assert phoa_reconstruct(p0, p1, x) == p


def test_straight_line_homotopy_monotone():
    # substituting x := x /\ t pointwise can only shrink the polynomial
    table = ids(3)
    for p in antichains(3):
        shrunk = canon(form(p, lambda i: Meet(Atom(i), Atom("t"))), named(table))
        assert leq(shrunk, p)


def test_dualize_examples():
    atom = named(AtomTable())
    assert dualize(canon(Meet(X, Y), atom)) == canon(Join(X, Y), atom)
    assert dualize(ZERO) == ONE
    p = canon(Join(X, Meet(Y, Z)), atom)
    assert dualize(dualize(p)) == p


def test_dualize_involution_and_antihom_exhaustive():
    forms = list(antichains(2))
    for p in forms:
        assert dualize(dualize(p)) == p
        for q in forms:
            assert dualize(poly_meet(p, q)) == poly_join(dualize(p), dualize(q))
            assert dualize(poly_join(p, q)) == poly_meet(dualize(p), dualize(q))


def test_count_free_values():
    # the free lattice on n atoms has one element per canonical form
    for n, value in {1: 3, 2: 6, 3: 20, 4: 168}.items():
        table = ids(n)
        forms = list(antichains(n))
        assert len(set(forms)) == len(forms) == value
        assert all(canon(form(p), named(table)) == p for p in forms)


def test_count_free_matches_monotone_oracle():
    for n in range(5):
        assert sum(1 for _ in antichains(n)) == count_monotone_functions(n)


def test_format_poly():
    # a canonical form prints, through the atom table, as text that parses
    # back to the same form
    checker = Checker()
    for name in "xyz":
        checker.atoms.intern(Atom(name))
    p = canon(Join(Meet(X, Y), Z), checker._atom)
    assert print_core(checker._poly_term(p)) == "x /\\ y \\/ z"
    for q in antichains(3):
        assert canon(parse(print_core(checker._poly_term(q))), checker._atom) == q


def test_fp_algebra_homs():
    free_one = Presentation(["x"])
    assert fp_algebra_homs(free_one) == [(0,), (1,)]

    chain = Presentation(["x", "y"], [(Meet(Atom("x"), Atom("y")), Atom("x"))])
    assert fp_algebra_homs(chain) == [(0, 0), (0, 1), (1, 1)]

    inconsistent = Presentation(["x"], [(Bot(), Top())])
    assert fp_algebra_homs(inconsistent) == []


def test_fp_algebra_budget():
    with pytest.raises(BudgetError):
        fp_algebra_homs(Presentation(["a", "b", "c", "d", "e"]))


def test_parse_and_format_roundtrip():
    # the expressions are the kernel's interval terms, printed by its readback
    for name, term in [(Atom, core.Const), (Bot, core.I0), (Top, core.I1),
                       (Meet, core.MeetT), (Join, core.JoinT), (Expr, core.Term)]:
        assert name is term
    text = "x /\\ (y \\/ z)"
    e = parse(text)
    assert e == Meet(X, Join(Y, Z))
    assert parse(print_core(e)) == e
    assert parse("0 \\/ 1 /\\ x") == Join(Bot(), Meet(Top(), X))
    right_nested = Meet(X, Meet(Y, Z))
    assert parse(print_core(right_nested)) == right_nested
    rng = random.Random(20261018)
    for e in [Bot(), Top(), Join(X, Join(Y, Top()))] + [
            random_expr(rng, ["x", "y", "z"], 5) for _ in range(500)]:
        assert parse(print_core(e)) == e, e


# Monomials as frozensets of atom ids: the slow path that the bitmask
# operations are compared against.
def _reference_reduce(monomials):
    sets = {frozenset(m) for m in monomials}
    keep = (m for m in sets if not any(other < m for other in sets))
    return tuple(sorted(tuple(sorted(m)) for m in keep))


def _reference_meet(p, q):
    return _reference_reduce(tuple(sorted(set(m) | set(n))) for m in p for n in q)


def _reference_join(p, q):
    return _reference_reduce(itertools.chain(p, q))


def _random_monomials(rng, atoms):
    """Monomials as atom tuples, duplicates and the empty monomial included."""
    return [tuple(a for a in atoms if rng.random() < 0.4) for _ in range(rng.randint(0, 6))]


def test_bitmask_operations_match_the_frozenset_reference():
    rng = random.Random(20261019)
    seen = set()
    for i in range(2000):
        width = rng.randint(1, 8)
        if i % 3 == 0:  # disjoint supports
            split = rng.randint(0, width)
            left, right = range(split), range(split, width)
        else:
            left = right = range(width)
        raw_p, raw_q = _random_monomials(rng, left), _random_monomials(rng, right)
        if i % 5 == 0:
            raw_q = raw_p + raw_q  # q shares monomials with p, so p <= q
        ref_p, ref_q = _reference_reduce(raw_p), _reference_reduce(raw_q)
        p, q = (lattice._reduce(sum(1 << a for a in m) for m in raw) for raw in (raw_p, raw_q))
        for ours, ref in [(p, ref_p), (q, ref_q),
                          (poly_meet(p, q), _reference_meet(ref_p, ref_q)),
                          (poly_join(p, q), _reference_join(ref_p, ref_q))]:
            assert list(ours) == sorted(set(ours))
            assert {monomial_atoms(m) for m in ours} == set(ref)
        assert leq(p, q) == (_reference_meet(ref_p, ref_q) == ref_p)
        assert leq(q, p) == (_reference_meet(ref_q, ref_p) == ref_q)
        seen.update({("zero", p == ZERO), ("one", p == ONE), ("leq", leq(p, q))})
    assert seen == {(k, b) for k in ("zero", "one", "leq") for b in (False, True)}
