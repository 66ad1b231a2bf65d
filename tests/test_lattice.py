"""Lattice decision procedure tests, oracle-checked."""

import itertools
import random

import pytest

from trikernel import core, lattice
from trikernel.lattice import (
    ONE,
    ZERO,
    Atom,
    AtomTable,
    Bot,
    Expr,
    Join,
    LatticeSizeError,
    Meet,
    Presentation,
    Top,
    canon,
    count_free,
    count_monotone_functions,
    dualize,
    enumerate_canonical,
    eval_expr,
    format_expr,
    format_poly,
    fp_algebra_homs,
    leq,
    monomial_atoms,
    oracle_eq,
    parse_expr,
    phoa_endpoints,
    phoa_reconstruct,
    poly_atom,
    poly_join,
    poly_meet,
    subst,
)

X, Y, Z = Atom("x"), Atom("y"), Atom("z")


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
    table = AtomTable()
    lhs = canon(Meet(X, Join(Y, Z)), table)
    rhs = canon(Join(Meet(X, Y), Meet(X, Z)), table)
    assert lhs == rhs


def test_canon_absorption_and_units():
    table = AtomTable()
    assert canon(Join(X, Meet(X, Y)), table) == canon(X, table)
    assert canon(Meet(Top(), Join(X, Top())), table) == ONE
    assert canon(Meet(X, Bot()), table) == ZERO


def test_eq_leq_examples():
    table = AtomTable()
    assert canon(Meet(X, Y), table) == canon(Meet(Y, X), table)
    assert leq(canon(Meet(X, Y), table), canon(Join(X, Y), table))
    assert not leq(canon(X, table), canon(Y, table))


def test_oracle_examples():
    assert oracle_eq(Meet(X, Join(Y, Z)), Join(Meet(X, Y), Meet(X, Z)))
    assert not oracle_eq(X, Y)
    assert oracle_eq(Bot(), Meet(X, Bot()))


def test_oracle_budget():
    big = [Atom(f"v{i}") for i in range(21)]
    lhs = big[0]
    for a in big[1:]:
        lhs = Meet(lhs, a)
    with pytest.raises(LatticeSizeError):
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
        c = canon(e, table)
        t = tuple(eval_expr(e, a) for a in assignments)
        by_canon.setdefault(c, set()).add(idx)
        by_truth.setdefault(t, set()).add(idx)
    canon_classes = {frozenset(v) for v in by_canon.values()}
    truth_classes = {frozenset(v) for v in by_truth.values()}
    assert canon_classes == truth_classes


def test_eq_matches_oracle_random_10000_pairs():
    rng = random.Random(20260808)
    atoms = ["x", "y", "z", "w"]
    disagreements = 0
    for _ in range(10_000):
        a = random_expr(rng, atoms, 4)
        b = random_expr(rng, atoms, 4)
        table = AtomTable()
        if (canon(a, table) == canon(b, table)) != oracle_eq(a, b):
            disagreements += 1
    assert disagreements == 0


def test_phoa_examples():
    table = AtomTable()
    x = table.intern("x")
    p = canon(X, table)
    p0, p1 = phoa_endpoints(p, x)
    assert p0 == ZERO and p1 == ONE
    assert phoa_reconstruct(p0, p1, x) == p

    p = canon(Top(), table)
    assert phoa_endpoints(p, x) == (ONE, ONE)

    table2 = AtomTable()
    x2 = table2.intern("x")
    y2 = table2.intern("y")
    z2 = table2.intern("z")
    p = canon(Join(Y, Meet(X, Z)), table2)
    p0, p1 = phoa_endpoints(p, x2)
    assert p0 == poly_atom(y2)
    assert p1 == poly_join(poly_atom(y2), poly_atom(z2))
    assert phoa_reconstruct(p0, p1, x2) == p


def test_phoa_reconstruction_exhaustive_three_atoms():
    for p in enumerate_canonical(3):
        for x in range(3):
            p0, p1 = phoa_endpoints(p, x)
            assert leq(p0, p1)
            assert phoa_reconstruct(p0, p1, x) == p


def test_straight_line_homotopy_monotone():
    # substituting x := x /\ t pointwise can only shrink the polynomial
    t = 10  # fresh atom id outside 0..2
    for p in enumerate_canonical(3):
        shrunk = subst(p, {x: poly_meet(poly_atom(x), poly_atom(t)) for x in range(3)})
        assert leq(shrunk, p)


def test_dualize_examples():
    table = AtomTable()
    assert dualize(canon(Meet(X, Y), table)) == canon(Join(X, Y), table)
    assert dualize(ZERO) == ONE
    p = canon(Join(X, Meet(Y, Z)), table)
    assert dualize(dualize(p)) == p


def test_dualize_involution_and_antihom_exhaustive():
    forms = list(enumerate_canonical(2))
    for p in forms:
        assert dualize(dualize(p)) == p
        for q in forms:
            assert dualize(poly_meet(p, q)) == poly_join(dualize(p), dualize(q))
            assert dualize(poly_join(p, q)) == poly_meet(dualize(p), dualize(q))


def test_count_free_values():
    assert count_free(1) == 3
    assert count_free(2) == 6
    assert count_free(3) == 20
    assert count_free(4) == 168


def test_count_free_matches_monotone_oracle():
    for n in range(5):
        assert count_free(n) == count_monotone_functions(n)


def test_count_budget():
    with pytest.raises(LatticeSizeError):
        count_free(6)


def test_fp_algebra_homs():
    free_one = Presentation(["x"])
    assert fp_algebra_homs(free_one) == [(0,), (1,)]

    chain = Presentation(["x", "y"], [(Meet(Atom("x"), Atom("y")), Atom("x"))])
    assert fp_algebra_homs(chain) == [(0, 0), (0, 1), (1, 1)]

    inconsistent = Presentation(["x"], [(Bot(), Top())])
    assert fp_algebra_homs(inconsistent) == []


def test_fp_algebra_budget():
    with pytest.raises(LatticeSizeError):
        fp_algebra_homs(Presentation(["a", "b", "c", "d", "e"]))


def test_parse_and_format_roundtrip():
    # the expressions are the kernel's interval terms, printed by its readback
    for name, term in [(Atom, core.Const), (Bot, core.I0), (Top, core.I1),
                       (Meet, core.MeetT), (Join, core.JoinT), (Expr, core.Term)]:
        assert name is term
    text = "x /\\ (y \\/ z)"
    e = parse_expr(text)
    assert e == Meet(X, Join(Y, Z))
    assert parse_expr(format_expr(e)) == e
    assert parse_expr("0 \\/ 1 /\\ x") == Join(Bot(), Meet(Top(), X))
    right_nested = Meet(X, Meet(Y, Z))
    assert parse_expr(format_expr(right_nested)) == right_nested
    rng = random.Random(20261018)
    for e in [Bot(), Top(), Join(X, Join(Y, Top()))] + [
            random_expr(rng, ["x", "y", "z"], 5) for _ in range(500)]:
        assert parse_expr(format_expr(e)) == e, e


def test_format_poly():
    table = AtomTable()
    p = canon(Join(Meet(X, Y), Z), table)
    # deterministic rendering through the atom table
    rendered = format_poly(p, table)
    assert parse_expr(rendered) is not None
    assert canon(parse_expr(rendered), AtomTable()) == canon(
        parse_expr("(x /\\ y) \\/ z"), AtomTable()
    )


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
