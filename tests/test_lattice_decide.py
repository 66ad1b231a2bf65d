"""Interval equations decided by `lattice.decide`, by truth tables up to
`lattice.TABLE_ATOMS` atoms and by canonical forms over their slots beyond,
against canonical forms over atom ids and the Boolean oracle, on both sides
of the cut."""

import random

import pytest

from trikernel import lattice
from trikernel.core import App, Const, I0, I1, JoinT, MeetT, constants
from trikernel.kernel import Checker
from trikernel.lattice import Atom, Bot, Join, Meet, Top

from lattice_oracle import eval_expr, named, oracle_eq

_XS = 20
_HEADER = ("".join(f"axiom x{i} : Int\n" for i in range(_XS))
           + "axiom f : Int -> Int\ndef m : Int := x0 /\\ x1\n")
# The oracle evaluates each side once per point of {0,1}^n; beyond this many
# atoms that costs more than the rest of the test.
_ORACLE_ATOMS = 10
# The atoms that an argument of `f` ranges over; `f a` and `f b` are one atom
# exactly when `a` and `b` agree on these.
_ARG_ATOMS = tuple(f"x{i}" for i in range(4))


class _Leaf:
    """A leaf of a generated pair: its core term and its oracle expression."""

    def __init__(self, term, expr):
        self.term, self.expr = term, expr


def _variable(i):
    return _Leaf(Const(f"x{i}"), Atom(f"x{i}"))


def _bound(top):
    return _Leaf(I1() if top else I0(), Top() if top else Bot())


_M = _Leaf(Const("m"), Meet(Atom("x0"), Atom("x1")))


def _neutral(rng):
    """`f a` for a small lattice term `a` over `_ARG_ATOMS`; for the oracle an
    atom named by `a`'s values on those atoms."""
    arg = _tree(rng, [_variable(i) for i in rng.sample(range(len(_ARG_ATOMS)), 2)], 3)
    values = "".join(
        "01"[eval_expr(arg.expr, {a: bool(point >> i & 1) for i, a in enumerate(_ARG_ATOMS)})]
        for point in range(1 << len(_ARG_ATOMS)))
    return _Leaf(App(Const("f"), arg.term), Atom(f"f{values}"))


def _node(join, lhs, rhs):
    return _Leaf((JoinT if join else MeetT)(lhs.term, rhs.term),
                 (Join if join else Meet)(lhs.expr, rhs.expr))


def _tree(rng, pool, size):
    """A random tree that uses every leaf of `pool`, `size` leaves in all."""
    leaves = pool + [rng.choice(pool) for _ in range(size - len(pool))]
    rng.shuffle(leaves)
    while len(leaves) > 1:
        k = rng.randrange(len(leaves) - 1)
        leaves[k:k + 2] = [_node(rng.random() < 0.5, leaves[k], leaves[k + 1])]
    return leaves[0]


def _rewrite(rng, t, pool):
    """A term equal to `t` in the free lattice: commuted operands, a
    distributed meet, and leaves absorbed, bounded or unfolded."""
    term, expr = t.term, t.expr
    if type(term) in (MeetT, JoinT):
        join = type(term) is JoinT
        lhs = _rewrite(rng, _Leaf(term.lhs, expr.lhs), pool)
        rhs = _rewrite(rng, _Leaf(term.rhs, expr.rhs), pool)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        if not join and type(rhs.term) is JoinT and rng.random() < 0.3:
            b, c = _Leaf(rhs.term.lhs, rhs.expr.lhs), _Leaf(rhs.term.rhs, rhs.expr.rhs)
            return _node(True, _node(False, lhs, b), _node(False, lhs, c))
        return _node(join, lhs, rhs)
    roll = rng.random()
    if roll < 0.15:
        return _node(True, t, _node(False, t, rng.choice(pool)))
    if roll < 0.25:
        return _node(False, t, _bound(True))
    if roll < 0.35:
        return _node(True, t, _bound(False))
    if t is _M:
        return _node(False, _variable(0), _variable(1))
    return t


def _mutate(rng, t, pool):
    """`t` with one leaf replaced by a leaf of `pool` or a bound."""
    term, expr = t.term, t.expr
    if type(term) in (MeetT, JoinT):
        join = type(term) is JoinT
        lhs, rhs = _Leaf(term.lhs, expr.lhs), _Leaf(term.rhs, expr.rhs)
        if rng.random() < 0.5:
            return _node(join, _mutate(rng, lhs, pool), rhs)
        return _node(join, lhs, _mutate(rng, rhs, pool))
    return rng.choice(pool + [_bound(False), _bound(True)])


def _pool(rng, n):
    """Leaves that mention exactly n distinct atoms, as the oracle names them."""
    pool, names = [], set()
    while len(names) < n:
        roll = rng.random()
        if roll < 0.2:
            leaf = _neutral(rng)
        elif roll < 0.3:
            leaf = _M
        else:
            leaf = _variable(rng.randrange(_XS))
        new = names | constants(leaf.expr)
        if names < new and len(new) <= n:
            pool.append(leaf)
            names = new
    return pool


def _pairs():
    rng = random.Random(2028)
    x0 = _variable(0)
    yield _bound(False), _bound(True)
    yield _bound(False), _node(False, x0, _bound(False))
    yield _bound(True), _node(True, x0, _bound(True))
    yield _M, _node(False, _variable(1), x0)
    yield _M, _node(True, _variable(1), x0)
    for n in range(1, _XS + 1):
        for _ in range(8):
            pool = _pool(rng, n)
            lhs = _tree(rng, pool, len(pool) + rng.randrange(3))
            rhs = _rewrite(rng, lhs, pool)
            if rng.random() < 0.5:
                rhs = _mutate(rng, rhs, pool)
            yield lhs, rhs


def _verdicts(checker, lhs, rhs):
    """Conversion's verdict, and the comparison of canonical forms, on one
    fresh atom table."""
    checker.atoms, checker._atoms_by_former = lattice.AtomTable(), {}
    return checker.conv(lhs.term, rhs.term), checker.int_canon(lhs.term) == checker.int_canon(rhs.term)


def test_conversion_agrees_with_canonical_forms_and_the_oracle():
    checker = Checker()
    assert checker.check_source(_HEADER) == []
    counts, verdicts = set(), set()
    for lhs, rhs in _pairs():
        conv, canon = _verdicts(checker, lhs, rhs)
        assert conv == canon, (lhs.term, rhs.term)
        n = len(constants(lhs.expr) | constants(rhs.expr))
        if n <= _ORACLE_ATOMS:
            assert conv == oracle_eq(lhs.expr, rhs.expr), (lhs.term, rhs.term)
        counts.add(n)
        verdicts.add((n <= lattice.TABLE_ATOMS, conv))
    assert counts == set(range(_XS + 1))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n", [lattice.TABLE_ATOMS, lattice.TABLE_ATOMS + 1])
def test_canonical_forms_are_built_only_beyond_the_cut(monkeypatch, n):
    """Conversion folds each side once, by `lattice.decide`, into a truth
    table or, beyond the cut, a canonical form over its slots; it never asks
    `int_canon`, which numbers atoms for printing."""
    checker = Checker()
    assert checker.check_source(_HEADER) == []
    calls, meets = [], []
    original = Checker.int_canon
    monkeypatch.setattr(Checker, "int_canon", lambda self, t: calls.append(t) or original(self, t))
    poly_meet = lattice.poly_meet
    monkeypatch.setattr(lattice, "poly_meet", lambda p, q: meets.append(p) or poly_meet(p, q))
    chain = [Const(f"x{i}") for i in range(n)]
    lhs = rhs = chain[0]
    for a, b in zip(chain[1:], chain[-1:0:-1]):
        lhs, rhs = MeetT(lhs, a), MeetT(b, rhs)
    assert checker.conv(lhs, rhs)
    assert checker.conv_str(MeetT(lhs, I0()), I0())
    assert calls == []
    assert len(meets) == (0 if n <= lattice.TABLE_ATOMS else 3 * (n - 1) + 1)


def test_equal_agrees_with_canonical_forms():
    rng = random.Random(28)
    verdicts = set()
    for n in range(1, _XS + 1):
        names = [Atom(f"a{i}") for i in range(n)]
        for _ in range(5):
            lhs = _tree(rng, [_Leaf(a, a) for a in names], n + 2)
            rhs = _rewrite(rng, lhs, [_Leaf(a, a) for a in names])
            if rng.random() < 0.5:
                rhs = _mutate(rng, rhs, [_Leaf(a, a) for a in names])
            atom = named(lattice.AtomTable())
            same = lattice.canon(lhs.expr, atom) == lattice.canon(rhs.expr, atom)
            assert lattice.decide(lhs.expr, rhs.expr, atom) is same
            verdicts.add((n <= lattice.TABLE_ATOMS, same))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 9, lattice.TABLE_ATOMS])
def test_atom_tables_hold_each_atoms_value_at_every_point(k):
    points = range((1 << k) - 1, -1, -1)  # most significant bit first
    assert lattice.atom_tables(k) == tuple(
        int("".join("01"[point >> i & 1] for point in points), 2) for i in range(k))
