"""Free bounded distributive lattice over interval atoms.

Two expressions are equal in the free bounded distributive lattice exactly
when they agree at every point of {0,1}^k, k their atoms, and exactly when
their canonical forms are one: irredundant disjunctive normal forms, an
antichain of monomials, each monomial a set of atoms joined by meet and
stored as an int bitmask.  `decide` folds both sides once into postfix
programs and evaluates each, over at most `TABLE_ATOMS` atoms as one
2^k-bit truth table, beyond that as a canonical form over its slots.
`canon` gives the canonical form over atom ids that a diagnostic prints.
The tests cross-check both against the Boolean two-element oracle of
`tests/lattice_oracle.py`.

Expressions are the kernel's interval terms under their lattice names:
`Atom`, `Bot`, `Top`, `Meet` and `Join` are `core.Const`, `I0`, `I1`, `MeetT`
and `JoinT`.  Atoms are arbitrary hashable keys interned into an append-only
table so that open kernel terms of interval type can serve as atoms.  Both
folds run on an explicit stack, left operand first, so thousands of atoms or
monomials need no deep recursion; the kernel gives them its rule at a leaf.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .core import Const as Atom, I0 as Bot, I1 as Top, JoinT as Join, MeetT as Meet
from .core import Term as Expr

# A canonical polynomial: an ascending tuple of monomials, each an int whose
# bit i is atom id i.  The monomial 0 (no atoms) is 1; the empty tuple is 0.
Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (0,)

# Up to this many distinct atoms, `decide` compares truth tables: over k
# atoms a side is one 2^k-bit integer, built with one `&` or `|` per node,
# and at 16 atoms that is 8 KiB.  Beyond it `decide` compares canonical
# forms, whose size follows the terms rather than the atoms: a meet chain of
# 3,000 atoms has one monomial but would need a 2^3000-bit table.
TABLE_ATOMS = 16


class AtomTable:
    """Append-only interning of atom keys; ids give the canonical atom order."""

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []

    def intern(self, key: Hashable) -> int:
        ident = self._ids.get(key)
        if ident is None:
            ident = len(self._keys)
            self._ids[key] = ident
            self._keys.append(key)
        return ident

    def get(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def alias(self, key: Hashable, ident: int) -> None:
        """Make `key` one more key of the atom `ident`."""
        self._ids[key] = ident

    def key(self, ident: int) -> Hashable:
        return self._keys[ident]


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _reduce(monomials: Iterable[int]) -> Poly:
    """Deduplicate and drop monomials absorbed by a smaller one: each size
    class is tested only against those kept from the smaller classes."""
    kept: list[int] = []
    for _, same in itertools.groupby(sorted(set(monomials), key=int.bit_count), int.bit_count):
        kept += [m for m in same if not any(k & m == k for k in kept)]
    return tuple(sorted(kept))


def poly_atom(ident: int) -> Poly:
    return (1 << ident,)


def monomial_atoms(m: int) -> tuple[int, ...]:
    """The atom ids of a monomial, ascending."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def monomials(p: Poly) -> list[tuple[int, ...]]:
    """The monomials of `p` as atom-id tuples, in the order they print."""
    return sorted(map(monomial_atoms, p))


def poly_meet(p: Poly, q: Poly) -> Poly:
    return _reduce(m | n for m in p for n in q)


def poly_join(p: Poly, q: Poly) -> Poly:
    """Both sides are antichains, so a monomial can only be absorbed by one of
    the other side: `q` loses those that contain one of `p`, then `p` those
    that contain one of what `q` kept."""
    q = [n for n in q if not any(m & n == m for m in p)]
    return tuple(sorted([m for m in p if not any(n & m == n for n in q)] + q))


# The operators of a postfix program; its other entries are atom slots.
_MEET, _JOIN, _BOT, _TOP = -1, -2, -3, -4


def _postfix(expr: Expr, atom: Callable[[Expr], int | Expr],
             slots: dict[int, int], ops: list[int]) -> None:
    """Append `expr` to `ops` in postfix, left operand first.

    Bounds, meets and joins are told apart by their exact class; `atom` gives
    every other subterm either its atom id or a bound, meet or join to fold
    in its place.  A leaf's entry is the slot of its atom id, numbered in
    `slots` in order of first use.
    """
    todo: list = [expr]  # subterms still to fold, and operators after them
    while todo:
        top = todo.pop()
        former = type(top)
        if former is Meet:
            todo += (_MEET, top.rhs, top.lhs)
        elif former is Join:
            todo += (_JOIN, top.rhs, top.lhs)
        elif former is int:
            ops.append(top)
        elif former is Bot:
            ops.append(_BOT)
        elif former is Top:
            ops.append(_TOP)
        else:
            leaf = atom(top)
            if type(leaf) is int:
                ops.append(slots.setdefault(leaf, len(slots)))
            else:
                todo.append(leaf)


def _evaluate(ops: list[int], atoms: Sequence, meet: Callable, join: Callable,
              bottom, top):
    """The value of a postfix program, `atoms[i]` at slot i."""
    values: list = []
    for op in ops:
        if op >= 0:
            values.append(atoms[op])
        elif op == _MEET:
            rhs = values.pop()
            values[-1] = meet(values[-1], rhs)
        elif op == _JOIN:
            rhs = values.pop()
            values[-1] = join(values[-1], rhs)
        else:
            values.append(bottom if op == _BOT else top)
    return values[0]


def canon(expr: Expr, atom: Callable[[Expr], int | Expr]) -> Poly:
    """Canonical antichain form of `expr`, with `atom` at a leaf as
    `_postfix` says."""
    slots: dict[int, int] = {}
    ops: list[int] = []
    _postfix(expr, atom, slots, ops)
    return _evaluate(ops, [poly_atom(ident) for ident in slots], poly_meet, poly_join, ZERO, ONE)


@cache
def atom_tables(k: int) -> tuple[int, ...]:
    """The truth tables of slots 0..k-1 over the 2^k points: bit n of table i
    is bit i of n.  Each is a repeated byte pattern read as one integer."""
    size = max(1, (1 << k) >> 3)  # bytes
    mask = (1 << (1 << k)) - 1
    tables = []
    for i in range(k):
        if i < 3:
            pattern = bytes((0b10101010, 0b11001100, 0b11110000)[i:i + 1]) * size
        else:
            run = 1 << (i - 3)
            pattern = (bytes(run) + b"\xff" * run) * (size // (2 * run))
        tables.append(int.from_bytes(pattern, "little") & mask)
    return tuple(tables)


def decide(lhs: Expr, rhs: Expr, atom: Callable[[Expr], int | Expr]) -> bool:
    """Whether `lhs` and `rhs` are equal.  Both sides fold once, as `canon`
    folds them, `lhs` first, so atoms intern in the same order; over their k
    shared slots each is evaluated as a truth table or, beyond
    `TABLE_ATOMS`, as a canonical form."""
    slots: dict[int, int] = {}
    left, right = [], []
    _postfix(lhs, atom, slots, left)
    _postfix(rhs, atom, slots, right)
    k = len(slots)
    if k > TABLE_ATOMS:
        algebra = [poly_atom(slot) for slot in range(k)], poly_meet, poly_join, ZERO, ONE
    else:
        algebra = atom_tables(k), operator.and_, operator.or_, 0, (1 << (1 << k)) - 1
    return _evaluate(left, *algebra) == _evaluate(right, *algebra)
