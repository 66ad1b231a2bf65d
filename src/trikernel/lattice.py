"""Free bounded distributive lattice over interval atoms.

Canonical forms are irredundant disjunctive normal forms: an antichain of
monomials, each monomial a set of atoms joined by meet and stored as an int
bitmask over atom ids.  Two expressions are equal in the free bounded
distributive lattice exactly when their canonical forms coincide, which the
tests cross-check against the Boolean two-element oracle of
`tests/lattice_oracle.py`.

Expressions are the kernel's interval terms under their lattice names:
`Atom`, `Bot`, `Top`, `Meet` and `Join` are `core.Const`, `I0`, `I1`, `MeetT`
and `JoinT`.  Atoms are arbitrary hashable keys interned into an append-only
table so that open kernel terms of interval type can serve as atoms.
`canon` folds on an explicit stack, so thousands of monomials need no deep
recursion; `Checker.int_canon` is `canon` with the kernel's rule at a leaf.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator, Optional

from . import syntax
from .core import Const as Atom, I0 as Bot, I1 as Top, JoinT as Join, MeetT as Meet
from .core import Term as Expr
from .diagnostics import KernelError

# A canonical polynomial: an ascending tuple of monomials, each an int whose
# bit i is atom id i.  The monomial 0 (no atoms) is 1; the empty tuple is 0.
Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (0,)

COUNT_BUDGET = 5


class LatticeSizeError(ValueError):
    """Raised when a brute-force budget is exceeded (code E-LATTICE-SIZE)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.code = "E-LATTICE-SIZE"
        self.message = message


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
# Expressions: the kernel's interval terms
# ---------------------------------------------------------------------------


class LatticeParseError(ValueError):
    pass


def parse_expr(text: str) -> Expr:
    """Parse ``x /\\ (y \\/ z)`` with the term grammar of `syntax`.

    Atoms are the grammar's identifiers, so keywords are not atoms; ``0`` and
    ``1`` are the bounds.
    """
    try:
        term = syntax.parse_term(text)
    except KernelError as exc:
        raise LatticeParseError(exc.diagnostic.message) from None
    return _from_sterm(term)


def _from_sterm(t: syntax.STerm) -> Expr:
    match t:
        case syntax.SVar(name):
            return Atom(name)
        case syntax.SNum(0):
            return Bot()
        case syntax.SNum(1):
            return Top()
        case syntax.SMeet(l, r):
            return Meet(_from_sterm(l), _from_sterm(r))
        case syntax.SJoin(l, r):
            return Join(_from_sterm(l), _from_sterm(r))
    raise LatticeParseError(f"not a lattice expression: {syntax.print_term(t)}")


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


def canon(expr: Expr, table: Optional[AtomTable] = None,
          atom: Optional[Callable[[Expr], Poly]] = None) -> Poly:
    """Canonical antichain form of `expr`.

    Bounds, meets and joins fold here, left operand first, on an explicit
    stack, told apart by their exact class; every other subterm is a leaf
    whose form `atom` gives.  By default a leaf must be a constant, and its
    name is interned into `table` (or a fresh table).
    """
    if atom is None:
        atom = partial(_named_atom, table if table is not None else AtomTable())
    todo: list = [expr]  # subterms still to fold, and folds awaiting operands
    forms: list[Poly] = []
    while todo:
        top = todo.pop()
        former = type(top)
        if former is Meet:
            todo += (poly_meet, top.rhs, top.lhs)
        elif former is Join:
            todo += (poly_join, top.rhs, top.lhs)
        elif former is Bot:
            forms.append(ZERO)
        elif former is Top:
            forms.append(ONE)
        elif isinstance(top, Expr):
            forms.append(atom(top))
        else:  # a fold, whose two operands are the last two forms
            rhs = forms.pop()
            forms[-1] = top(forms[-1], rhs)
    return forms[0]


def _named_atom(table: AtomTable, expr: Expr) -> Poly:
    if isinstance(expr, Atom):
        return poly_atom(table.intern(expr.name))
    raise TypeError(f"not a lattice expression: {expr!r}")


def leq(p: Poly, q: Poly) -> bool:
    """Lattice order: p <= q iff every monomial of p contains one of q."""
    return all(any(n & m == n for n in q) for m in p)


def subst(p: Poly, mapping: dict[int, Poly]) -> Poly:
    """Substitute polynomials for atoms; unmapped atoms stay themselves."""
    out = ZERO
    for m in p:
        term = ONE
        for atom in monomial_atoms(m):
            term = poly_meet(term, mapping.get(atom, poly_atom(atom)))
        out = poly_join(out, term)
    return out


def phoa_endpoints(p: Poly, x: int) -> tuple[Poly, Poly]:
    """Endpoint decomposition at atom x: (p[x:=0], p[x:=1]).

    Satisfies leq(p0, p1) and p = p0 \\/ (x /\\ p1).
    """
    p0 = subst(p, {x: ZERO})
    p1 = subst(p, {x: ONE})
    return p0, p1


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_canonical(n: int) -> Iterator[Poly]:
    """All canonical forms over atoms 0..n-1 (antichains of subsets).

    Each antichain is built once, its monomials in ascending order: a mask
    contains only smaller masks, so a candidate is tested only for containing
    one already chosen.
    """

    def extend(prefix: list[int], start: int) -> Iterator[Poly]:
        yield tuple(prefix)
        for m in range(start, 1 << n):
            if not any(k & m == k for k in prefix):
                prefix.append(m)
                yield from extend(prefix, m + 1)
                prefix.pop()

    return extend([], 0)


def count_free(n: int) -> int:
    """Number of distinct canonical forms over n atoms.

    Equals the number of monotone Boolean functions of n variables.
    """
    if n > COUNT_BUDGET:
        raise LatticeSizeError(f"count_free({n}) exceeds budget {COUNT_BUDGET}")
    if n < 0:
        raise LatticeSizeError("count_free needs n >= 0")
    return sum(1 for _ in enumerate_canonical(n))


def format_poly(p: Poly, table: AtomTable) -> str:
    """Render a canonical form; atom ids resolve through `table`."""
    if p == ZERO:
        return "0"
    if p == ONE:
        return "1"
    parts = [" /\\ ".join(str(table.key(a)) for a in m) for m in monomials(p)]
    if len(parts) == 1:
        return parts[0]
    return " \\/ ".join(f"({q})" if " /\\ " in q else q for q in parts)
