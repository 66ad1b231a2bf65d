"""Free bounded distributive lattice over interval atoms.

Canonical forms are irredundant disjunctive normal forms: an antichain of
monomials, each monomial a set of atoms joined by meet and stored as an int
bitmask over atom ids.  Two expressions are equal in the free bounded
distributive lattice exactly when their canonical forms coincide, which the
Boolean two-element oracle cross-checks.

Expressions are the kernel's interval terms under their lattice names:
`Atom`, `Bot`, `Top`, `Meet` and `Join` are `core.Const`, `I0`, `I1`, `MeetT`
and `JoinT`.  Atoms are arbitrary hashable keys interned into an append-only
table so that open kernel terms of interval type can serve as atoms.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from . import syntax
from .core import Const as Atom, I0 as Bot, I1 as Top, JoinT as Join, MeetT as Meet
from .core import Term as Expr, constants
from .diagnostics import KernelError
from .record import record

# A canonical polynomial: an ascending tuple of monomials, each an int whose
# bit i is atom id i.  The monomial 0 (no atoms) is 1; the empty tuple is 0.
Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (0,)

ORACLE_ATOM_BUDGET = 20
COUNT_BUDGET = 5
HOM_GENERATOR_BUDGET = 4


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


def eval_expr(expr: Expr, assignment: dict[Hashable, bool]) -> bool:
    """Evaluate in the two-element lattice."""
    match expr:
        case Atom(name):
            return assignment[name]
        case Bot():
            return False
        case Top():
            return True
        case Meet(l, r):
            return eval_expr(l, assignment) and eval_expr(r, assignment)
        case Join(l, r):
            return eval_expr(l, assignment) or eval_expr(r, assignment)
    raise TypeError(f"not a lattice expression: {expr!r}")


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


def format_expr(expr: Expr) -> str:
    from .kernel import print_core  # the kernel imports this module

    return print_core(expr)


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
    stack; every other subterm is a leaf whose form `atom` gives.  By default
    a leaf must be a constant, and its name is interned into `table` (or a
    fresh table).
    """
    if atom is None:
        atom = partial(_named_atom, table if table is not None else AtomTable())
    todo: list = [expr]  # subterms still to fold, and folds awaiting operands
    forms: list[Poly] = []
    while todo:
        top = todo.pop()
        match top:
            case Bot():
                forms.append(ZERO)
            case Top():
                forms.append(ONE)
            case Meet(l, r):
                todo += (poly_meet, r, l)
            case Join(l, r):
                todo += (poly_join, r, l)
            case Expr():
                forms.append(atom(top))
            case fold:  # its two operands are the last two forms
                rhs = forms.pop()
                forms[-1] = fold(forms[-1], rhs)
    return forms[0]


def _named_atom(table: AtomTable, expr: Expr) -> Poly:
    if isinstance(expr, Atom):
        return poly_atom(table.intern(expr.name))
    raise TypeError(f"not a lattice expression: {expr!r}")


def leq(p: Poly, q: Poly) -> bool:
    """Lattice order: p <= q iff every monomial of p contains one of q."""
    return all(any(n & m == n for n in q) for m in p)


def poly_atoms(p: Poly) -> set[int]:
    return {a for m in p for a in monomial_atoms(m)}


def eval_poly(p: Poly, assignment: dict[int, bool]) -> bool:
    true = sum(1 << a for a, value in assignment.items() if value)
    return any(m & true == m for m in p)


def oracle_eq(a: Expr | Poly, b: Expr | Poly) -> bool:
    """Brute-force equality over all two-element-lattice assignments.

    Independent of `canon`: expressions are evaluated directly.  Raises
    LatticeSizeError beyond the atom budget.
    """
    if isinstance(a, Expr) and isinstance(b, Expr):
        names, evaluate = constants(a) | constants(b), eval_expr
    elif isinstance(a, Expr) or isinstance(b, Expr):
        raise TypeError("oracle_eq arguments must both be Expr or both Poly")
    else:
        names, evaluate = poly_atoms(a) | poly_atoms(b), eval_poly
    if len(names) > ORACLE_ATOM_BUDGET:
        raise LatticeSizeError(
            f"oracle over {len(names)} atoms exceeds budget {ORACLE_ATOM_BUDGET}"
        )
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if evaluate(a, env) != evaluate(b, env):
            return False
    return True


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


def phoa_reconstruct(p0: Poly, p1: Poly, x: int) -> Poly:
    return poly_join(p0, poly_meet(poly_atom(x), p1))


def dualize(p: Poly) -> Poly:
    """De Morgan dual: swap meet/join and 0/1.  An involution."""
    # p is a join of meets; its dual is a meet of joins, re-expanded to DNF.
    out = ONE
    for m in p:
        clause = ZERO
        for atom in monomial_atoms(m):
            clause = poly_join(clause, poly_atom(atom))
        out = poly_meet(out, clause)
    return out


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


def count_monotone_functions(n: int) -> int:
    """Independent oracle: brute force over all maps Bool^n -> Bool.

    Each function is a bitmask over the 2^n points; monotone means the value
    never drops when a single input bit flips on.  Feasible up to n = 4.
    """
    if n > 4:
        raise LatticeSizeError(f"monotone brute force infeasible for n = {n}")
    pairs = [
        (pt, pt | (1 << b))
        for b in range(n)
        for pt in range(1 << n)
        if not pt & (1 << b)
    ]
    total = 0
    for f in range(1 << (1 << n)):
        if all(not (f >> lo) & 1 or (f >> hi) & 1 for lo, hi in pairs):
            total += 1
    return total


@record
class Presentation:
    """A finitely presented interval algebra: generators plus relations."""

    generators: Sequence[str]
    relations: Sequence[tuple[Expr, Expr]] = ()


def fp_algebra_homs(presentation: Presentation) -> list[tuple[int, ...]]:
    """All maps to the interval with atom-free canonical values.

    Brute force over Boolean tuples for the generators, keeping those that
    satisfy every relation; 0/1 in the result stand for the constant forms.
    """
    gens = list(presentation.generators)
    if len(gens) > HOM_GENERATOR_BUDGET:
        raise LatticeSizeError(
            f"{len(gens)} generators exceed budget {HOM_GENERATOR_BUDGET}"
        )
    for lhs, rhs in presentation.relations:
        extra = (constants(lhs) | constants(rhs)) - set(gens)
        if extra:
            raise LatticeParseError(f"relation mentions unknown generators {sorted(map(str, extra))!r}")
    out: list[tuple[int, ...]] = []
    for bits in itertools.product((0, 1), repeat=len(gens)):
        env = {g: bool(b) for g, b in zip(gens, bits)}
        if all(eval_expr(l, env) == eval_expr(r, env) for l, r in presentation.relations):
            out.append(bits)
    return out


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
