"""Brute-force oracles that the tests compare `trikernel.lattice` against:
evaluation and equality in the two-element lattice, the endpoint
reconstruction, De Morgan duals, a count of monotone Boolean functions, and
the maps of a finitely presented algebra to the interval.  Also the test
helpers around them: expressions read from text, a leaf rule that names
atoms, and every canonical form over n atoms.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterator, Sequence

from trikernel import syntax
from trikernel.core import constants
from trikernel.lattice import (
    ONE,
    ZERO,
    Atom,
    AtomTable,
    Bot,
    Expr,
    Join,
    Meet,
    Poly,
    Top,
    monomial_atoms,
    poly_atom,
    poly_join,
    poly_meet,
)
from trikernel.record import record

ORACLE_ATOM_BUDGET = 20
HOM_GENERATOR_BUDGET = 4


class BudgetError(ValueError):
    """A brute force would exceed its budget."""


class ParseError(ValueError):
    """A text or term that is not a lattice expression."""


def parse(text: str) -> Expr:
    """The expression written `text` in the term grammar: identifiers are
    atoms, and `0` and `1` the bounds."""

    def convert(t: syntax.STerm) -> Expr:
        match t:
            case syntax.SVar(name):
                return Atom(name)
            case syntax.SNum(0):
                return Bot()
            case syntax.SNum(1):
                return Top()
            case syntax.SMeet(l, r):
                return Meet(convert(l), convert(r))
            case syntax.SJoin(l, r):
                return Join(convert(l), convert(r))
        raise ParseError(f"not a lattice expression: {syntax.print_term(t)}")

    return convert(syntax.parse_term(text))


def named(table: AtomTable) -> Callable[[Expr], int]:
    """The leaf rule of `lattice.canon` and `lattice.decide` for a closed
    expression: a constant's name, interned in `table`."""

    def atom(expr: Expr) -> int:
        if isinstance(expr, Atom):
            return table.intern(expr.name)
        raise ParseError(f"not a lattice expression: {expr!r}")

    return atom


def antichains(n: int) -> Iterator[Poly]:
    """Every canonical form over atoms 0..n-1: the antichains of subsets.

    Each is built once, its monomials in ascending order: a mask contains
    only smaller masks, so a candidate is tested only for containing one
    already chosen.
    """

    def extend(prefix: list[int], start: int) -> Iterator[Poly]:
        yield tuple(prefix)
        for m in range(start, 1 << n):
            if not any(k & m == k for k in prefix):
                prefix.append(m)
                yield from extend(prefix, m + 1)
                prefix.pop()

    return extend([], 0)


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


def poly_atoms(p: Poly) -> set[int]:
    return {a for m in p for a in monomial_atoms(m)}


def eval_poly(p: Poly, assignment: dict[int, bool]) -> bool:
    true = sum(1 << a for a, value in assignment.items() if value)
    return any(m & true == m for m in p)


def oracle_eq(a: Expr | Poly, b: Expr | Poly) -> bool:
    """Brute-force equality over all two-element-lattice assignments.

    Independent of `canon`: expressions are evaluated directly.  Raises
    BudgetError beyond the atom budget.
    """
    if isinstance(a, Expr) and isinstance(b, Expr):
        names, evaluate = constants(a) | constants(b), eval_expr
    elif isinstance(a, Expr) or isinstance(b, Expr):
        raise TypeError("oracle_eq arguments must both be Expr or both Poly")
    else:
        names, evaluate = poly_atoms(a) | poly_atoms(b), eval_poly
    if len(names) > ORACLE_ATOM_BUDGET:
        raise BudgetError(
            f"oracle over {len(names)} atoms exceeds budget {ORACLE_ATOM_BUDGET}"
        )
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if evaluate(a, env) != evaluate(b, env):
            return False
    return True


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


def count_monotone_functions(n: int) -> int:
    """Independent oracle: brute force over all maps Bool^n -> Bool.

    Each function is a bitmask over the 2^n points; monotone means the value
    never drops when a single input bit flips on.  Feasible up to n = 4.
    """
    if n > 4:
        raise BudgetError(f"monotone brute force infeasible for n = {n}")
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
        raise BudgetError(
            f"{len(gens)} generators exceed budget {HOM_GENERATOR_BUDGET}"
        )
    for lhs, rhs in presentation.relations:
        extra = (constants(lhs) | constants(rhs)) - set(gens)
        if extra:
            raise ParseError(f"relation mentions unknown generators {sorted(map(str, extra))!r}")
    out: list[tuple[int, ...]] = []
    for bits in itertools.product((0, 1), repeat=len(gens)):
        env = {g: bool(b) for g, b in zip(gens, bits)}
        if all(eval_expr(l, env) == eval_expr(r, env) for l, r in presentation.relations):
            out.append(bits)
    return out
