"""Helpers that only the tests use: a 2-cell's boundary check, the text of a
declaration for round-trip tests, and the plain references that the lock
words of a variable, the normal form of a 2-cell and the term walks are
compared against.
"""

from __future__ import annotations

import itertools

from trikernel.core import _DATA_FIELDS, _FIELDS, Term, Var, _rows
from trikernel.modality import (
    ModeError,
    TwoCell,
    _cancels_triangle,
    _step_is_identity,
    format_word,
    normalize,
)
from trikernel.syntax import Decl, print_term


def validate(cell: TwoCell) -> None:
    """Raise a ModeError unless the steps of `cell` compose from its source
    to its target."""
    cur = normalize(cell.src)
    for step in cell.steps:
        lo, hi = step.boundaries()
        if lo != cur:
            raise ModeError(
                "E-2CELL-BOUNDARY",
                f"step source {format_word(lo)} does not meet {format_word(cur)}",
            )
        cur = hi
    if cur != normalize(cell.dst):
        raise ModeError(
            "E-2CELL-BOUNDARY",
            f"cell target {format_word(normalize(cell.dst))} "
            f"does not meet {format_word(cur)}",
        )


def print_decl(d: Decl) -> str:
    """The source text of the declaration `d`."""
    if d.kind == "def":
        return f"def {d.name} : {print_term(d.ty)} := {print_term(d.body)}"
    if d.kind == "axiom":
        return f"axiom {d.name} : {print_term(d.ty)}"
    if d.kind == "check":
        return f"check {print_term(d.body)} : {print_term(d.ty)}"
    return f'fail-check "{d.expect_code}" {print_term(d.body)} : {print_term(d.ty)}'


def lock_candidates(trailing: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The normal words of the lock word `trailing` with each p kept or
    dropped, most dropped first, by enumerating every subset of its p's."""
    droppable = [i for i, g in enumerate(trailing) if g == "p"]
    seen: dict[tuple[str, ...], None] = {}
    for r in range(len(droppable), -1, -1):
        for combo in itertools.combinations(droppable, r):
            dropped = set(combo)
            seen.setdefault(normalize(tuple(g for i, g in enumerate(trailing) if i not in dropped)))
    return list(seen)


def fixpoint_normalize(cell: TwoCell) -> TwoCell:
    """Erase identity steps and triangle-cancelling adjacent pairs, round
    after round, until a round changes nothing."""
    steps = list(cell.steps)
    changed = True
    while changed:
        changed = False
        kept = [s for s in steps if not _step_is_identity(s)]
        if len(kept) != len(steps):
            steps = kept
            changed = True
        i = 0
        while i + 1 < len(steps):
            if _cancels_triangle(steps[i], steps[i + 1]):
                del steps[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return TwoCell(normalize(cell.src), normalize(cell.dst), tuple(steps))


def reference_same_data(a: Term, b: Term) -> bool:
    """`core.same_data` by a generator over the data fields."""
    return all(getattr(a, name) == getattr(b, name) for name in _DATA_FIELDS[type(a)])


def reference_syn_eq(a: Term, b: Term) -> bool:
    """`core.syn_eq` with each node's subterms read from its `_rows`."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b) or not reference_same_data(a, b):
            return False
        todo.extend((getattr(a, name), getattr(b, name)) for name, _, _ in _rows(a))
    return True


def reference_map(t: Term, fn, depth: int = 0, locks: tuple[str, ...] = ()) -> Term:
    """`core._map` with one recursive call per subterm, leaves included."""
    cls = type(t)
    if cls is Var:
        return fn(t, depth, locks)
    rows = _rows(t)
    if not rows:
        return t
    changes = {}
    for name, binders, word in rows:
        child = getattr(t, name)
        new = reference_map(child, fn, depth + binders, locks + word if word else locks)
        if new is not child:
            changes[name] = new
    if not changes:
        return t
    return cls(*[changes[name] if name in changes else getattr(t, name)
                 for name in _FIELDS[cls]])
