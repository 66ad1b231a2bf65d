"""Helpers that only the tests use: a 2-cell's boundary check, the text of a
declaration for round-trip tests, and the plain references that the lock
words of a variable and the normal form of a 2-cell are compared against.
"""

from __future__ import annotations

import itertools

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
