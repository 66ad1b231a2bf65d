"""Helpers that only the tests use: a 2-cell's boundary check, and the text
of a declaration for round-trip tests.
"""

from __future__ import annotations

from trikernel.modality import ModeError, TwoCell, format_word, normalize
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
