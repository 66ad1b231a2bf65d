"""Mode theory engine: modality words and 2-cells between them.

The theory has five modality generators:

    g   global sections / discrete core (comonadic side of g -| s)
    s   codiscrete (monadic side of g -| s)
    o   opposite (involutive)
    p   path space, Int -> -  (left adjoint of p -| a)
    a   right adjoint to p

Words are stored outermost-first: the composite ``n . m`` (n after m) is the
tuple ``(n, m)``.  Equality of words is decided by a confluent string rewriting
system; equality of 2-cells by a terminating (sound, not complete) rewriting
of pasting diagrams built from the adjunction units/counits.

This module alone reads and writes the notation of words (``g.a``) and of
2-cells (``g*eta_gs*s ; eps0``, ``id(w)``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .record import record

GENERATORS = ("g", "s", "o", "p", "a")

Word = tuple[str, ...]

# Base equation set, oriented left to right.
BASE_RULES: dict[Word, Word] = {
    ("g", "g"): ("g",),
    ("g", "o"): ("g",),
    ("g", "a"): ("g",),
    ("s", "g"): ("s",),
    ("s", "s"): ("s",),
    ("o", "o"): (),
}

# Confluent completion: the critical pairs s.g.o and s.g.a force s.o -> s and
# s.a -> s (both sides are equal to s in the equational theory).
RULES: dict[Word, Word] = dict(BASE_RULES)
RULES[("s", "o")] = ("s",)
RULES[("s", "a")] = ("s",)


class ModeError(ValueError):
    """Malformed word or composition-incompatible 2-cell boundaries."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def check_word(word: Word) -> Word:
    for gen in word:
        if gen not in GENERATORS:
            raise ModeError("E-PARSE", f"unknown modality generator {gen!r}")
    return word


def normalize(word: Word) -> Word:
    """Unique normal form of a word under the completed rewrite system."""
    if not word:
        return ()
    out = list(check_word(word))
    i = 0
    while i + 1 < len(out):
        pair = (out[i], out[i + 1])
        rhs = RULES.get(pair)
        if rhs is None:
            i += 1
            continue
        out[i : i + 2] = list(rhs)
        i = max(i - 1, 0)
    return tuple(out)


def compose(*words: Word) -> Word:
    """normalize(w1 . w2 . ... . wn), outermost word first."""
    cat: tuple[str, ...] = ()
    for w in words:
        cat = cat + tuple(w)
    return normalize(cat)


def parse_word(text: str) -> Word:
    """Parse ``g.a``, ``g∘a``, ``ga`` or ``1`` into a word (not normalized)."""
    s = text.replace("∘", ".").replace(" ", "")
    if s == "":
        raise ModeError("E-PARSE", "empty modality word")
    parts = [p for p in s.split(".") if p != ""]
    if not parts:
        raise ModeError("E-PARSE", f"malformed modality word {text!r}")
    gens: list[str] = []
    for part in parts:
        if part == "1":
            continue
        for ch in part:
            if ch not in GENERATORS:
                raise ModeError("E-PARSE", f"unknown modality generator {ch!r} in {text!r}")
            gens.append(ch)
    return tuple(gens)


def format_word(word: Word) -> str:
    return ".".join(word) if word else "1"


# ---------------------------------------------------------------------------
# 2-cells
# ---------------------------------------------------------------------------

# Generating 2-cells: name -> (source word, target word).
GENERATOR_CELLS: dict[str, tuple[Word, Word]] = {
    "eps_gs": (("g", "s"), ()),   # counit of g -| s
    "eta_gs": ((), ("s", "g")),   # unit of g -| s
    "eps_pa": (("p", "a"), ()),   # counit of p -| a
    "eta_pa": ((), ("a", "p")),   # unit of p -| a
    "eps0": (("g",), ()),         # g => 1, primitive (silent crisp use)
}


@record(frozen=True)
class Step:
    """One whiskered generator cell: left . cell . right."""

    left: Word
    gen: str
    right: Word

    def boundaries(self) -> tuple[Word, Word]:
        src, dst = GENERATOR_CELLS[self.gen]
        return (
            normalize(self.left + src + self.right),
            normalize(self.left + dst + self.right),
        )


@record(frozen=True)
class TwoCell:
    """A pasting of whiskered generator cells from src to dst."""

    src: Word
    dst: Word
    steps: tuple[Step, ...]

    def is_identity(self) -> bool:
        return not self.steps

    def describe(self) -> str:
        if not self.steps:
            return f"id({format_word(self.src)})"
        bits = []
        for st in self.steps:
            core = st.gen
            if st.left:
                core = f"{format_word(st.left)}*{core}"
            if st.right:
                core = f"{core}*{format_word(st.right)}"
            bits.append(core)
        return " ; ".join(bits)


def identity_cell(word: Word) -> TwoCell:
    w = normalize(word)
    return TwoCell(w, w, ())


def generator_cell(name: str, left: Word = (), right: Word = ()) -> TwoCell:
    if name not in GENERATOR_CELLS:
        raise ModeError("E-PARSE", f"unknown 2-cell generator {name!r}")
    step = Step(normalize(left), name, normalize(right))
    lo, hi = step.boundaries()
    return TwoCell(lo, hi, (step,))


def parse_cell(text: str) -> tuple[TwoCell, ...]:
    """Parse ``eps_gs``, ``g*eta_gs*s``, ``id(w)`` and ``c1 ; c2`` into factors.

    The factors are not composed here: a cell whose factors do not meet is a
    boundary error of the term it acts in, not a parse error.
    """
    factors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ModeError("E-PARSE", "empty 2-cell factor")
        if chunk.startswith("id(") and chunk.endswith(")"):
            factors.append(identity_cell(parse_word(chunk[3:-1])))
            continue
        parts = [p.strip() for p in chunk.split("*")]
        gen_at = [i for i, p in enumerate(parts) if p in GENERATOR_CELLS]
        if len(gen_at) != 1:
            raise ModeError("E-PARSE", f"malformed 2-cell {chunk!r}")
        k = gen_at[0]
        left = parse_word(".".join(parts[:k])) if k else ()
        right = parse_word(".".join(parts[k + 1 :])) if k + 1 < len(parts) else ()
        factors.append(generator_cell(parts[k], left, right))
    return tuple(factors)


def format_cell(factors: tuple[TwoCell, ...]) -> str:
    return " ; ".join(c.describe() for c in factors)


def cell_vcomp(c1: TwoCell, c2: TwoCell) -> TwoCell:
    """Vertical composite: c1 first, then c2."""
    if normalize(c1.dst) != normalize(c2.src):
        raise ModeError(
            "E-2CELL-BOUNDARY",
            f"cannot compose {format_word(c1.dst)} with {format_word(c2.src)}",
        )
    return TwoCell(normalize(c1.src), normalize(c2.dst), c1.steps + c2.steps)


def cell_whisker(word: Word, cell: TwoCell, side: str = "left") -> TwoCell:
    """Whisker a cell by a word on the given side."""
    w = normalize(word)
    if side == "left":
        steps = tuple(Step(normalize(w + s.left), s.gen, s.right) for s in cell.steps)
        return TwoCell(compose(w, cell.src), compose(w, cell.dst), steps)
    if side == "right":
        steps = tuple(Step(s.left, s.gen, normalize(s.right + w)) for s in cell.steps)
        return TwoCell(compose(cell.src, w), compose(cell.dst, w), steps)
    raise ModeError("E-PARSE", f"whisker side must be left or right, not {side!r}")


def _step_is_identity(step: Step) -> bool:
    # Idempotence of the g -| s (co)monad: its join and cojoin are identities,
    # which makes every whiskering of eps_gs by a trailing s, or of eta_gs by
    # an adjacent s, an identity pasting.  Sound; completeness not claimed.
    if step.gen == "eps_gs":
        if step.left and step.left[-1] == "s":
            return True
        if len(step.right) >= 2 and step.right[0] == "g" and step.right[1] == "s":
            return True
    elif step.gen == "eta_gs":
        if step.left and step.left[-1] == "s":
            return True
        if step.right and step.right[0] == "s":
            return True
    return False


_TRIANGLES = (("eta_gs", "eps_gs", "g", "s"), ("eta_pa", "eps_pa", "p", "a"))


def _cancels_triangle(s1: Step, s2: Step) -> bool:
    for eta, eps, left_adj, right_adj in _TRIANGLES:
        if s1.gen != eta or s2.gen != eps:
            continue
        # (eps * F) . (F * eta) = id_F
        if s1.left == normalize(s2.left + (left_adj,)) and s2.right == normalize(
            (left_adj,) + s1.right
        ):
            return True
        # (G * eps) . (eta * G) = id_G
        if s2.left == normalize(s1.left + (right_adj,)) and s1.right == normalize(
            (right_adj,) + s2.right
        ):
            return True
    return False


def cell_normalize(cell: TwoCell) -> TwoCell:
    """Erase identity steps and triangle-cancelling adjacent pairs in one pass,
    the kept steps on a stack: erasing a step makes no other an identity."""
    kept: list[Step] = []
    for step in cell.steps:
        if _step_is_identity(step):
            continue
        if kept and _cancels_triangle(kept[-1], step):
            kept.pop()
        else:
            kept.append(step)
    return TwoCell(normalize(cell.src), normalize(cell.dst), tuple(kept))


def cell_eq(c1: TwoCell, c2: TwoCell) -> bool:
    """Syntactic equality of normal forms. Requires matching boundaries."""
    n1, n2 = cell_normalize(c1), cell_normalize(c2)
    if (n1.src, n1.dst) != (n2.src, n2.dst):
        raise ModeError("E-2CELL-BOUNDARY", "cell_eq on cells with different boundaries")
    return n1.steps == n2.steps


def _expansions(word: Word) -> Iterator[tuple[Step, Word]]:
    for gen in ("eps0", "eps_gs", "eta_gs", "eps_pa", "eta_pa"):
        src, dst = GENERATOR_CELLS[gen]
        k = len(src)
        for i in range(len(word) - k + 1):
            if word[i : i + k] == src:
                step = Step(word[:i], gen, word[i + k :])
                yield step, normalize(word[:i] + dst + word[i + k :])


SEARCH_DEPTH = 8
_SEARCH_SLACK = 4


def _unreachable(start: Word, goal: Word) -> bool:
    """Whether no pasting of any length leads from `start` to another word `goal`.

    The normal words that start with s or a are closed under every step: no
    rule removes a leading s (s.x -> s) and no rule starts with a, every
    counit's source starts with g or p, and a unit whiskered in front puts s
    or a there.  From 1 only the units apply, giving s and a.p.
    """
    return (not start or start[0] in "sa") and not (goal and goal[0] in "sa")


def cell_search(src: Word, dst: Word) -> Optional[TwoCell]:
    """Breadth-first search for a pasting src => dst.

    Returns a witness cell, or None if none exists within the bounds: at
    most `SEARCH_DEPTH` whiskered generator applications, through words at
    most `_SEARCH_SLACK` letters longer than the longer endpoint.  Absence
    within the bounds is not a proof of nonexistence.  A pair that
    `_unreachable` refutes returns None without a search.
    """
    start, goal = normalize(src), normalize(dst)
    if start == goal:
        return identity_cell(start)
    if _unreachable(start, goal):
        return None
    max_len = max(len(start), len(goal)) + _SEARCH_SLACK
    seen = {start}
    queue: deque[tuple[Word, tuple[Step, ...]]] = deque([(start, ())])
    found: Optional[TwoCell] = None
    while queue and found is None:
        word, path = queue.popleft()
        if len(path) >= SEARCH_DEPTH:
            continue
        for step, nxt in _expansions(word):
            if nxt == goal:
                found = TwoCell(start, goal, path + (step,))
                break
            if len(nxt) <= max_len and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (step,)))
    return found
