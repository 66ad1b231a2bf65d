"""Core terms, de Bruijn manipulation, contexts and the 2-cell action.

Modal types never store trailing path factors: ``<w.p| A>`` is represented as
``<w| (i : Int) -> A>`` (the path lock is the interval binder), and ``<1| A>``
collapses to ``A``.  The smart builders enforce this, so conversion can stay
structural.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

from .modality import TwoCell, Word, cell_vcomp, cell_whisker, normalize


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    ix: int
    cell: Optional[TwoCell] = None


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Univ(Term):
    level: int


@dataclass(frozen=True)
class Pi(Term):
    word: Word
    dom: Term
    cod: Term  # binds 1


@dataclass(frozen=True)
class Lam(Term):
    body: Term  # binds 1


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Sigma(Term):
    dom: Term
    cod: Term  # binds 1


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True)
class IdT(Term):
    ty: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Refl(Term):
    pass


@dataclass(frozen=True)
class J(Term):
    motive: Term  # binds 2: endpoint, equation
    base: Term
    eq: Term


@dataclass(frozen=True)
class NatT(Term):
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Suc(Term):
    arg: Term


@dataclass(frozen=True)
class NatRec(Term):
    motive: Term  # binds 1
    zcase: Term
    scase: Term  # binds 2: predecessor, recursive value
    scrut: Term


@dataclass(frozen=True)
class BoolT(Term):
    pass


@dataclass(frozen=True)
class TrueC(Term):
    pass


@dataclass(frozen=True)
class FalseC(Term):
    pass


@dataclass(frozen=True)
class BoolRec(Term):
    motive: Term  # binds 1
    tcase: Term
    fcase: Term
    scrut: Term


@dataclass(frozen=True)
class IntT(Term):
    pass


@dataclass(frozen=True)
class I0(Term):
    pass


@dataclass(frozen=True)
class I1(Term):
    pass


@dataclass(frozen=True)
class MeetT(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class JoinT(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Modify(Term):
    word: Word
    ty: Term  # binds one interval variable per p in word


@dataclass(frozen=True)
class MkMod(Term):
    word: Word
    body: Term  # binds one interval variable per p in word


@dataclass(frozen=True)
class LetMod(Term):
    frame: Word  # outer annotation nu under which the scrutinee lives
    word: Word  # the eliminated modality mu (p-free)
    scrut: Term
    body: Term  # binds 1


@dataclass(frozen=True)
class LiftT(Term):
    ty: Term


@dataclass(frozen=True)
class Up(Term):
    arg: Term


@dataclass(frozen=True)
class Down(Term):
    arg: Term


def npee(word: Word) -> int:
    return sum(1 for g in word if g == "p")


def nat_literal(n: int) -> Term:
    out: Term = Zero()
    for _ in range(n):
        out = Suc(out)
    return out


# ---------------------------------------------------------------------------
# Smart modal builders
# ---------------------------------------------------------------------------


def mk_modify(word: Word, ty: Term) -> Term:
    """<w| A> with trailing p factors peeled into interval products."""
    w = normalize(word)
    while w and w[-1] == "p":
        w = w[:-1]
        ty = Pi((), IntT(), ty)
    if not w:
        return ty
    return Modify(w, ty)


def mk_mkmod(word: Word, body: Term) -> Term:
    w = normalize(word)
    while w and w[-1] == "p":
        w = w[:-1]
        body = Lam(body)
    if not w:
        return body
    return MkMod(w, body)


# ---------------------------------------------------------------------------
# Generic traversal: each child with the number of extra binders it is under
# ---------------------------------------------------------------------------


def _children(t: Term) -> list[tuple[str, Term, int]]:
    match t:
        case Pi(_, dom, cod):
            return [("dom", dom, 0), ("cod", cod, 1)]
        case Lam(body):
            return [("body", body, 1)]
        case App(fn, arg):
            return [("fn", fn, 0), ("arg", arg, 0)]
        case Sigma(dom, cod):
            return [("dom", dom, 0), ("cod", cod, 1)]
        case Pair(a, b):
            return [("fst", a, 0), ("snd", b, 0)]
        case Fst(arg) | Snd(arg) | Suc(arg) | Up(arg) | Down(arg):
            return [("arg", arg, 0)]
        case LiftT(ty):
            return [("ty", ty, 0)]
        case IdT(ty, lhs, rhs):
            return [("ty", ty, 0), ("lhs", lhs, 0), ("rhs", rhs, 0)]
        case J(motive, base, eq):
            return [("motive", motive, 2), ("base", base, 0), ("eq", eq, 0)]
        case NatRec(motive, z, s, n):
            return [("motive", motive, 1), ("zcase", z, 0), ("scase", s, 2), ("scrut", n, 0)]
        case BoolRec(motive, tc, fc, b):
            return [("motive", motive, 1), ("tcase", tc, 0), ("fcase", fc, 0), ("scrut", b, 0)]
        case MeetT(lhs, rhs) | JoinT(lhs, rhs):
            return [("lhs", lhs, 0), ("rhs", rhs, 0)]
        case Modify(word, ty):
            return [("ty", ty, npee(word))]
        case MkMod(word, body):
            return [("body", body, npee(word))]
        case LetMod(_, _, scrut, body):
            return [("scrut", scrut, 0), ("body", body, 1)]
        case _:
            return []


# The fields of each term former that hold no subterm: words, names, levels, cells.
_DATA_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type != "Term")
    for cls in Term.__subclasses__()
}


def syn_eq(a: Term, b: Term) -> bool:
    """Syntactic equality of two terms.

    Iterative, with an explicit stack, so that the depth of a term (a long
    ``Suc`` chain, a long lattice join) costs no Python recursion; shared
    subterms are skipped by identity.
    """
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        for name in _DATA_FIELDS[type(a)]:
            if getattr(a, name) != getattr(b, name):
                return False
        todo.extend((x, y) for (_, x, _), (_, y, _) in zip(_children(a), _children(b)))
    return True


def _map(t: Term, fn: Callable[[Term, int], Term], depth: int = 0) -> Term:
    kids = _children(t)
    if not kids:
        return fn(t, depth) if isinstance(t, Var) else t
    changes = {}
    for name, child, binders in kids:
        new = _rec_map(child, fn, depth + binders)
        if new is not child:
            changes[name] = new
    return replace(t, **changes) if changes else t


def _rec_map(t: Term, fn: Callable[[Term, int], Term], depth: int) -> Term:
    if isinstance(t, Var):
        return fn(t, depth)
    return _map(t, fn, depth)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0:
        return t

    def bump(v: Var, depth: int) -> Term:
        if v.ix >= cutoff + depth:
            return Var(v.ix + by, v.cell)
        return v

    return _rec_map(t, bump, 0)


def subst(t: Term, arg: Term, target: int = 0) -> Term:
    """Substitute `arg` for Var(target), lowering the indices above it.

    A variable carrying a 2-cell annotation transfers the annotation onto the
    substituted term through the 2-cell action.
    """

    def hit(v: Var, depth: int) -> Term:
        if v.ix == target + depth:
            replacement = shift(arg, depth)
            if v.cell is not None and not v.cell.is_identity():
                replacement = apply_cell(replacement, v.cell)
            return replacement
        if v.ix > target + depth:
            return Var(v.ix - 1, v.cell)
        return v

    return _rec_map(t, hit, 0)


def free_in(t: Term, target: int = 0) -> bool:
    found = False

    def look(v: Var, depth: int) -> Term:
        nonlocal found
        if v.ix == target + depth:
            found = True
        return v

    _rec_map(t, look, 0)
    return found


# ---------------------------------------------------------------------------
# 2-cell action on terms
# ---------------------------------------------------------------------------


def apply_cell(t: Term, cell: TwoCell) -> Term:
    """Push a 2-cell through a term, depositing annotations at variables.

    The action commutes with every term former; entering a modal binder
    whiskers the cell on the right by that modality, and entering an interval
    binder whiskers by p.  Annotations accumulate at variables (and only
    there); no further computation rules are assumed.
    """
    if cell.is_identity():
        return t
    return _push_cell(t, cell, 0, ())


def _push_cell(t: Term, cell: TwoCell, depth: int, rw: Word) -> Term:
    match t:
        case Var(ix, existing):
            if ix < depth:
                return t
            shifted = cell_whisker(rw, cell, side="right") if rw else cell
            if existing is None or existing.is_identity():
                combined = shifted
            else:
                # the variable's accumulated cell ends at some composite of
                # locks; the incoming cell acts across an inner boundary, so
                # left-whisker it by the outer prefix that realigns it
                if normalize(existing.dst) != normalize(shifted.src):
                    target = normalize(existing.dst)
                    for k in range(len(target) + 1):
                        candidate = cell_whisker(target[:k], shifted, side="left")
                        if candidate.src == target:
                            shifted = candidate
                            break
                combined = cell_vcomp(existing, shifted)
            return Var(ix, combined)
        case Const(_):
            return t
        case Pi(word, dom, cod):
            new_dom = _push_cell(dom, cell, depth, rw + word)
            binder_rw = rw + (("p",) if dom == IntT() else ())
            new_cod = _push_cell(cod, cell, depth + 1, binder_rw)
            return Pi(word, new_dom, new_cod)
        case Lam(body):
            return Lam(_push_cell(body, cell, depth + 1, rw))
        case Sigma(dom, cod):
            return Sigma(
                _push_cell(dom, cell, depth, rw), _push_cell(cod, cell, depth + 1, rw)
            )
        case Modify(word, ty):
            return Modify(word, _push_cell(ty, cell, depth + npee(word), rw + word))
        case MkMod(word, body):
            return MkMod(word, _push_cell(body, cell, depth + npee(word), rw + word))
        case LetMod(frame, word, scrut, body):
            return LetMod(
                frame,
                word,
                _push_cell(scrut, cell, depth, rw + frame),
                _push_cell(body, cell, depth + 1, rw),
            )
        case _:
            kids = _children(t)
            if not kids:
                return t
            changes = {}
            for name, child, binders in kids:
                new = _push_cell(child, cell, depth + binders, rw)
                if new is not child:
                    changes[name] = new
            return replace(t, **changes) if changes else t


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CDecl:
    name: str
    word: Word  # annotation modality
    ty: Term  # indices relative to the prefix context
    is_interval: bool = False


@dataclass(frozen=True)
class CLock:
    gen: str  # a single non-p generator


class Ctx:
    """A telescope of declarations and single-generator locks."""

    def __init__(self, entries: Optional[tuple] = None):
        self.entries: tuple = entries or ()

    def extend(self, name: str, word: Word, ty: Term, is_interval: bool = False) -> "Ctx":
        return Ctx(self.entries + (CDecl(name, normalize(word), ty, is_interval),))

    def lock(self, word: Word) -> "Ctx":
        """Push a composite lock generator by generator; p becomes i : Int."""
        entries = self.entries
        for gen in normalize(word):
            if gen == "p":
                entries = entries + (CDecl("i", (), IntT(), True),)
            else:
                entries = entries + (CLock(gen),)
        return Ctx(entries)

    def decls(self) -> list[CDecl]:
        return [e for e in self.entries if isinstance(e, CDecl)]

    def n_vars(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, CDecl))

    def find(self, name: str) -> Optional[int]:
        """de Bruijn index of the innermost declaration named `name`."""
        ix = 0
        for entry in reversed(self.entries):
            if isinstance(entry, CDecl):
                if entry.name == name:
                    return ix
                ix += 1
        return None

    def decl_at(self, ix: int) -> CDecl:
        count = 0
        for entry in reversed(self.entries):
            if isinstance(entry, CDecl):
                if count == ix:
                    return entry
                count += 1
        raise IndexError(ix)

    def type_of(self, ix: int) -> Term:
        """Type of Var(ix), shifted into the current context."""
        return shift(self.decl_at(ix).ty, ix + 1)

    def trailing(self, ix: int) -> list[tuple[str, bool]]:
        """Lock generators to the right of Var(ix)'s declaration.

        Each item is (generator, droppable): interval hypotheses act as path
        locks but may also be crossed by ordinary weakening, so they are
        droppable when matching 2-cell boundaries.
        """
        count = 0
        pos = None
        for i in range(len(self.entries) - 1, -1, -1):
            if isinstance(self.entries[i], CDecl):
                if count == ix:
                    pos = i
                    break
                count += 1
        if pos is None:
            raise IndexError(ix)
        out: list[tuple[str, bool]] = []
        for entry in self.entries[pos + 1 :]:
            if isinstance(entry, CLock):
                out.append((entry.gen, False))
            elif entry.is_interval:
                out.append(("p", True))
        return out

    def names(self) -> list[str]:
        return [e.name for e in self.entries if isinstance(e, CDecl)]
