"""Core terms, de Bruijn manipulation, contexts and the 2-cell action.

Modal types never store trailing path factors: ``<w.p| A>`` is represented as
``<w| (i : Int) -> A>`` (the path lock is the interval binder), and ``<1| A>``
collapses to ``A``.  The smart builders enforce this, so conversion can stay
structural.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .modality import TwoCell, Word, cell_vcomp, cell_whisker, normalize
from .record import fields, record


@record(frozen=True)
class Term:
    pass


class Var(Term):
    ix: int
    cell: Optional[TwoCell] = None


class Const(Term):
    name: str


class Univ(Term):
    level: int


class Pi(Term):
    word: Word
    dom: Term
    cod: Term  # binds 1


class Lam(Term):
    body: Term  # binds 1


class App(Term):
    fn: Term
    arg: Term


class Sigma(Term):
    dom: Term
    cod: Term  # binds 1


class Pair(Term):
    fst: Term
    snd: Term


class Fst(Term):
    arg: Term


class Snd(Term):
    arg: Term


class IdT(Term):
    ty: Term
    lhs: Term
    rhs: Term


class Refl(Term):
    pass


class J(Term):
    motive: Term  # binds 2: endpoint, equation
    base: Term
    eq: Term


class NatT(Term):
    pass


class Zero(Term):
    pass


class Suc(Term):
    arg: Term


class NatRec(Term):
    motive: Term  # binds 1
    zcase: Term
    scase: Term  # binds 2: predecessor, recursive value
    scrut: Term


class BoolT(Term):
    pass


class TrueC(Term):
    pass


class FalseC(Term):
    pass


class BoolRec(Term):
    motive: Term  # binds 1
    tcase: Term
    fcase: Term
    scrut: Term


class IntT(Term):
    pass


class I0(Term):
    pass


class I1(Term):
    pass


class MeetT(Term):
    lhs: Term
    rhs: Term


class JoinT(Term):
    lhs: Term
    rhs: Term


class Modify(Term):
    word: Word
    ty: Term  # binds one interval variable per p in word


class MkMod(Term):
    word: Word
    body: Term  # binds one interval variable per p in word


class LetMod(Term):
    frame: Word  # outer annotation nu under which the scrutinee lives
    word: Word  # the eliminated modality mu (p-free)
    scrut: Term
    body: Term  # binds 1


class LiftT(Term):
    ty: Term


class Up(Term):
    arg: Term


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


def strip_trailing_p(word: Word) -> tuple[Word, int]:
    """`word` without its trailing p factors, and how many there were."""
    k = len(word)
    while k and word[k - 1] == "p":
        k -= 1
    return tuple(word[:k]), len(word) - k


def mk_modify(word: Word, ty: Term) -> Term:
    """<w| A> with trailing p factors peeled into interval products."""
    w, k = strip_trailing_p(normalize(word))
    for _ in range(k):
        ty = Pi((), IntT(), ty)
    return Modify(w, ty) if w else ty


def mk_mkmod(word: Word, body: Term) -> Term:
    w, k = strip_trailing_p(normalize(word))
    for _ in range(k):
        body = Lam(body)
    return MkMod(w, body) if w else body


# ---------------------------------------------------------------------------
# The binding table: each subterm with its binders and locks
# ---------------------------------------------------------------------------


def _children(t: Term) -> list[tuple[str, Term, int, Word]]:
    """Each subterm of `t` as (field, child, binders, locks).

    `binders` counts the variables the child binds beyond `t`'s scope; `locks`
    is the word the 2-cell action whiskers by on entering the child: a modal
    binder's word, the frame of a ``LetMod`` scrutinee, and ``p`` for the
    codomain of a Pi whose domain is literally ``Int``.
    """
    match t:
        case Pi(word, dom, cod):
            return [("dom", dom, 0, word), ("cod", cod, 1, ("p",) if dom == IntT() else ())]
        case Lam(body):
            return [("body", body, 1, ())]
        case App(fn, arg):
            return [("fn", fn, 0, ()), ("arg", arg, 0, ())]
        case Sigma(dom, cod):
            return [("dom", dom, 0, ()), ("cod", cod, 1, ())]
        case Pair(a, b):
            return [("fst", a, 0, ()), ("snd", b, 0, ())]
        case Fst(arg) | Snd(arg) | Suc(arg) | Up(arg) | Down(arg):
            return [("arg", arg, 0, ())]
        case LiftT(ty):
            return [("ty", ty, 0, ())]
        case IdT(ty, lhs, rhs):
            return [("ty", ty, 0, ()), ("lhs", lhs, 0, ()), ("rhs", rhs, 0, ())]
        case J(motive, base, eq):
            return [("motive", motive, 2, ()), ("base", base, 0, ()), ("eq", eq, 0, ())]
        case NatRec(motive, z, s, n):
            return [("motive", motive, 1, ()), ("zcase", z, 0, ()), ("scase", s, 2, ()),
                    ("scrut", n, 0, ())]
        case BoolRec(motive, tc, fc, b):
            return [("motive", motive, 1, ()), ("tcase", tc, 0, ()), ("fcase", fc, 0, ()),
                    ("scrut", b, 0, ())]
        case MeetT(lhs, rhs) | JoinT(lhs, rhs):
            return [("lhs", lhs, 0, ()), ("rhs", rhs, 0, ())]
        case Modify(word, ty):
            return [("ty", ty, npee(word), word)]
        case MkMod(word, body):
            return [("body", body, npee(word), word)]
        case LetMod(frame, _, scrut, body):
            return [("scrut", scrut, 0, frame), ("body", body, 1, ())]
        case _:
            return []


# The fields of each term former in order, and those that hold no subterm:
# words, names, levels, cells.
_FIELDS = {cls: fields(cls) for cls in Term.__subclasses__()}
_DATA_FIELDS = {
    cls: tuple(name for name, ann in table.items() if ann != "Term")
    for cls, table in _FIELDS.items()
}


def same_data(a: Term, b: Term) -> bool:
    """Whether two terms of the same former agree on every non-term field."""
    return all(getattr(a, name) == getattr(b, name) for name in _DATA_FIELDS[type(a)])


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
        if type(a) is not type(b) or not same_data(a, b):
            return False
        todo.extend((x[1], y[1]) for x, y in zip(_children(a), _children(b)))
    return True


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Every subterm of `t`, `t` first, with the binders above it; iterative."""
    todo = [(t, 0)]
    while todo:
        u, depth = todo.pop()
        yield u, depth
        todo.extend((child, depth + binders) for _, child, binders, _ in _children(u))


def _map(t: Term, fn: Callable[[Var, int, Word], Term], depth: int = 0,
         locks: Word = ()) -> Term:
    """Rebuild `t` with `fn(var, depth, locks)` in place of every variable."""
    if isinstance(t, Var):
        return fn(t, depth, locks)
    changes = {}
    for name, child, binders, word in _children(t):
        new = _map(child, fn, depth + binders, locks + word if word else locks)
        if new is not child:
            changes[name] = new
    if not changes:
        return t
    return type(t)(*[changes[name] if name in changes else getattr(t, name)
                     for name in _FIELDS[type(t)]])


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0:
        return t

    def bump(v: Var, depth: int, locks: Word) -> Term:
        if v.ix >= cutoff + depth:
            return Var(v.ix + by, v.cell)
        return v

    return _map(t, bump)


def _substitute(t: Term, args: tuple[Term, ...], target: int) -> Term:
    """Put `args[k]` for Var(target + k), lowering the indices above them.

    One pass over `t`; a substituted term is shifted under the binders it
    lands beneath, and not walked otherwise.  A variable carrying a 2-cell
    annotation transfers the annotation onto the substituted term through the
    2-cell action.
    """
    n = len(args)

    def hit(v: Var, depth: int, locks: Word) -> Term:
        k = v.ix - target - depth
        if k < 0:
            return v
        if k >= n:
            return Var(v.ix - n, v.cell)
        replacement = shift(args[k], depth)
        if v.cell is not None and not v.cell.is_identity():
            replacement = apply_cell(replacement, v.cell)
        return replacement

    return _map(t, hit)


def subst(t: Term, arg: Term, target: int = 0) -> Term:
    """Substitute `arg` for Var(target), lowering the indices above it."""
    return _substitute(t, (arg,), target)


def subst2(t: Term, outer: Term, inner: Term) -> Term:
    """Substitute into a term binding two variables (outer = Var 1)."""
    return _substitute(t, (inner, outer), 0)


def free_in(t: Term, target: int = 0) -> bool:
    return any(isinstance(u, Var) and u.ix == target + depth for u, depth in subterms(t))


def constants(t: Term) -> set[str]:
    """The names of the constants that `t` mentions."""
    return {u.name for u, _ in subterms(t) if isinstance(u, Const)}


# ---------------------------------------------------------------------------
# 2-cell action on terms
# ---------------------------------------------------------------------------


def apply_cell(t: Term, cell: TwoCell) -> Term:
    """Push a 2-cell through a term, depositing annotations at variables.

    The action commutes with every term former; entering a child whiskers the
    cell on the right by the child's locks in `_children` (a modal binder's
    word, p for an interval binder).  Annotations accumulate at variables (and
    only there); no further computation rules are assumed.
    """
    if cell.is_identity():
        return t

    def push(v: Var, depth: int, locks: Word) -> Term:
        if v.ix < depth:
            return v
        shifted = cell_whisker(locks, cell, side="right") if locks else cell
        existing = v.cell
        if existing is None or existing.is_identity():
            return Var(v.ix, shifted)
        # the variable's accumulated cell ends at some composite of locks; the
        # incoming cell acts across an inner boundary, so left-whisker it by
        # the outer prefix that realigns it
        if normalize(existing.dst) != normalize(shifted.src):
            target = normalize(existing.dst)
            for k in range(len(target) + 1):
                candidate = cell_whisker(target[:k], shifted, side="left")
                if candidate.src == target:
                    shifted = candidate
                    break
        return Var(v.ix, cell_vcomp(existing, shifted))

    return _map(t, push)


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@record(frozen=True)
class CDecl:
    name: str
    word: Word  # annotation modality
    ty: Term  # indices relative to the prefix context
    is_interval: bool = False


@record(frozen=True)
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

    def find(self, name: str) -> Optional[int]:
        """de Bruijn index of the innermost declaration named `name`."""
        ix = 0
        for entry in reversed(self.entries):
            if isinstance(entry, CDecl):
                if entry.name == name:
                    return ix
                ix += 1
        return None

    def _position(self, ix: int) -> int:
        """Position in `entries` of Var(ix)'s declaration."""
        pos, count = len(self.entries), 0
        for entry in reversed(self.entries):
            pos -= 1
            if isinstance(entry, CDecl):
                if count == ix:
                    return pos
                count += 1
        raise IndexError(ix)

    def decl_at(self, ix: int) -> CDecl:
        return self.entries[self._position(ix)]

    def type_of(self, ix: int) -> Term:
        """Type of Var(ix), shifted into the current context."""
        return shift(self.decl_at(ix).ty, ix + 1)

    def trailing(self, ix: int) -> list[tuple[str, bool]]:
        """Lock generators to the right of Var(ix)'s declaration.

        Each item is (generator, droppable): interval hypotheses act as path
        locks but may also be crossed by ordinary weakening, so they are
        droppable when matching 2-cell boundaries.
        """
        out: list[tuple[str, bool]] = []
        for entry in self.entries[self._position(ix) + 1 :]:
            if isinstance(entry, CLock):
                out.append((entry.gen, False))
            elif entry.is_interval:
                out.append(("p", True))
        return out

    def names(self) -> list[str]:
        return [e.name for e in self.entries if isinstance(e, CDecl)]
