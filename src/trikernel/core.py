"""Core terms, de Bruijn manipulation, contexts and the 2-cell action.

Modal types never store trailing path factors: ``<w.p| A>`` is represented as
``<w| (i : Int) -> A>`` (the path lock is the interval binder), and ``<1| A>``
collapses to ``A``.  The smart builders enforce this, so conversion can stay
structural.  Whether a binder binds an interval variable is decided in one
place, `binds_interval`: it is unannotated and its domain is ``IntT`` itself.
`_ROWS` is the one table of term structure: shifting, substitution, the
2-cell action, syntactic equality and conversion all walk it.  Beside it the
walks read two views of `_FIELDS`: `_KIDS`, the subterm fields of each former
in field order (the fields `_ROWS` lists), and `_LEAVES`, the formers other
than `Var` that have none, which a walk settles without a call.
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
    scase: Term  # the step function: predecessor, then recursive value
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


# The formers without fields, built once and shared, so that checking an
# inferred `Int` against an expected one ends at `syn_eq`'s identity test.
INT, NAT, BOOL, ZERO, TRUE, FALSE = IntT(), NatT(), BoolT(), Zero(), TrueC(), FalseC()
ENDPOINTS = (I0(), I1())  # the interval's 0 and 1


def npee(word: Word) -> int:
    return sum(1 for g in word if g == "p")


def nat_literal(n: int) -> Term:
    out: Term = ZERO
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
        ty = Pi((), INT, ty)
    return Modify(w, ty) if w else ty


def mk_mkmod(word: Word, body: Term) -> Term:
    w, k = strip_trailing_p(normalize(word))
    for _ in range(k):
        body = Lam(body)
    return MkMod(w, body) if w else body


# ---------------------------------------------------------------------------
# The binding table: each subterm with its binders and locks
# ---------------------------------------------------------------------------


def binds_interval(word: Word, dom: Term) -> bool:
    """Whether a binder of annotation `word` and domain `dom` binds an interval
    variable, which is a path lock: the one decision, read by the binding
    table, the context and the path-modal introduction.  Nothing is unfolded:
    the elaborator stores a Pi domain that unfolds to ``Int`` as ``IntT``."""
    return not word and type(dom) is IntT


# Each term former with a subterm: its (field, binders, locks) rows, in field
# order.  `binders` counts the variables the child binds beyond the term's
# scope; `locks` is the word the 2-cell action whiskers by on entering the
# child: a modal binder's word, the frame of a ``LetMod`` scrutinee, and ``p``
# for the codomain of a Pi that `binds_interval`.  The formers whose binders
# or locks depend on the node give a function of the node.
_ARG = (("arg", 0, ()),)
_LHS_RHS = (("lhs", 0, ()), ("rhs", 0, ()))
_ROWS = {
    Pi: lambda t: (("dom", 0, t.word),
                   ("cod", 1, ("p",) if binds_interval(t.word, t.dom) else ())),
    Lam: (("body", 1, ()),),
    App: (("fn", 0, ()), ("arg", 0, ())),
    Sigma: (("dom", 0, ()), ("cod", 1, ())),
    Pair: (("fst", 0, ()), ("snd", 0, ())),
    Fst: _ARG,
    Snd: _ARG,
    Suc: _ARG,
    Up: _ARG,
    Down: _ARG,
    LiftT: (("ty", 0, ()),),
    IdT: (("ty", 0, ()), ("lhs", 0, ()), ("rhs", 0, ())),
    J: (("motive", 2, ()), ("base", 0, ()), ("eq", 0, ())),
    NatRec: (("motive", 1, ()), ("zcase", 0, ()), ("scase", 0, ()), ("scrut", 0, ())),
    BoolRec: (("motive", 1, ()), ("tcase", 0, ()), ("fcase", 0, ()), ("scrut", 0, ())),
    MeetT: _LHS_RHS,
    JoinT: _LHS_RHS,
    Modify: lambda t: (("ty", npee(t.word), t.word),),
    MkMod: lambda t: (("body", npee(t.word), t.word),),
    LetMod: lambda t: (("scrut", 0, t.frame), ("body", 1, ())),
}


def _rows(t: Term) -> tuple[tuple[str, int, Word], ...]:
    """The (field, binders, locks) rows of `t`; none for a leaf."""
    rows = _ROWS.get(type(t), ())
    return rows if type(rows) is tuple else rows(t)


# The fields of each term former in order; those that hold no subterm (words,
# names, levels, cells); those that hold one, which are the fields its `_ROWS`
# entry lists; and the formers other than `Var` with no subterm.
_FIELDS = {cls: fields(cls) for cls in Term.__subclasses__()}
_DATA_FIELDS = {
    cls: tuple(name for name, ann in table.items() if ann != "Term")
    for cls, table in _FIELDS.items()
}
_KIDS = {
    cls: tuple(name for name, ann in table.items() if ann == "Term")
    for cls, table in _FIELDS.items()
}
_LEAVES = frozenset(cls for cls, kids in _KIDS.items() if not kids and cls is not Var)


def same_data(a: Term, b: Term) -> bool:
    """Whether two terms of the same former agree on every non-term field."""
    for name in _DATA_FIELDS[type(a)]:
        if getattr(a, name) != getattr(b, name):
            return False
    return True


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
        cls = type(a)
        if cls is not type(b):
            return False
        for name in _DATA_FIELDS[cls]:
            if getattr(a, name) != getattr(b, name):
                return False
        for name in _KIDS[cls]:
            todo.append((getattr(a, name), getattr(b, name)))
    return True


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Every subterm of `t`, `t` first, with the binders above it; iterative."""
    todo = [(t, 0)]
    while todo:
        u, depth = todo.pop()
        yield u, depth
        todo.extend((getattr(u, name), depth + binders) for name, binders, _ in _rows(u))


def _map(t: Term, fn: Callable[[Var, int, Word], Term], depth: int = 0,
         locks: Word = ()) -> Term:
    """Rebuild `t` with `fn(var, depth, locks)` in place of every variable;
    a leaf child is kept, and a variable child mapped, without a recursive call."""
    cls = type(t)
    if cls is Var:
        return fn(t, depth, locks)
    if cls in _LEAVES:
        return t
    rows = _ROWS[cls]
    if type(rows) is not tuple:
        rows = rows(t)
    changes = None
    for name, binders, word in rows:
        child = getattr(t, name)
        kind = type(child)
        if kind in _LEAVES:
            continue
        if kind is Var:
            new = fn(child, depth + binders, locks + word if word else locks)
        else:
            new = _map(child, fn, depth + binders, locks + word if word else locks)
        if new is not child:
            if changes is None:
                changes = {}
            changes[name] = new
    if changes is None:
        return t
    return cls(*[changes[name] if name in changes else getattr(t, name)
                 for name in _FIELDS[cls]])


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0:
        return t

    def bump(v: Var, depth: int, locks: Word) -> Term:
        if v.ix >= cutoff + depth:
            return Var(v.ix + by, v.cell)
        return v

    return _map(t, bump)


def subst(t: Term, arg: Term) -> Term:
    """Substitute `arg` for Var 0, lowering the indices above it."""
    return instantiate(t, (arg,))


def instantiate(t: Term, args: tuple[Term, ...]) -> Term:
    """Substitute into a term binding ``len(args)`` variables, in one pass.

    `args` are in binding order, outermost first, so the last is Var 0: the
    body of ``fun x y => b`` applied to ``a c`` is ``instantiate(b, (a, c))``,
    the same term as substituting one argument at a time.  The indices above
    the bound variables are lowered.  A substituted term is shifted under the
    binders it lands beneath, and not walked otherwise.  A variable carrying
    a 2-cell annotation transfers the annotation onto the substituted term
    through the 2-cell action.
    """
    n = len(args)
    if not n:
        return t

    def hit(v: Var, depth: int, locks: Word) -> Term:
        k = v.ix - depth
        if k < 0:
            return v
        if k >= n:
            return Var(v.ix - n, v.cell)
        replacement = shift(args[n - 1 - k], depth)
        if v.cell is not None:
            replacement = apply_cell(replacement, v.cell)
        return replacement

    return _map(t, hit)


def free_in(t: Term) -> bool:
    """Whether Var 0 occurs in `t`."""
    return any(isinstance(u, Var) and u.ix == depth for u, depth in subterms(t))


def constants(t: Term) -> set[str]:
    """The names of the constants that `t` mentions."""
    return {u.name for u, _ in subterms(t) if isinstance(u, Const)}


# ---------------------------------------------------------------------------
# 2-cell action on terms
# ---------------------------------------------------------------------------


def apply_cell(t: Term, cell: TwoCell) -> Term:
    """Push a 2-cell through a term, depositing annotations at variables.

    The action commutes with every term former; entering a child whiskers the
    cell on the right by the child's locks in `_ROWS` (a modal binder's
    word, p for an interval binder).  Annotations accumulate at variables (and
    only there) as normal composites, an identity stored as None; no further
    computation rules are assumed.
    """
    if cell.is_identity():
        return t

    def push(v: Var, depth: int, locks: Word) -> Term:
        if v.ix < depth:
            return v
        shifted = cell_whisker(locks, cell, side="right") if locks else cell
        existing = v.cell
        if existing is not None:
            # the variable's accumulated cell ends at some composite of locks;
            # the incoming cell acts across an inner boundary, so left-whisker
            # it by the outer prefix that realigns it
            target = existing.dst
            if target != shifted.src:
                for k in range(len(target) + 1):
                    candidate = cell_whisker(target[:k], shifted, side="left")
                    if candidate.src == target:
                        shifted = candidate
                        break
            shifted = cell_vcomp(existing, shifted)
        return Var(v.ix, None if shifted.is_identity() else shifted)

    return _map(t, push)


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@record(frozen=True)
class CDecl:
    name: str
    word: Word  # annotation modality
    ty: Term  # indices relative to the prefix context

    @property
    def is_interval(self) -> bool:
        """An interval hypothesis, which acts as a path lock."""
        return binds_interval(self.word, self.ty)


@record(frozen=True)
class CLock:
    gen: str  # a single non-p generator


class Ctx:
    """A telescope of declarations and single-generator locks.

    `levels[k]` is the position in `entries` of the declaration of level k
    (outermost first), and `last_lock` the position of the last `CLock`, -1
    if there is none; both make a variable use cost constant time.
    """

    def __init__(self, entries: tuple = (), levels: tuple = (), last_lock: int = -1):
        self.entries = entries
        self.levels = levels
        self.last_lock = last_lock

    def extend(self, name: str, word: Word, ty: Term) -> "Ctx":
        return Ctx(self.entries + (CDecl(name, normalize(word), ty),),
                   self.levels + (len(self.entries),), self.last_lock)

    def lock(self, word: Word) -> "Ctx":
        """Push a composite lock generator by generator; p becomes the
        interval hypothesis i : Int.  The empty word returns the receiver."""
        word = normalize(word)
        if not word:
            return self
        entries, levels, last_lock = self.entries, self.levels, self.last_lock
        for gen in word:
            if gen == "p":
                levels = levels + (len(entries),)
                entries = entries + (CDecl("i", (), INT),)
            else:
                last_lock = len(entries)
                entries = entries + (CLock(gen),)
        return Ctx(entries, levels, last_lock)

    def find(self, name: str) -> Optional[int]:
        """de Bruijn index of the innermost declaration named `name`."""
        for ix, pos in enumerate(reversed(self.levels)):
            if self.entries[pos].name == name:
                return ix
        return None

    def _position(self, ix: int) -> int:
        """Position in `entries` of Var(ix)'s declaration."""
        return self.levels[-1 - ix]

    def decl_at(self, ix: int) -> CDecl:
        return self.entries[self._position(ix)]

    def type_of(self, ix: int) -> Term:
        """Type of Var(ix), shifted into the current context."""
        return shift(self.decl_at(ix).ty, ix + 1)

    def lock_words(self, ix: int) -> list[Word]:
        """The normal words Var(ix) may be used at, fewest p's first: the
        locks to its right composed, each interval hypothesis kept as a p or
        dropped (weakening crosses it).  No rewrite rule mentions p, so a kept
        p leaves a word normal, and of equal prefixes only the first is kept."""
        words: list[Word] = [()]
        for entry in self.entries[self._position(ix) + 1 :]:
            if type(entry) is CLock:
                words = [normalize(w + (entry.gen,)) for w in words]
            elif entry.is_interval:
                words = [x for w in words for x in (w, w + ("p",))]
            words = list(dict.fromkeys(words))
        return sorted(words, key=npee)

    def names(self) -> list[str]:
        return [self.entries[pos].name for pos in self.levels]
