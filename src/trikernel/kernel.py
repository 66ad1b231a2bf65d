"""The checker core: normalization, conversion and bidirectional typing.

Contexts interleave declarations and single-generator locks; a path lock is
the same constructor as an interval hypothesis ``i : Int``, which makes
interval instantiation ordinary substitution and lets ordinary weakening
cross interval binders.  Variable access across locks is mediated by a
2-cell from the declaration's annotation to the first word of
`Ctx.lock_words` that one reaches.  A binder is an interval hypothesis when
`core.binds_interval` says so; the elaborator stores an interval domain of a
Pi as ``Int`` itself, unfolded once.

Conversion decides the interval's lattice laws: where either side unfolds
to a meet or join, both sides are folded once (`lattice.decide`) and, over
at most `lattice.TABLE_ATOMS` atoms, compared as truth tables; beyond that,
and to print a failing side, as canonical polynomials (`Checker.int_canon`).
So the laws hold definitionally at every type, also under a neutral head
such as `f (i /\\ j)`.
"""

from __future__ import annotations

import functools
from typing import Callable, NoReturn, Optional

from . import lattice, syntax
from .core import (
    BOOL,
    ENDPOINTS,
    FALSE,
    INT,
    NAT,
    TRUE,
    ZERO,
    App,
    BoolRec,
    BoolT,
    Ctx,
    Const,
    Down,
    FalseC,
    Fst,
    I0,
    I1,
    IdT,
    IntT,
    J,
    JoinT,
    Lam,
    LetMod,
    LiftT,
    MeetT,
    MkMod,
    Modify,
    NatRec,
    NatT,
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    Suc,
    Term,
    TrueC,
    Univ,
    Up,
    Var,
    Zero,
    _KIDS,
    apply_cell,
    binds_interval,
    constants,
    free_in,
    instantiate,
    mk_mkmod,
    mk_modify,
    nat_literal,
    npee,
    same_data,
    shift,
    strip_trailing_p,
    subst,
    syn_eq,
)
from .diagnostics import Diagnostic, KernelError, LineMap
from .modality import (
    SEARCH_DEPTH,
    ModeError,
    TwoCell,
    Word,
    cell_eq,
    cell_normalize,
    cell_search,
    cell_vcomp,
    compose,
    format_word,
    identity_cell,
    normalize,
)
from .record import record


@record
class GlobalDef:
    name: str
    kind: str  # "axiom" | "def"
    ty: Term
    body: Optional[Term]


# The formers that `Checker.whnf` can reduce; any other term is already in
# weak-head normal form.
_REDEX_FORMERS = frozenset({Const, App, Fst, Snd, J, NatRec, BoolRec, LetMod, Down})

# The type former that an introduction form is checked against, and that the
# type of an eliminator's principal argument must have, with the E-CONV
# message when it does not.  Introductions are keyed by their surface class,
# eliminators by their core class.
_FORMERS = {
    syntax.SLam: (Pi, "function literal against a non-function type"),
    syntax.SPair: (Sigma, "pair literal against a non-pair type"),
    syntax.SRefl: (IdT, "refl against a non-equation type"),
    App: (Pi, "application of a non-function"),
    Fst: (Sigma, "fst of a non-pair"),
    Snd: (Sigma, "snd of a non-pair"),
    J: (IdT, "J eliminates a path; this is not one"),
    Down: (LiftT, "down of an unlifted term"),
}
# The surface forms that `Checker._check` checks against the head of the
# expected type: the introductions above, numerals, `mod{w}` and `let mod`.
# Any other term is inferred and its type compared.
_INTRODUCTIONS = frozenset({syntax.SNum, syntax.SMkMod, syntax.SLetMod}.union(
    former for former in _FORMERS if issubclass(former, syntax.STerm)))
# The surface former of each core former that binds nothing and whose
# subterms read back in field order, and its inverse.
_SURFACE = {App: syntax.SApp, Pair: syntax.SPair, Fst: syntax.SFst, Snd: syntax.SSnd,
            MeetT: syntax.SMeet, JoinT: syntax.SJoin, LiftT: syntax.SLift,
            Up: syntax.SUp, Down: syntax.SDown}
_CORE_FORMERS = {surface: core for core, surface in _SURFACE.items()}
# The core term and type of each of `syntax.CONSTANTS`, in its order, and
# the keyword of each such term.
_CONSTANTS = dict(zip(syntax.CONSTANTS, (
    (INT, Univ(0)), (NAT, Univ(0)), (BOOL, Univ(0)), (ZERO, NAT), (TRUE, BOOL), (FALSE, BOOL),
), strict=True))
_CONSTANT_OF = {type(term): kw for kw, (term, _) in _CONSTANTS.items()}


def _elim_type(t: Term, principal: Term) -> Term:
    """Type of the eliminator `t`, other than an application, whose principal
    argument has the weak-head normal type `principal`, of the former
    `_FORMERS` gives; `Checker._app_type` types an application spine."""
    match t:
        case Fst(_):
            return principal.dom
        case Snd(p):
            return subst(principal.cod, Fst(p))
        case J(motive, _, eq):
            return instantiate(motive, (principal.rhs, eq))
        case Down(_):
            return principal.ty


class Checker:
    """One checking instance: globals, and the interval atoms of the
    declaration being checked."""

    def __init__(self) -> None:
        self.globals: dict[str, GlobalDef] = {}
        self.global_order: list[str] = []
        self.atoms = lattice.AtomTable()
        self._atoms_by_former: dict[type, list[int]] = {}

    # -- diagnostics ---------------------------------------------------------

    def err(self, code: str, message: str,
            expected: Term | str | Callable[[], Term] | None = None,
            actual: Term | str | Callable[[], Term] | None = None,
            span: tuple[int, int] = (0, 0), ctx: Optional[Ctx] = None) -> NoReturn:
        """Raise a diagnostic at `span`.

        A (0, 0) span takes that of the innermost term with a span on its way
        out of `infer` or `check`, else the declaration's in `run_module`,
        which also names the file and prints the core terms.  A function given
        as `expected` or `actual` is called only then, so a diagnostic that a
        `fail-check` catches never computes the term.
        """
        raise KernelError(
            Diagnostic(file="<input>", code=code, message=message, span=span),
            expected,
            actual,
            ctx.names() if ctx is not None else [],
        )

    # -- weak-head normalization ----------------------------------------------

    def whnf(self, t: Term) -> Term:
        if type(t) not in _REDEX_FORMERS:
            return t
        match t:
            case Const(name):
                entry = self.globals.get(name)
                if entry is not None and entry.body is not None:
                    return self.whnf(entry.body)
                return t
            case App():
                # the whole spine at once: the head's leading lambdas take
                # their arguments in one substitution pass
                args, head = [], t
                while type(head) is App:
                    args.append(head.arg)
                    head = head.fn
                args.reverse()
                hw = self.whnf(head)
                body, taken = hw, 0
                while taken < len(args) and type(body) is Lam:
                    body, taken = body.body, taken + 1
                if taken == 0:
                    return t if hw is head else functools.reduce(App, args, hw)
                out = instantiate(body, tuple(args[:taken]))
                return self.whnf(functools.reduce(App, args[taken:], out))
            case Fst(p):
                pw = self.whnf(p)
                if isinstance(pw, Pair):
                    return self.whnf(pw.fst)
                return Fst(pw)
            case Snd(p):
                pw = self.whnf(p)
                if isinstance(pw, Pair):
                    return self.whnf(pw.snd)
                return Snd(pw)
            case J(motive, base, eq):
                ew = self.whnf(eq)
                if isinstance(ew, Refl):
                    return self.whnf(base)
                return J(motive, base, ew)
            case NatRec(motive, zcase, scase, scrut):
                nw = self.whnf(scrut)
                if isinstance(nw, Zero):
                    return self.whnf(zcase)
                if isinstance(nw, Suc):
                    rec = NatRec(motive, zcase, scase, nw.arg)
                    return self.whnf(App(App(scase, nw.arg), rec))
                return NatRec(motive, zcase, scase, nw)
            case BoolRec(motive, tcase, fcase, scrut):
                bw = self.whnf(scrut)
                if isinstance(bw, TrueC):
                    return self.whnf(tcase)
                if isinstance(bw, FalseC):
                    return self.whnf(fcase)
                return BoolRec(motive, tcase, fcase, bw)
            case LetMod(frame, word, scrut, body):
                sw = self.whnf(scrut)
                if word == ():
                    return self.whnf(subst(body, sw))
                if isinstance(sw, MkMod) and sw.word == word:
                    return self.whnf(subst(body, sw.body))
                return LetMod(frame, word, sw, body)
            case Down(x):
                xw = self.whnf(x)
                if isinstance(xw, Up):
                    return self.whnf(xw.arg)
                return Down(xw)

    # -- interval canonical forms ---------------------------------------------

    def int_canon(self, t: Term) -> lattice.Poly:
        """Canonical polynomial of an interval-typed term."""
        return lattice.canon(t, atom=self._leaf)

    def _leaf(self, t: Term) -> int | Term:
        """A leaf of a lattice fold: its whnf, folded in its place, if that is
        a bound, meet or join, and otherwise its interned atom id."""
        w = self.whnf(t)
        if isinstance(w, (I0, I1, MeetT, JoinT)):
            return w
        return self._atom(w)

    def _atom(self, t: Term) -> int:
        """Id of a whnf'd interval atom, shared by the atoms convertible with it.

        On a miss of the exact key, `t` is matched by `conv` against the atoms
        of its own former (the only ones it can convert with), so that
        `f (i /\\ j)` and `f (j /\\ i)` get one id.  A `Const` atom is an
        axiom, equal only to itself.
        """
        ident = self.atoms.get(t)
        if ident is not None:
            return ident
        same = [] if isinstance(t, Const) else self._atoms_by_former.setdefault(type(t), [])
        for other in same:
            if self.conv(self.atoms.key(other), t):
                self.atoms.alias(t, other)
                return other
        ident = self.atoms.intern(t)
        same.append(ident)
        return ident

    def _shown(self, t: Term) -> Term:
        """The whnf of `t` as a diagnostic prints it: a meet or join is put in
        canonical form."""
        w = self.whnf(t)
        return self._poly_term(self.int_canon(w)) if isinstance(w, (MeetT, JoinT)) else w

    def _poly_term(self, poly: lattice.Poly) -> Term:
        """The canonical term of `poly`: a right-nested join of right-nested
        meets of atoms, in the order `lattice.monomials` gives."""
        if poly in (lattice.ZERO, lattice.ONE):
            return ENDPOINTS[poly == lattice.ONE]

        def nest(former: type, parts: list[Term]) -> Term:
            return functools.reduce(lambda out, part: former(part, out), parts[-2::-1], parts[-1])

        return nest(JoinT, [nest(MeetT, [self.atoms.key(a) for a in m])
                            for m in lattice.monomials(poly)])

    # -- conversion -------------------------------------------------------------

    def cells_equal(self, c1: Optional[TwoCell], c2: Optional[TwoCell]) -> bool:
        """Whether two variable annotations are one 2-cell; None is an identity."""
        if c1 is None:
            if c2 is None:
                return True
            c1 = identity_cell(c2.src)
        elif c2 is None:
            c2 = identity_cell(c1.src)
        try:
            return cell_eq(c1, c2)
        except ModeError:  # cells between different words
            return False

    def conv(self, t: Term, u: Term) -> bool:
        """Definitional equality: syntactic equality, else `conv_str`."""
        return syn_eq(t, u) or self.conv_str(t, u)

    def conv_str(self, t: Term, u: Term) -> bool:
        """Definitional equality of two terms of one type, by their whnfs."""
        while True:
            tw, uw = self.whnf(t), self.whnf(u)
            if (tw is not t or uw is not u) and syn_eq(tw, uw):
                return True
            if isinstance(tw, (MeetT, JoinT)) or isinstance(uw, (MeetT, JoinT)):
                same = lattice.decide(tw, uw, self._leaf)
                return self.int_canon(tw) == self.int_canon(uw) if same is None else same
            # eta for functions and pairs
            if isinstance(tw, Lam) and not isinstance(uw, Lam):
                return self.conv(tw.body, App(shift(uw, 1), Var(0)))
            if isinstance(uw, Lam) and not isinstance(tw, Lam):
                return self.conv(App(shift(tw, 1), Var(0)), uw.body)
            if isinstance(tw, Pair) and not isinstance(uw, Pair):
                return self.conv(tw.fst, Fst(uw)) and self.conv(tw.snd, Snd(uw))
            if isinstance(uw, Pair) and not isinstance(tw, Pair):
                return self.conv(Fst(tw), uw.fst) and self.conv(Snd(tw), uw.snd)
            if type(tw) is not type(uw):
                return False
            if isinstance(tw, Var):
                return tw.ix == uw.ix and self.cells_equal(tw.cell, uw.cell)
            if not same_data(tw, uw):
                return False
            kids = _KIDS[type(tw)]
            if len(kids) != 1:
                for name in kids:
                    if not self.conv(getattr(tw, name), getattr(uw, name)):
                        return False
                return True
            # tw and uw differ syntactically only in their one subterm: compare
            # it without the syntactic test, so that a `Suc` chain costs linear
            # time and no recursion
            t, u = getattr(tw, kids[0]), getattr(uw, kids[0])

    # -- type synthesis ----------------------------------------------------------

    def type_of(self, ctx: Ctx, t: Term) -> Term:
        """Type of the well-typed core term `t`, read off its weak-head normal form.

        `t` is a type, whose type is its universe, or a neutral term: the
        principal argument of a stuck eliminator.  Introduction forms carry no
        annotation in the core, so they have no synthesized type.
        """
        match w := self.whnf(t):
            case Var(ix, cell):
                base = ctx.type_of(ix)
                return base if cell is None else apply_cell(base, cell)
            case Const(name):
                entry = self.globals.get(name)
                if entry is None:
                    self.err("E-UNBOUND", f"unknown constant {name!r}")
                return entry.ty
            case App():
                apps = _spine(w, App)
                return self._app_type(ctx, self.type_of(ctx, apps[0].fn), apps)
            case Fst(head) | Snd(head) | J(_, _, head) | Down(head):
                return _elim_type(w, self._principal(ctx, type(w), self.type_of(ctx, head)))
            case NatRec(motive, _, _, scrut) | BoolRec(motive, _, _, scrut):
                return subst(motive, scrut)
            case LetMod(frame, word, scrut, body):
                sty = self.type_of(ctx.lock(frame), scrut)
                bty = self.type_of(self._letmod_ctx(ctx, "_", frame, word, sty), body)
                return self._letmod_type(bty)
            case Univ(level):
                return Univ(level + 1)
            case Pi(word, dom, cod):
                ctx2 = ctx.extend("_", word, dom)
                return Univ(max(self.universe_of(ctx.lock(word), dom),
                                self.universe_of(ctx2, cod)))
            case Sigma(dom, cod):
                ctx2 = ctx.extend("_", (), dom)
                return Univ(max(self.universe_of(ctx, dom), self.universe_of(ctx2, cod)))
            case IdT(inner, _, _):
                return Univ(self.universe_of(ctx, inner))
            case IntT() | NatT() | BoolT():
                return Univ(0)
            case Modify(word, inner):
                return Univ(self.universe_of(ctx.lock(word), inner))
            case LiftT(inner):
                return Univ(self.universe_of(ctx, inner) + 1)
        self.err("E-CONV", "cannot synthesize a type for this term")

    def universe_of(self, ctx: Ctx, ty: Term) -> int:
        """Level l such that the (well-formed) type inhabits U l."""
        tyty = self.whnf(self.type_of(ctx, ty))
        if isinstance(tyty, Univ):
            return tyty.level
        self.err("E-CONV", "expected a type", actual=self.whnf(ty), ctx=ctx)

    def _principal(self, ctx: Ctx, former: type, ty: Term) -> Term:
        """Weak-head normal form of `ty`, the type of the principal argument of
        the eliminator `former`, which must have the former `_FORMERS` gives."""
        tyw = self.whnf(ty)
        needed, message = _FORMERS[former]
        if not isinstance(tyw, needed):
            self.err("E-CONV", message, actual=tyw, ctx=ctx)
        return tyw

    def _app_type(self, ctx: Ctx, fty: Term, apps: list,
                  check: Optional[Callable[..., Term]] = None) -> Term:
        """Type of the spine `apps` (see `_spine`) whose head has type `fty`.

        Each argument is taken as it is, or as `check(arg, word, dom)` makes
        it against its binder's lock and its domain.  The arguments stay
        pending while the telescope is a syntactic Pi, and go into a domain or
        the result in one `instantiate`; only where it is not a Pi are they
        substituted and its whnf taken.
        """
        cur, pending = fty, []
        for app in apps:
            if type(cur) is not Pi:
                cur, pending = self._principal(ctx, App, instantiate(cur, tuple(pending))), []
            arg = app.arg
            if check is not None:
                arg = check(arg, cur.word, instantiate(cur.dom, tuple(pending)))
            pending.append(arg)
            cur = cur.cod
        return instantiate(cur, tuple(pending))

    # -- modal variable access ----------------------------------------------------

    def access_cell(self, ctx: Ctx, ix: int, explicit: Optional[TwoCell],
                    name: str) -> Optional[TwoCell]:
        """2-cell mediating the use of Var(ix) under the trailing locks; None
        when it is an identity, so an annotation is never an identity cell."""
        pos = ctx._position(ix)
        annotation = ctx.entries[pos].word  # normalised by `Ctx.extend`
        if explicit is None and not annotation and ctx.last_lock < pos:
            return None  # only droppable p's follow: the first word is 1
        words = ctx.lock_words(ix)
        if explicit is None and annotation in words:
            return None  # identity access
        if explicit is not None:
            src, dst = explicit.src, explicit.dst
            if src != annotation:
                self.err(
                    "E-2CELL-BOUNDARY",
                    f"cell on {name!r} starts at {format_word(src)} but the "
                    f"variable is annotated {format_word(annotation)}",
                )
            if dst not in words:
                self.err(
                    "E-2CELL-BOUNDARY",
                    f"cell on {name!r} ends at {format_word(dst)} but the "
                    f"locks compose to {format_word(words[-1])}",
                )
            found = explicit
        else:
            for target in words:
                found = cell_search(annotation, target)
                if found is not None:
                    break
            else:
                self.err(
                    "E-MODALITY",
                    f"variable {name!r} is annotated {format_word(annotation)} but sits "
                    f"under locks {format_word(words[-1])} and no mediating 2-cell "
                    f"was found to any word tried: "
                    f"{', '.join(map(format_word, words))} (depth {SEARCH_DEPTH})",
                )
        found = cell_normalize(found)
        return None if found.is_identity() else found

    # -- surface cell elaboration ----------------------------------------------

    def elab_cell(self, factors: tuple[TwoCell, ...]) -> TwoCell:
        try:
            return functools.reduce(cell_vcomp, factors)
        except ModeError as exc:
            self.err("E-2CELL-BOUNDARY", exc.message)

    # -- bidirectional elaboration -----------------------------------------------

    def infer(self, ctx: Ctx, s: syntax.STerm) -> tuple[Term, Term]:
        try:
            return self._infer(ctx, s)
        except KernelError as exc:
            _locate(exc, s.span)
            raise

    def check(self, ctx: Ctx, s: syntax.STerm, ty: Term) -> Term:
        try:
            return self._check(ctx, s, ty)
        except KernelError as exc:
            _locate(exc, s.span)
            raise

    def elab_type(self, ctx: Ctx, s: syntax.STerm) -> tuple[Term, int]:
        tc, tty = self.infer(ctx, s)
        ttyw = self.whnf(tty)
        if isinstance(ttyw, Univ):
            return tc, ttyw.level
        self.err("E-CONV", "expected a type", actual=ttyw, span=s.span, ctx=ctx)

    def _lookup(self, ctx: Ctx, name: str, cell: Optional[TwoCell]) -> tuple[Term, Term]:
        ix = ctx.find(name)
        if ix is None:
            if cell is None and name in self.globals:
                return Const(name), self.globals[name].ty
            if name in self.globals:
                self.err("E-2CELL-BOUNDARY", f"2-cell action on the constant {name!r}")
            self.err("E-UNBOUND", f"unbound name {name!r}")
        resolved = self.access_cell(ctx, ix, cell, name)
        ty = ctx.type_of(ix)
        return Var(ix, resolved), ty if resolved is None else apply_cell(ty, resolved)

    def _infer(self, ctx: Ctx, s: syntax.STerm) -> tuple[Term, Term]:
        match s:
            case syntax.SVar(name):
                return self._lookup(ctx, name, None)
            case syntax.SCellApp(syntax.SVar(name), cell):
                return self._lookup(ctx, name, self.elab_cell(cell))
            case syntax.SCellApp(_, _):
                self.err(
                    "E-MODALITY",
                    "the 2-cell action elaborates on variables only; "
                    "apply it before compounding the term",
                )
            case syntax.SUniv(level):
                return Univ(level), Univ(level + 1)
            case syntax.SConstT(kw):
                return _CONSTANTS[kw]
            case syntax.SNum(value):
                if value in (0, 1):
                    return ENDPOINTS[value], INT
                return nat_literal(value), NAT
            case syntax.SSucc(arg):
                ac = self.check(ctx, arg, NAT)
                return Suc(ac), NAT
            case syntax.SMeet() | syntax.SJoin():
                return self._elab_lattice(ctx, s), INT
            case syntax.SPi(name, word, dom, cod):
                word = normalize(word)
                if "p" in word:
                    self.err(
                        "E-MODALITY",
                        "path-annotated binders are not supported; "
                        "bind an interval variable instead",
                    )
                dc, l1 = self.elab_type(ctx.lock(word), dom)
                # an interval domain is stored as `Int` itself, the one form
                # that `binds_interval` reads
                if binds_interval(word, self.whnf(dc)):
                    dc = INT
                ctx2 = ctx.extend(name, word, dc)
                cc, l2 = self.elab_type(ctx2, cod)
                return Pi(word, dc, cc), Univ(max(l1, l2))
            case syntax.SSigma(name, dom, cod):
                dc, l1 = self.elab_type(ctx, dom)
                ctx2 = ctx.extend(name, (), dc)
                cc, l2 = self.elab_type(ctx2, cod)
                return Sigma(dc, cc), Univ(max(l1, l2))
            case syntax.SApp():
                apps = _spine(s, syntax.SApp)
                fc, fty = self.infer(ctx, apps[0].fn)
                args = []

                def check_arg(arg, word, dom):
                    args.append(self.check(ctx.lock(word), arg, dom))
                    return args[-1]

                try:
                    ty = self._app_type(ctx, fty, apps, check_arg)
                except KernelError as exc:
                    # the partial application up to the argument that failed
                    _locate(exc, apps[len(args)].span)
                    raise
                return functools.reduce(App, args, fc), ty
            case syntax.SFst(arg) | syntax.SSnd(arg) | syntax.SDown(arg):
                former = _CORE_FORMERS[type(s)]
                ac, aty = self.infer(ctx, arg)
                t = former(ac)
                return t, _elim_type(t, self._principal(ctx, former, aty))
            case syntax.SEq(lhs, rhs):
                lc, lty = self.infer(ctx, lhs)
                rc = self.check(ctx, rhs, lty)
                return IdT(lty, lc, rc), Univ(self.universe_of(ctx, lty))
            case syntax.SJ(motive, base, eq):
                ec, ety = self.infer(ctx, eq)
                ety = self._principal(ctx, J, ety)
                mbody = self._motive(ctx, motive, "J", ety.ty,
                                     IdT(shift(ety.ty, 1), shift(ety.lhs, 1), Var(0)))
                bc = self.check(ctx, base, instantiate(mbody, (ety.lhs, Refl())))
                t = J(mbody, bc, ec)
                return t, _elim_type(t, ety)
            case syntax.SNatRec(motive, zcase, scase, scrut):
                nc = self.check(ctx, scrut, NAT)
                mbody = self._motive(ctx, motive, "natrec", NAT)
                zc = self.check(ctx, zcase, subst(mbody, ZERO))
                step_cod = subst(shift(mbody, 2, cutoff=1), Suc(Var(1)))
                step_ty = Pi((), NAT, Pi((), mbody, step_cod))
                sc = self.check(ctx, scase, step_ty)
                return NatRec(mbody, zc, sc, nc), subst(mbody, nc)
            case syntax.SBoolRec(motive, tcase, fcase, scrut):
                bc = self.check(ctx, scrut, BOOL)
                mbody = self._motive(ctx, motive, "boolrec", BOOL)
                tc = self.check(ctx, tcase, subst(mbody, TRUE))
                fc = self.check(ctx, fcase, subst(mbody, FALSE))
                return BoolRec(mbody, tc, fc, bc), subst(mbody, bc)
            case syntax.SModify(word, body):
                word = normalize(word)
                bc, level = self.elab_type(ctx.lock(word), body)
                return mk_modify(word, bc), Univ(level)
            case syntax.SMkMod(word, body):
                word = normalize(word)
                bc, bty = self.infer(ctx.lock(word), body)
                return mk_mkmod(word, bc), mk_modify(word, bty)
            case syntax.SLetMod(word, name, frame, scrut, body):
                return self._elab_letmod(ctx, s, None)
            case syntax.SInst(arg, index):
                ic = self.check(ctx, index, INT)
                ctx2 = ctx.lock(("p",))
                ac, aty = self.infer(ctx2, arg)
                return subst(ac, ic), subst(aty, ic)
            case syntax.SCoe(cell, arg):
                return self._elab_coe(ctx, s)
            case syntax.SAnnot(term, ty, word):
                if word:
                    self.err("E-MODALITY", "modal annotation outside a binder")
                tyc, _ = self.elab_type(ctx, ty)
                tc = self.check(ctx, term, tyc)
                return tc, tyc
            case syntax.SLift(arg):
                ac, level = self.elab_type(ctx, arg)
                return LiftT(ac), Univ(level + 1)
            case syntax.SUp(arg):
                ac, aty = self.infer(ctx, arg)
                return Up(ac), LiftT(aty)
            case syntax.SLam(_, _):
                self.err("E-CONV", "cannot infer the type of a bare function; "
                         "annotate it or check it against a type")
            case syntax.SPair(_, _):
                self.err("E-CONV", "cannot infer the type of a bare pair; "
                         "annotate it or check it against a type")
            case syntax.SRefl():
                self.err("E-CONV", "cannot infer the type of refl; "
                         "check it against an equation")
            case _:
                self.err("E-PARSE", f"unsupported term {s!r}")

    def _motive(self, ctx: Ctx, motive: syntax.STerm, what: str, *domains: Term) -> Term:
        """The body of the literal motive `fun x.. => M` of the eliminator
        `what`, elaborated as a type with its binders of types `domains`, each
        in the context extended by the ones before it."""
        body = motive
        for dom in domains:
            if not isinstance(body, syntax.SLam):
                arity = "two-argument " if len(domains) == 2 else ""
                self.err("E-CONV", f"the {what} motive must be a literal {arity}function")
            ctx = ctx.extend(body.name, (), dom)
            body = body.body
        return self.elab_type(ctx, body)[0]

    def _check(self, ctx: Ctx, s: syntax.STerm, ty: Term) -> Term:
        if type(s) not in _INTRODUCTIONS:
            return self._check_via_infer(ctx, s, ty)
        tyw = self.whnf(ty)
        form = _FORMERS.get(type(s))
        if form is not None and not isinstance(tyw, form[0]):
            self.err("E-CONV", form[1], expected=tyw, ctx=ctx)
        match s:
            case syntax.SLam(name, body):
                ctx2 = ctx.extend(name, tyw.word, tyw.dom)
                bc = self.check(ctx2, body, tyw.cod)
                return Lam(bc)
            case syntax.SPair(a, b):
                ac = self.check(ctx, a, tyw.dom)
                bc = self.check(ctx, b, subst(tyw.cod, ac))
                return Pair(ac, bc)
            case syntax.SRefl():
                if not self.conv(tyw.lhs, tyw.rhs):
                    self.err(
                        "E-CONV",
                        "refl requires definitionally equal sides",
                        expected=lambda: self._shown(tyw.lhs),
                        actual=lambda: self._shown(tyw.rhs),
                        ctx=ctx,
                    )
                return Refl()
            case syntax.SNum(value):
                if isinstance(tyw, IntT):
                    if value in (0, 1):
                        return ENDPOINTS[value]
                    self.err("E-CONV", f"{value} is not an interval endpoint")
                if isinstance(tyw, NatT):
                    return nat_literal(value)
                return self._check_via_infer(ctx, s, tyw)
            case syntax.SMkMod(word, body):
                word = normalize(word)
                inner, k = strip_trailing_p(word)
                cur = tyw
                if inner:
                    if not (isinstance(cur, Modify) and cur.word == inner):
                        self.err(
                            "E-CONV",
                            f"modal introduction mod{{{format_word(word)}}} against "
                            "a different type",
                            expected=cur,
                            ctx=ctx,
                        )
                    cur = cur.ty
                for _ in range(k):
                    cur = self.whnf(cur)
                    if not (isinstance(cur, Pi) and binds_interval(cur.word, cur.dom)):
                        self.err(
                            "E-CONV",
                            "path-modal introduction against a non-path type",
                            expected=tyw,
                            ctx=ctx,
                        )
                    cur = cur.cod
                bc = self.check(ctx.lock(word), body, cur)
                return mk_mkmod(word, bc)
            case syntax.SLetMod(_, _, _, _, _):
                return self._elab_letmod(ctx, s, tyw)

    def _check_via_infer(self, ctx: Ctx, s: syntax.STerm, ty: Term) -> Term:
        tc, ity = self.infer(ctx, s)
        # `conv` unfolds both sides itself when they differ syntactically; the
        # whnfs here serve only the diagnostic
        if self.conv(ity, ty):
            return tc
        tyw, ityw = self.whnf(ty), self.whnf(ity)
        if isinstance(ityw, Univ) and isinstance(tyw, Univ):
            self.err(
                "E-UNIVERSE",
                f"universe level mismatch: U {ityw.level} is not U {tyw.level}",
                expected=tyw,
                actual=ityw,
                ctx=ctx,
            )
        self.err(
            "E-CONV",
            "type mismatch",
            expected=tyw,
            actual=ityw,
            ctx=ctx,
        )

    def _elab_lattice(self, ctx: Ctx, s: syntax.STerm) -> Term:
        """The core term of the meet/join tree `s`, its operands checked
        against `Int` left first on an explicit stack, so that a chain of any
        length elaborates: a variable of a type convertible with `Int` is
        looked up once, and any other operand is checked as usual."""
        todo: list = [s]  # subtrees still to elaborate, and formers awaiting operands
        done: list[Term] = []
        while todo:
            top = todo.pop()
            kind = type(top)
            if kind is syntax.SMeet or kind is syntax.SJoin:
                todo += (_CORE_FORMERS[kind], top.rhs, top.lhs)
            elif kind is syntax.SVar:
                try:
                    tc, ty = self._lookup(ctx, top.name, None)
                except KernelError as exc:
                    _locate(exc, top.span)
                    raise
                done.append(tc if self.conv(ty, INT) else self.check(ctx, top, INT))
            elif isinstance(top, syntax.STerm):
                done.append(self.check(ctx, top, INT))
            else:  # a former, whose two operands are the last two terms
                done[-2:] = [top(*done[-2:])]
        return done[0]

    def _elab_letmod(self, ctx: Ctx, s: syntax.SLetMod, expected: Optional[Term]):
        word = normalize(s.word)
        frame = normalize(s.frame)
        if "p" in word or "p" in frame:
            self.err(
                "E-MODALITY",
                "let-mod over a path modality is not supported; "
                "use interval binders directly",
            )
        sc, sty = self.infer(ctx.lock(frame), s.scrut)
        ctx2 = self._letmod_ctx(ctx, s.name, frame, word, sty)
        if expected is not None:
            bc = self.check(ctx2, s.body, shift(expected, 1))
            return LetMod(frame, word, sc, bc)
        bc, bty = self.infer(ctx2, s.body)
        return LetMod(frame, word, sc, bc), self._letmod_type(bty)

    def _letmod_ctx(self, ctx: Ctx, name: str, frame, word, sty: Term) -> Ctx:
        """`ctx` extended by the variable that `let mod{word}` binds.

        The scrutinee, checked under the lock `frame`, has type `sty`, which
        must be `<word| A>`; the variable has type A with annotation
        frame.word (Gratzer, Kavvos, Nuyts and Birkedal, LICS 2020).
        """
        styw = self.whnf(sty)
        if word == ():
            inner_ty = styw
        elif isinstance(styw, Modify) and styw.word == word:
            inner_ty = styw.ty
        else:
            self.err(
                "E-CONV",
                f"let-mod expects a value in <{format_word(word)}| ->",
                expected=f"<{format_word(word)}| _>",
                actual=styw,
                ctx=ctx,
            )
        return ctx.extend(name, compose(frame, word), inner_ty)

    def _letmod_type(self, bty: Term) -> Term:
        """Type of a let-mod whose body has type `bty`, which may not mention
        the bound variable."""
        if free_in(bty):
            self.err("E-CONV", "cannot infer a dependent let-mod; check it against a type")
        return shift(bty, -1)

    def _elab_coe(self, ctx: Ctx, s: syntax.SCoe) -> tuple[Term, Term]:
        cell = self.elab_cell(s.cell)
        src, dst = cell.src, cell.dst
        if "p" in src:
            self.err(
                "E-MODALITY",
                "coercion out of a path modality is not supported",
            )
        tc, tty = self.infer(ctx, s.arg)
        ttyw = self.whnf(tty)
        if src == ():
            inner = ttyw
            result = mk_mkmod(dst, apply_cell(shift(tc, npee(dst)), cell))
        else:
            if not (isinstance(ttyw, Modify) and ttyw.word == src):
                self.err(
                    "E-CONV",
                    f"coercion along {format_word(src)} => {format_word(dst)} "
                    "expects a matching modal argument",
                    expected=f"<{format_word(src)}| _>",
                    actual=ttyw,
                    ctx=ctx,
                )
            inner = ttyw.ty
            body = Var(npee(dst), cell if not cell.is_identity() else None)
            result = LetMod((), src, tc, mk_mkmod(dst, body))
        return result, mk_modify(dst, apply_cell(shift(inner, npee(dst)), cell))

    # -- declarations ---------------------------------------------------------

    def run_decl(self, decl: syntax.Decl) -> None:
        # Atom ids order the printed canonical forms; a table per declaration
        # makes each diagnostic independent of what was checked before it.
        self.atoms, self._atoms_by_former = lattice.AtomTable(), {}
        ctx = Ctx()
        defines = decl.kind in ("def", "axiom")
        if defines and decl.name in self.globals:
            self.err("E-PARSE", f"redefinition of {decl.name!r}", span=decl.span)
        try:
            tyc, _ = self.elab_type(ctx, decl.ty)
            bodyc = None if decl.body is None else self.check(ctx, decl.body, tyc)
        except KernelError as exc:
            if decl.kind != "fail-check":
                raise
            if exc.diagnostic.code == decl.expect_code:
                return
            exc.diagnostic.message = (
                f"fail-check expected {decl.expect_code} but failed with "
                f"{exc.diagnostic.code}: {exc.diagnostic.message}"
            )
            raise
        if decl.kind == "fail-check":
            self.err(
                decl.expect_code or "E-CONV",
                f"fail-check: the term type-checked but {decl.expect_code} "
                "was expected",
                span=decl.span,
            )
        if defines:
            self.globals[decl.name] = GlobalDef(decl.name, decl.kind, tyc, bodyc)
            self.global_order.append(decl.name)

    def run_module(self, module: syntax.SurfaceModule) -> list[Diagnostic]:
        for decl in module.decls:
            try:
                self.run_decl(decl)
            except KernelError as exc:
                _locate(exc, decl.span)
                exc.diagnostic.file = module.path
                return [_printed(exc)]
            except RecursionError:
                return [_too_deep(module.path, "declaration", decl.span)]
        return []

    def check_source(self, text: str, path: str = "<input>") -> list[Diagnostic]:
        """Check one source text; its diagnostics carry line and column."""
        try:
            module = syntax.parse_module(text, path)
        except KernelError as exc:
            diags = [exc.diagnostic]
        except RecursionError:
            diags = [_too_deep(path, "input", (0, 0))]
        else:
            diags = self.run_module(module)
        if diags:
            linemap = LineMap(text)
            for d in diags:
                d.located(linemap)
        return diags


def _spine(t, app: type) -> list:
    """The applications `f a1 .. ak`, k = 1..n, of the spine `t` of former
    `app`, shortest first; the head `f` is the first one's `fn`."""
    apps = []
    while type(t) is app:
        apps.append(t)
        t = t.fn
    apps.reverse()
    return apps


def _locate(exc: KernelError, span: tuple[int, int]) -> None:
    """Give the diagnostic of `exc` the span `span` if it has none yet."""
    if exc.diagnostic.span == (0, 0):
        exc.diagnostic.span = span


def _too_deep(path: str, what: str, span: tuple[int, int]) -> Diagnostic:
    """E-DEPTH: the checker ran out of Python stack on this input."""
    return Diagnostic(
        file=path,
        code="E-DEPTH",
        message=f"{what} is nested too deeply for the checker (recursion limit)",
        span=span,
    )


# ---------------------------------------------------------------------------
# Readback to surface syntax (diagnostics only)
# ---------------------------------------------------------------------------


def _printed(exc: KernelError) -> Diagnostic:
    """The diagnostic of `exc` with its core terms printed, each deferred one
    computed first; terms nested too deeply to print are left out."""
    d = exc.diagnostic
    try:
        d.expected, d.actual = (
            shown if shown is None or isinstance(shown, str)
            else print_core(shown() if callable(shown) else shown, exc.names)
            for shown in (exc.expected, exc.actual)
        )
    except RecursionError:
        d.expected = d.actual = None
    return d


def print_core(t: Term, names: Optional[list[str]] = None) -> str:
    """Surface text of `t` in a context whose variables are `names`."""
    return syntax.print_term(readback(t, names or []))


def readback(t: Term, names: list[str]) -> syntax.STerm:
    """A surface term that elaborates back to `t` in a context named `names`.

    Binder names are fresh against every name in scope and every constant
    `t` mentions; a Pi or Sigma binder whose variable is unused is left
    anonymous.  Nat literals below 2 read back as `zero` and `succ zero`, so
    they do not parse as interval endpoints.
    """
    taken = constants(t)

    def fresh(base: str, scope: list[str]) -> str:
        name, k = base, 0
        while name in scope or name in taken:
            name, k = f"{base}{k}", k + 1
        return name

    def binder(body: Term, scope: list[str]) -> str:
        return fresh("x", scope) if free_in(body) else "_"

    def go(u: Term, scope: list[str]) -> syntax.STerm:
        former = type(u)
        surface = _SURFACE.get(former)
        if former is MeetT or former is JoinT:  # a right-nested spine, in a loop
            lhss = []
            while type(u) is former:
                lhss.append(go(u.lhs, scope))
                u = u.rhs
            return functools.reduce(lambda out, lhs: surface(lhs, out), reversed(lhss), go(u, scope))
        if surface is not None:
            return surface(*(go(getattr(u, f), scope) for f in u.__match_args__))
        if type(u) in _CONSTANT_OF:
            return syntax.SConstT(_CONSTANT_OF[type(u)])
        match u:
            case Var(ix, cell):
                var = syntax.SVar(scope[-1 - ix] if ix < len(scope) else f"@{ix}")
                if cell is None:
                    return var
                return syntax.SCellApp(var, (cell,))
            case Const(name):
                return syntax.SVar(name)
            case Univ(level):
                return syntax.SUniv(level)
            case Pi(word, dom, cod):
                x = binder(cod, scope)
                return syntax.SPi(x, word, go(dom, scope), go(cod, scope + [x]))
            case Sigma(dom, cod):
                x = binder(cod, scope)
                return syntax.SSigma(x, go(dom, scope), go(cod, scope + [x]))
            case Lam(body):
                x = fresh("x", scope)
                return syntax.SLam(x, go(body, scope + [x]))
            case IdT(ty, lhs, rhs):
                left = go(lhs, scope)
                if isinstance(lhs, (Lam, Pair, Refl)):  # no type to infer
                    left = syntax.SAnnot(left, go(ty, scope))
                return syntax.SEq(left, go(rhs, scope))
            case Refl():
                return syntax.SRefl()
            case J(motive, base, eq):
                b = fresh("b", scope)
                q = fresh("q", scope + [b])
                mot = syntax.SLam(b, syntax.SLam(q, go(motive, scope + [b, q])))
                return syntax.SJ(mot, go(base, scope), go(eq, scope))
            case NatRec(motive, zcase, scase, scrut):
                n = fresh("n", scope)
                return syntax.SNatRec(syntax.SLam(n, go(motive, scope + [n])),
                                      go(zcase, scope), go(scase, scope), go(scrut, scope))
            case BoolRec(motive, tcase, fcase, scrut):
                b = fresh("b", scope)
                return syntax.SBoolRec(syntax.SLam(b, go(motive, scope + [b])),
                                       go(tcase, scope), go(fcase, scope), go(scrut, scope))
            case Suc(arg):
                n, inner = 1, arg
                while isinstance(inner, Suc):
                    n, inner = n + 1, inner.arg
                if n > 1 and isinstance(inner, Zero):
                    return syntax.SNum(n)
                return syntax.SSucc(go(arg, scope))
            case I0():
                return syntax.SNum(0)
            case I1():
                return syntax.SNum(1)
            case Modify(word, ty):
                # each p in the word locks the body under an interval named i
                return syntax.SModify(word, go(ty, scope + ["i"] * npee(word)))
            case MkMod(word, body):
                return syntax.SMkMod(word, go(body, scope + ["i"] * npee(word)))
            case LetMod(frame, word, scrut, body):
                x = fresh("x", scope)
                return syntax.SLetMod(word, x, frame, go(scrut, scope), go(body, scope + [x]))
        raise TypeError(f"cannot read back {u!r}")

    return go(t, list(names))
