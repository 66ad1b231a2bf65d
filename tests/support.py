"""Helpers that only the tests use: a 2-cell's boundary check, the text of a
declaration for round-trip tests, and the plain references that the lock
words of a variable, the normal form of a 2-cell, the term walks and the
term parser are compared against.
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
from trikernel import syntax
from trikernel.modality import parse_cell, parse_word
from trikernel.syntax import (
    CALLS,
    CONSTANTS,
    PREFIX,
    Decl,
    SAnnot,
    SApp,
    SCellApp,
    SCoe,
    SConstT,
    SEq,
    SInst,
    SJoin,
    SLam,
    SLetMod,
    SMeet,
    SMkMod,
    SModify,
    SNum,
    SPair,
    SPi,
    SRefl,
    SSigma,
    SUniv,
    SVar,
    print_term,
)


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


class LevelParser(syntax.Parser):
    """The term parser with one method per precedence level, for differential
    tests of `syntax.Parser.parse_term`'s one loop.  Only the token helpers
    and the declarations are inherited; every term method, including the
    atoms and the binder reading, is its own, so it calls none of the loop's
    code."""

    def parse_term(self):
        if self.kinds[self.pos] == "KEYWORD":
            kw = self.texts[self.pos]
            if kw == "fun":
                return self.parse_lambda()
            if kw == "let":
                return self.parse_letmod()
        return self.parse_arrow()

    def parse_lambda(self):
        start = self.spans[self.expect_kw("fun")][0]
        names = []
        while self.kinds[self.pos] == "IDENT":
            names.append(self.texts[self.pos])
            self.pos += 1
        if not names:
            self.fail("fun needs at least one binder")
        self.expect("FATARROW", "'=>'")
        body = self.parse_term()
        out = body
        for name in reversed(names):
            out = SLam(name, out, span=(start, body.span[1]))
        return out

    def parse_letmod(self):
        start = self.spans[self.expect_kw("let")][0]
        self.expect_kw("mod")
        word = self.braced("a modality word", parse_word)
        self.expect("LPAREN")
        name = self.texts[self.expect("IDENT", "a variable name")]
        self.expect("RPAREN")
        self.expect("EQUALS", "'='")
        frame = ()
        if self.kinds[self.pos] == "LBRACKET":
            self.pos += 1
            frame = self.parse_word_tokens()
            self.expect("RBRACKET")
        scrut = self.parse_term()
        self.expect_kw("in")
        body = self.parse_term()
        return SLetMod(word, name, frame, scrut, body, span=(start, body.span[1]))

    def binder_names(self, lhs):
        """The names `lhs` binds before `->` or `*`, or None: an annotation
        not wrapped in parentheses of its own, of a spine of variables."""
        if not isinstance(lhs, SAnnot) or lhs is self.wrapped:
            return None
        names, cur = [], lhs.term
        while isinstance(cur, SApp):
            if not isinstance(cur.arg, SVar):
                return None
            names.append(cur.arg.name)
            cur = cur.fn
        if not isinstance(cur, SVar):
            return None
        return [cur.name] + names[::-1]

    def parse_arrow(self):
        lhs = self.parse_sigma()
        if self.kinds[self.pos] == "ARROW":
            self.pos += 1
            names = self.binder_names(lhs)
            cod = self.parse_term()
            span = (lhs.span[0], cod.span[1])
            if names is not None:
                out = cod
                for name in reversed(names):
                    out = SPi(name, lhs.word, lhs.ty, out, span=span)
                return out
            if isinstance(lhs, SAnnot) and lhs.word:
                syntax._parse_error("modal annotation on a non-binder", lhs.span, self.file)
            return SPi("_", (), lhs, cod, span=span)
        if isinstance(lhs, SAnnot) and lhs.word:
            syntax._parse_error("modal annotation outside a binder", lhs.span, self.file)
        return lhs

    def parse_sigma(self):
        lhs = self.parse_equality()
        if self.kinds[self.pos] == "STAR":
            self.pos += 1
            names = self.binder_names(lhs)
            rhs = self.parse_sigma()
            span = (lhs.span[0], rhs.span[1])
            if names is None or lhs.word:
                return SSigma("_", lhs, rhs, span=span)
            out = rhs
            for name in reversed(names):
                out = SSigma(name, lhs.ty, out, span=span)
            return out
        return lhs

    def parse_equality(self):
        lhs = self.parse_join()
        if self.kinds[self.pos] == "EQUALS":
            self.pos += 1
            rhs = self.parse_join()
            return SEq(lhs, rhs, span=(lhs.span[0], rhs.span[1]))
        return lhs

    def parse_join(self):
        lhs = self.parse_meet()
        while self.kinds[self.pos] == "JOIN":
            self.pos += 1
            rhs = self.parse_meet()
            lhs = SJoin(lhs, rhs, span=(lhs.span[0], rhs.span[1]))
        return lhs

    def parse_meet(self):
        lhs = self.parse_app()
        while self.kinds[self.pos] == "MEET":
            self.pos += 1
            rhs = self.parse_app()
            lhs = SMeet(lhs, rhs, span=(lhs.span[0], rhs.span[1]))
        return lhs

    def parse_app(self):
        head = self.parse_postfix()
        while self.kinds[self.pos] in ("IDENT", "NUMBER", "LPAREN", "LT") or (
                self.kinds[self.pos] == "KEYWORD" and self.texts[self.pos] in syntax._KEYWORD_ATOMS):
            arg = self.parse_postfix()
            head = SApp(head, arg, span=(head.span[0], arg.span[1]))
        return head

    def parse_postfix(self):
        term = self.parse_atom()
        while True:
            kind = self.kinds[self.pos]
            if kind == "HAT":
                self.pos += 1
                cell = self.braced("a 2-cell in braces", parse_cell)
                term = SCellApp(term, cell, span=(term.span[0], self.spans[self.pos - 1][1]))
            elif kind == "DOT":
                self.pos += 1
                idx = self.parse_atom()
                term = SInst(term, idx, span=(term.span[0], idx.span[1]))
            else:
                return term

    def parse_atom(self):
        pos = self.pos
        kind, start = self.kinds[pos], self.spans[pos][0]
        if kind == "IDENT":
            self.pos = pos + 1
            return SVar(self.texts[pos], span=self.spans[pos])
        if kind == "LPAREN":
            self.pos = pos + 1
            inner = self.parse_term()
            kind = self.kinds[self.pos]
            if kind == "COMMA":
                self.pos += 1
                second = self.parse_term()
                end = self.spans[self.expect("RPAREN")][1]
                return SPair(inner, second, span=(start, end))
            if kind == "COLON":
                self.pos += 1
                ty = self.parse_term()
                word = ()
                if self.kinds[self.pos] == "AT":
                    self.pos += 1
                    word = self.parse_word_tokens()
                end = self.spans[self.expect("RPAREN")][1]
                return SAnnot(inner, ty, word, span=(start, end))
            inner.span = (start, self.spans[self.expect("RPAREN")][1])
            if isinstance(inner, SAnnot):
                self.wrapped = inner
            return inner
        if kind == "NUMBER":
            self.pos = pos + 1
            return SNum(self.numeral(pos), span=self.spans[pos])
        if kind == "KEYWORD" and self.texts[pos] in syntax._KEYWORD_ATOMS:
            return self.parse_keyword_atom()
        if kind == "LT":
            self.pos = pos + 1
            word = self.parse_word_tokens()
            self.expect("PIPE", "'|' after the modality word")
            body = self.parse_term()
            end = self.spans[self.expect("GT", "'>' closing the modal type")][1]
            return SModify(word, body, span=(start, end))
        self.fail(f"expected a term but found {self.texts[pos]!r}")

    def parse_keyword_atom(self):
        pos = self.expect("KEYWORD")
        kw, span, start = self.texts[pos], self.spans[pos], self.spans[pos][0]
        if kw in CONSTANTS:
            return SConstT(kw, span=span)
        if kw in PREFIX:
            arg = self.parse_postfix()
            return PREFIX[kw](arg, span=(start, arg.span[1]))
        if kw in CALLS:
            self.expect("LPAREN", f"'(' after {kw}")
            args = [self.parse_term()]
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self.parse_term())
            end = self.expect("RPAREN")
            if len(args) != (count := len(CALLS[kw].__match_args__)):
                syntax._parse_error(f"{kw} takes {count} arguments, got {len(args)}",
                                    self.spans[end], self.file)
            return CALLS[kw](*args, span=(start, self.spans[end][1]))
        if kw == "U":
            num = self.expect("NUMBER", "a universe level")
            return SUniv(self.numeral(num), span=(start, self.spans[num][1]))
        if kw == "refl":
            return SRefl(span=span)
        if kw == "mod":
            word = self.braced("a modality word", parse_word)
            self.expect("LPAREN")
            body = self.parse_term()
            return SMkMod(word, body, span=(start, self.spans[self.expect("RPAREN")][1]))
        cell = self.braced("a 2-cell", parse_cell)  # the one keyword atom left: `coe`
        self.expect("LPAREN")
        body = self.parse_term()
        return SCoe(cell, body, span=(start, self.spans[self.expect("RPAREN")][1]))
