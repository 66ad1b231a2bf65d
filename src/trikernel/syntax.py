"""Surface syntax: lexer, position-annotated AST, parser and printer.

The grammar is ASCII-first with unicode aliases; see docs/grammar.ebnf.
Precedence, loosest to tightest:

    ->    function types (right associative; binders ``(x : A @ w) -> B``)
    *     pair types (right associative; binders ``(x : A) * B``)
    =     identity types (non-associative)
    \\/   interval join
    /\\   interval meet
    application (left associative)
    postfix ``^{cell}`` and ``. t`` on atoms

``(x : A)`` parses as an annotation atom and is reinterpreted as a binder
when an arrow or star follows, so no backtracking is needed.
"""

from __future__ import annotations

import re
from typing import Callable, NoReturn, Optional, TypeVar

from .diagnostics import Diagnostic, KernelError
from .modality import ModeError, TwoCell, Word, format_cell, format_word, parse_cell, parse_word
from .record import field, record

Span = tuple[int, int]
_T = TypeVar("_T")


@record
class Token:
    kind: str
    text: str
    span: Span


_PUNCT = [
    (":=", "DEFINE"), ("=>", "FATARROW"), ("->", "ARROW"),
    ("/\\", "MEET"), ("\\/", "JOIN"), ("=", "EQUALS"),
    ("(", "LPAREN"), (")", "RPAREN"), ("[", "LBRACKET"), ("]", "RBRACKET"),
    (",", "COMMA"), (":", "COLON"), ("*", "STAR"), ("^", "HAT"),
    (".", "DOT"), ("<", "LT"), (">", "GT"), ("|", "PIPE"), ("@", "AT"),
]

_UNICODE_ALIASES = {
    "λ": ("KEYWORD", "fun"),
    "∘": ("DOT", "."),
    "⟨": ("LT", "<"),
    "⟩": ("GT", ">"),
    "∧": ("MEET", "/\\"),
    "∨": ("JOIN", "\\/"),
    "→": ("ARROW", "->"),
}


def _parse_error(message: str, span: Span, file: str) -> NoReturn:
    raise KernelError(Diagnostic(file=file, code="E-PARSE", message=message, span=span))


# A word (a name or a keyword) may not start with a digit or with the alias
# `λ`.  `\w` and `\d` are `isalnum`-or-underscore and `isdecimal`.
WORD = re.compile(r"[^\W\dλ][\w']*")

# One master pattern, tried at each position.  The alternatives start with
# disjoint characters, so they are in order of frequency; only `fail-check`
# is also a word's prefix and comes before it, and `_PUNCT` keeps its
# longest-first order.  `\s` is `str.isspace`.  What the pattern does not
# match (`{...}`, unicode aliases, an unterminated string, a stray character)
# takes the hand-written path below.
_TOKEN = re.compile(
    r"(?P<SKIP>\s+|--[^\n]*)"
    r"|(?P<FAIL>fail-check(?!\w))"
    r"|(?P<WORD>" + WORD.pattern + ")"
    r"|(?P<PUNCT>" + "|".join(re.escape(lit) for lit, _ in _PUNCT) + r")"
    r"|(?P<NUMBER>\d+)"
    r'|"(?P<STRING>[^"]*)"'
)
_PUNCT_KIND = dict(_PUNCT)


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        if m is None:
            ch = text[i]
            if ch in _UNICODE_ALIASES:
                kind, canonical = _UNICODE_ALIASES[ch]
                tokens.append(Token(kind, canonical, (i, i + 1)))
                i += 1
                continue
            if ch == "{":
                depth, j = 1, i + 1
                while j < n and depth:
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                    j += 1
                if depth:
                    _parse_error("unterminated '{'", (i, n), file)
                tokens.append(Token("BRACED", text[i + 1 : j - 1], (i, j)))
                i = j
                continue
            if ch == '"':
                _parse_error("unterminated string literal", (i, n), file)
            _parse_error(f"unexpected character {ch!r}", (i, i + 1), file)
        kind, j = m.lastgroup, m.end()
        if kind == "SKIP":
            i = j
            continue
        lexeme = m.group(kind)
        if kind == "WORD":
            # `\w` also admits numeric characters that are not digits (`²`)
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                _parse_error(f"unexpected character {lexeme[0]!r}", (i, i + 1), file)
            kind = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
        elif kind == "PUNCT":
            kind = _PUNCT_KIND[lexeme]
        elif kind == "FAIL":
            kind = "KEYWORD"
        tokens.append(Token(kind, lexeme, (i, j)))
        i = j
    tokens.append(Token("EOF", "", (n, n)))
    return tokens


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@record
class STerm:
    span: Span = field((0, 0), compare=False, kw_only=True)


class SVar(STerm):
    name: str


class SUniv(STerm):
    level: int


class SPi(STerm):
    name: str
    word: Word
    dom: STerm
    cod: STerm


class SSigma(STerm):
    name: str
    dom: STerm
    cod: STerm


class SLam(STerm):
    name: str
    body: STerm


class SApp(STerm):
    fn: STerm
    arg: STerm


class SPair(STerm):
    fst: STerm
    snd: STerm


class SFst(STerm):
    arg: STerm


class SSnd(STerm):
    arg: STerm


class SEq(STerm):
    lhs: STerm
    rhs: STerm


class SRefl(STerm):
    pass


class SJ(STerm):
    motive: STerm
    base: STerm
    eq: STerm


class SNum(STerm):
    value: int


class SSucc(STerm):
    arg: STerm


class SMeet(STerm):
    lhs: STerm
    rhs: STerm


class SJoin(STerm):
    lhs: STerm
    rhs: STerm


class SConstT(STerm):
    name: str  # one of CONSTANTS


class SNatRec(STerm):
    motive: STerm
    zcase: STerm
    scase: STerm
    scrut: STerm


class SBoolRec(STerm):
    motive: STerm
    tcase: STerm
    fcase: STerm
    scrut: STerm


class SModify(STerm):
    word: Word
    body: STerm


class SMkMod(STerm):
    word: Word
    body: STerm


class SLetMod(STerm):
    word: Word
    name: str
    frame: Word  # outer annotation under which the value is eliminated
    scrut: STerm
    body: STerm


class SCellApp(STerm):
    arg: STerm
    cell: tuple[TwoCell, ...]  # factors, composed when elaborated


class SInst(STerm):
    arg: STerm
    index: STerm


class SCoe(STerm):
    cell: tuple[TwoCell, ...]
    arg: STerm


class SAnnot(STerm):
    term: STerm
    ty: STerm
    word: Word = ()


class SLift(STerm):
    arg: STerm


class SUp(STerm):
    arg: STerm


class SDown(STerm):
    arg: STerm


# The keyword formers, by how each is written: `kw postfix`, `kw(t, .., t)`
# with one argument per field, and a bare constant.
PREFIX = {"succ": SSucc, "fst": SFst, "snd": SSnd, "Lift": SLift, "up": SUp, "down": SDown}
CALLS = {"J": SJ, "natrec": SNatRec, "boolrec": SBoolRec}
CONSTANTS = ("Int", "Nat", "Bool", "zero", "true", "false")
_KEYWORD_ATOMS = {"U", "refl", "mod", "coe", *PREFIX, *CALLS, *CONSTANTS}
KEYWORDS = _KEYWORD_ATOMS | {"def", "axiom", "check", "fun", "let", "in"}


@record
class Decl:
    kind: str  # "def" | "axiom" | "check" | "fail-check"
    name: str
    ty: STerm
    body: Optional[STerm]
    expect_code: Optional[str] = None
    span: Span = field((0, 0), compare=False)


@record
class SurfaceModule:
    path: str
    decls: list[Decl]
    source: str = field("", compare=False)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The one precedence scale, loosest first, of the parser and the printer,
# and the level of each infix operator below `->`.
_PREC_ARROW, _PREC_SIGMA, _PREC_EQ, _PREC_JOIN, _PREC_MEET, _PREC_APP, _PREC_ATOM = range(7)
_INFIX = {"STAR": _PREC_SIGMA, "EQUALS": _PREC_EQ, "JOIN": _PREC_JOIN, "MEET": _PREC_MEET}


class Parser:
    def __init__(self, text: str, file: str = "<input>"):
        self.file = file
        self.text = text
        self.tokens = tokenize(text, file)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        # in range: `tokenize` ends with EOF, and `next` never moves past it
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind:
            _parse_error(
                f"expected {what or kind} but found {tok.text!r}", tok.span, self.file
            )
        return self.next()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "KEYWORD" or tok.text != word:
            _parse_error(f"expected {word!r} but found {tok.text!r}", tok.span, self.file)
        return self.next()

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.text == word

    def parse_word_tokens(self) -> Word:
        parts = []
        span = self.peek().span
        while self.peek().kind in ("IDENT", "NUMBER", "DOT"):
            parts.append(self.next().text)
        try:
            return parse_word("".join(parts) or "?")
        except ModeError as exc:
            _parse_error(exc.message, span, self.file)

    def braced(self, tok: Token, parse: Callable[[str], _T]) -> _T:
        """A braced word or 2-cell; its `ModeError` is an E-PARSE at `tok`."""
        try:
            return parse(tok.text)
        except ModeError as exc:
            _parse_error(exc.message, tok.span, self.file)

    # -- declarations -------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        decls: list[Decl] = []
        seen: set[str] = set()
        while self.peek().kind != "EOF":
            decl = self.parse_decl()
            if decl.kind in ("def", "axiom"):
                if decl.name in seen:
                    _parse_error(f"duplicate name {decl.name!r}", decl.span, self.file)
                seen.add(decl.name)
            decls.append(decl)
        return SurfaceModule(self.file, decls, self.text)

    def parse_decl(self) -> Decl:
        tok = self.peek()
        if self.at_kw("def"):
            start = self.next().span
            name = self.expect("IDENT", "a definition name")
            self.expect("COLON")
            ty = self.parse_term()
            self.expect("DEFINE", "':='")
            body = self.parse_term()
            return Decl("def", name.text, ty, body, span=(start[0], body.span[1]))
        if self.at_kw("axiom"):
            start = self.next().span
            name = self.expect("IDENT", "an axiom name")
            self.expect("COLON")
            ty = self.parse_term()
            return Decl("axiom", name.text, ty, None, span=(start[0], ty.span[1]))
        if self.at_kw("check"):
            start = self.next().span
            term = self.parse_term()
            self.expect("COLON")
            ty = self.parse_term()
            return Decl("check", "_", ty, term, span=(start[0], ty.span[1]))
        if self.at_kw("fail-check"):
            start = self.next().span
            code = self.expect("STRING", "an error code string")
            term = self.parse_term()
            self.expect("COLON")
            ty = self.parse_term()
            return Decl(
                "fail-check", "_", ty, term, expect_code=code.text,
                span=(start[0], ty.span[1]),
            )
        _parse_error(
            f"expected a declaration but found {tok.text!r}", tok.span, self.file
        )

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> STerm:
        if self.at_kw("fun"):
            return self.parse_lambda()
        if self.at_kw("let"):
            return self.parse_letmod()
        return self.parse_arrow()

    def parse_lambda(self) -> STerm:
        start = self.expect_kw("fun").span
        names = []
        while self.peek().kind == "IDENT":
            names.append(self.next().text)
        if not names:
            _parse_error("fun needs at least one binder", self.peek().span, self.file)
        self.expect("FATARROW", "'=>'")
        body = self.parse_term()
        out = body
        for name in reversed(names):
            out = SLam(name, out, span=(start[0], body.span[1]))
        return out

    def parse_letmod(self) -> STerm:
        start = self.expect_kw("let").span
        self.expect_kw("mod")
        word = self.braced(self.expect("BRACED", "a modality word"), parse_word)
        self.expect("LPAREN")
        name = self.expect("IDENT", "a variable name")
        self.expect("RPAREN")
        self.expect("EQUALS", "'='")
        frame: Word = ()
        if self.peek().kind == "LBRACKET":
            self.next()
            frame = self.parse_word_tokens()
            self.expect("RBRACKET")
        scrut = self.parse_term()
        self.expect_kw("in")
        body = self.parse_term()
        return SLetMod(word, name.text, frame, scrut, body, span=(start[0], body.span[1]))

    def _binder_names(self, term: STerm) -> Optional[list[str]]:
        names: list[str] = []
        cur = term
        while isinstance(cur, SApp):
            if not isinstance(cur.arg, SVar):
                return None
            names.append(cur.arg.name)
            cur = cur.fn
        if not isinstance(cur, SVar):
            return None
        names.append(cur.name)
        names.reverse()
        return names

    def parse_arrow(self) -> STerm:
        lhs = self.parse_infix()
        if self.peek().kind == "ARROW":
            self.next()
            cod = self.parse_term()
            if isinstance(lhs, SAnnot):
                names = self._binder_names(lhs.term)
                if names is not None:
                    out = cod
                    for name in reversed(names):
                        out = SPi(name, lhs.word, lhs.ty, out, span=(lhs.span[0], cod.span[1]))
                    return out
            if isinstance(lhs, SAnnot) and lhs.word:
                _parse_error("modal annotation on a non-binder", lhs.span, self.file)
            return SPi("_", (), lhs, cod, span=(lhs.span[0], cod.span[1]))
        if isinstance(lhs, SAnnot) and lhs.word:
            _parse_error("modal annotation outside a binder", lhs.span, self.file)
        return lhs

    def parse_infix(self, floor: int = _PREC_SIGMA) -> STerm:
        """The operators of `_INFIX` that bind at least as tight as `floor`.

        `*` is right associative, `=` non-associative (a second `=` is left to
        the caller), and the lattice operators are left associative.
        """
        lhs = self.parse_app()
        ceiling = _PREC_MEET
        while floor <= (prec := _INFIX.get(self.peek().kind, 0)) <= ceiling:
            self.next()
            rhs = self.parse_infix(prec if prec == _PREC_SIGMA else prec + 1)
            span = (lhs.span[0], rhs.span[1])
            if prec == _PREC_SIGMA:  # `*` took every operator after it
                if isinstance(lhs, SAnnot) and not lhs.word:
                    names = self._binder_names(lhs.term)
                    if names is not None:
                        out = rhs
                        for name in reversed(names):
                            out = SSigma(name, lhs.ty, out, span=span)
                        return out
                return SSigma("_", lhs, rhs, span=span)
            if prec == _PREC_EQ:  # only `*` may follow an equation
                lhs, ceiling = SEq(lhs, rhs, span=span), _PREC_SIGMA
            else:
                lhs = (SJoin if prec == _PREC_JOIN else SMeet)(lhs, rhs, span=span)
        return lhs

    def at_atom(self) -> bool:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            return tok.text in _KEYWORD_ATOMS
        return tok.kind in ("IDENT", "NUMBER", "LPAREN", "LT")

    def parse_app(self) -> STerm:
        head = self.parse_postfix()
        while self.at_atom():
            arg = self.parse_postfix()
            head = SApp(head, arg, span=(head.span[0], arg.span[1]))
        return head

    def parse_postfix(self) -> STerm:
        term = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "HAT":
                self.next()
                braced = self.expect("BRACED", "a 2-cell in braces")
                cell = self.braced(braced, parse_cell)
                term = SCellApp(term, cell, span=(term.span[0], braced.span[1]))
            elif tok.kind == "DOT":
                self.next()
                idx = self.parse_atom()
                term = SInst(term, idx, span=(term.span[0], idx.span[1]))
            else:
                return term

    def parse_atom(self) -> STerm:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            return SVar(tok.text, span=tok.span)
        if tok.kind == "NUMBER":
            self.next()
            return SNum(int(tok.text), span=tok.span)
        if tok.kind == "LT":
            self.next()
            word = self.parse_word_tokens()
            self.expect("PIPE", "'|' after the modality word")
            body = self.parse_term()
            end = self.expect("GT", "'>' closing the modal type")
            return SModify(word, body, span=(tok.span[0], end.span[1]))
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_term()
            nxt = self.peek()
            if nxt.kind == "COMMA":
                self.next()
                second = self.parse_term()
                end = self.expect("RPAREN")
                return SPair(inner, second, span=(tok.span[0], end.span[1]))
            if nxt.kind == "COLON":
                self.next()
                ty = self.parse_term()
                word: Word = ()
                if self.peek().kind == "AT":
                    self.next()
                    word = self.parse_word_tokens()
                end = self.expect("RPAREN")
                return SAnnot(inner, ty, word, span=(tok.span[0], end.span[1]))
            end = self.expect("RPAREN")
            inner.span = (tok.span[0], end.span[1])
            return inner
        if tok.kind == "KEYWORD" and tok.text in _KEYWORD_ATOMS:
            return self.parse_keyword_atom()
        _parse_error(f"expected a term but found {tok.text!r}", tok.span, self.file)

    def parse_keyword_atom(self) -> STerm:
        tok = self.next()
        kw, start = tok.text, tok.span[0]
        if kw in CONSTANTS:
            return SConstT(kw, span=tok.span)
        if kw in PREFIX:
            arg = self.parse_postfix()
            return PREFIX[kw](arg, span=(start, arg.span[1]))
        if kw in CALLS:
            self.expect("LPAREN", f"'(' after {kw}")
            args = [self.parse_term()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term())
            end = self.expect("RPAREN")
            if len(args) != (count := len(CALLS[kw].__match_args__)):
                _parse_error(f"{kw} takes {count} arguments, got {len(args)}", end.span, self.file)
            return CALLS[kw](*args, span=(start, end.span[1]))
        if kw == "U":
            num = self.expect("NUMBER", "a universe level")
            return SUniv(int(num.text), span=(start, num.span[1]))
        if kw == "refl":
            return SRefl(span=tok.span)
        if kw == "mod":
            braced = self.expect("BRACED", "a modality word")
            word = self.braced(braced, parse_word)
            self.expect("LPAREN")
            body = self.parse_term()
            end = self.expect("RPAREN")
            return SMkMod(word, body, span=(start, end.span[1]))
        braced = self.expect("BRACED", "a 2-cell")  # the one keyword atom left: `coe`
        cell = self.braced(braced, parse_cell)
        self.expect("LPAREN")
        body = self.parse_term()
        end = self.expect("RPAREN")
        return SCoe(cell, body, span=(start, end.span[1]))


def parse_module(text: str, file: str = "<input>") -> SurfaceModule:
    return Parser(text, file).parse_module()


def parse_term(text: str, file: str = "<input>") -> STerm:
    parser = Parser(text, file)
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "EOF":
        _parse_error(f"trailing input {tok.text!r}", tok.span, file)
    return term


# ---------------------------------------------------------------------------
# Printer (inverse of the parser up to spans)
# ---------------------------------------------------------------------------

# The keyword of each prefix and call former.
_KEYWORD_OF = {cls: kw for table in (PREFIX, CALLS) for kw, cls in table.items()}


def print_term(t: STerm, prec: int = 0) -> str:
    def par(s: str, inner: int) -> str:
        return f"({s})" if inner < prec else s

    kw = _KEYWORD_OF.get(type(t))
    if kw in PREFIX:
        return par(f"{kw} {print_term(t.arg, _PREC_ATOM)}", _PREC_APP)
    if kw in CALLS:
        return f"{kw}({', '.join(print_term(getattr(t, f)) for f in t.__match_args__)})"
    match t:
        case SVar(name):
            return name
        case SUniv(level):
            return par(f"U {level}", _PREC_APP)
        case SPi(name, word, dom, cod):
            if name == "_" and not word:
                body = f"{print_term(dom, _PREC_SIGMA)} -> {print_term(cod, _PREC_ARROW)}"
            else:
                ann = f" @ {format_word(word)}" if word else ""
                body = f"({name} : {print_term(dom)}{ann}) -> {print_term(cod, _PREC_ARROW)}"
            return par(body, _PREC_ARROW)
        case SSigma(name, dom, cod):
            if name == "_":
                body = f"{print_term(dom, _PREC_EQ)} * {print_term(cod, _PREC_SIGMA)}"
            else:
                body = f"({name} : {print_term(dom)}) * {print_term(cod, _PREC_SIGMA)}"
            return par(body, _PREC_SIGMA)
        case SLam(name, body):
            names = [name]
            while isinstance(body, SLam):
                names.append(body.name)
                body = body.body
            return par(f"fun {' '.join(names)} => {print_term(body)}", _PREC_ARROW)
        case SApp(fn, arg):
            return par(
                f"{print_term(fn, _PREC_APP)} {print_term(arg, _PREC_ATOM)}", _PREC_APP
            )
        case SPair(a, b):
            return f"({print_term(a)}, {print_term(b)})"
        case SEq(lhs, rhs):
            return par(
                f"{print_term(lhs, _PREC_JOIN)} = {print_term(rhs, _PREC_JOIN)}", _PREC_EQ
            )
        case SRefl():
            return "refl"
        case SNum(value):
            return str(value)
        case SMeet(lhs, rhs):
            return par(
                f"{print_term(lhs, _PREC_APP)} /\\ {print_term(rhs, _PREC_APP)}", _PREC_MEET
            )
        case SJoin(lhs, rhs):
            return par(
                f"{print_term(lhs, _PREC_MEET)} \\/ {print_term(rhs, _PREC_MEET)}",
                _PREC_JOIN,
            )
        case SConstT(name):
            return name
        case SModify(word, body):
            return f"<{format_word(word)}| {print_term(body)}>"
        case SMkMod(word, body):
            return f"mod{{{format_word(word)}}}({print_term(body)})"
        case SLetMod(word, name, frame, scrut, body):
            fr = f"[{format_word(frame)}]" if frame else ""
            return par(
                f"let mod{{{format_word(word)}}}({name}) ={fr} "
                f"{print_term(scrut)} in {print_term(body)}",
                _PREC_ARROW,
            )
        case SCellApp(arg, cell):
            return par(f"{print_term(arg, _PREC_ATOM)}^{{{format_cell(cell)}}}", _PREC_ATOM)
        case SInst(arg, index):
            # the index is an atom: a postfix form there is parenthesized
            return par(
                f"{print_term(arg, _PREC_ATOM)} . {print_term(index, _PREC_ATOM + 1)}",
                _PREC_ATOM,
            )
        case SCoe(cell, arg):
            return f"coe{{{format_cell(cell)}}}({print_term(arg)})"
        case SAnnot(term, ty, word):
            ann = f" @ {format_word(word)}" if word else ""
            return f"({print_term(term)} : {print_term(ty)}{ann})"
    raise TypeError(f"cannot print {t!r}")


def print_decl(d: Decl) -> str:
    if d.kind == "def":
        return f"def {d.name} : {print_term(d.ty)} := {print_term(d.body)}"
    if d.kind == "axiom":
        return f"axiom {d.name} : {print_term(d.ty)}"
    if d.kind == "check":
        return f"check {print_term(d.body)} : {print_term(d.ty)}"
    return f'fail-check "{d.expect_code}" {print_term(d.body)} : {print_term(d.ty)}'
