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
when an arrow or star follows (``((x : A))`` is not), so nothing backtracks.
One Pratt loop, `Parser.parse_term(floor)`, reads every level of this
scale from one table of token levels (`_OPERATORS`); an argument, a prefix
operand and each operand of an operator is a recursive call at a tighter
floor.  The parser reads the lexer's token lists by index; AST nodes are
mutable records whose equality ignores spans.  The keyword formers' three
tables give the keyword set, the parser's keyword atoms and the printer's
cases.  Braced words and 2-cells are parsed by `modality`.
"""

from __future__ import annotations

import re
from typing import Callable, NoReturn, Optional, TypeVar

from .diagnostics import Diagnostic, KernelError
from .modality import ModeError, TwoCell, Word, format_cell, format_word, parse_cell, parse_word
from .record import field, record

Span = tuple[int, int]
_T = TypeVar("_T")


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

# One master pattern: blanks and comments, then one token, whose group is
# the entry of `_GROUP_KINDS` at its number.  `fail-check` comes before the
# word it starts with; `_PUNCT` is longest first.  `\s` is `str.isspace`.
# OTHER takes a character for the hand-written path below (`{...}`, a
# unicode alias, an unterminated string, a stray one): with the end, some
# group always matches, so the blanks are never backtracked into.
_TOKEN = re.compile(
    r"(?:\s+|--[^\n]*)*"
    r"(?:(fail-check(?!\w))"
    r"|(" + WORD.pattern + ")"
    r"|(" + "|".join(re.escape(lit) for lit, _ in _PUNCT) + r")"
    r"|(\d+)"
    r'|("[^"]*")'
    r"|(\Z)|(.))"
)
_GROUP_KINDS = (None, "KEYWORD", "WORD", "PUNCT", "NUMBER", "STRING", "EOF", "OTHER")
_PUNCT_KIND = dict(_PUNCT)

# The largest numeral the parser accepts, as a `Nat` literal or a universe
# level.  A literal elaborates to a chain of that many `Suc`, about 100 bytes
# each, and 10^6 of them check in about a second.
MAX_NUMERAL = 10**6
_NUMERAL_DIGITS = len(str(MAX_NUMERAL))


class Tokens:
    """A token stream as parallel lists, EOF last; perfbench's tracer counts
    tokens by its length."""

    def __init__(self) -> None:
        self.kinds, self.texts, self.spans = [], [], []  # str, str, Span

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(text: str, file: str = "<input>") -> Tokens:
    tokens = Tokens()
    kinds, texts, spans = tokens.kinds, tokens.texts, tokens.spans
    i, n = 0, len(text)
    while True:  # one pass, restarted after each `{...}`
        for m in _TOKEN.finditer(text, i):
            k = m.lastindex
            kind, lexeme, span = _GROUP_KINDS[k], m[k], m.span(k)
            if kind == "WORD":
                # `\w` also admits numeric characters that are not digits (`²`)
                if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                    span = (span[0], span[0] + 1)
                    _parse_error(f"unexpected character {lexeme[0]!r}", span, file)
                kind = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
            elif kind == "PUNCT":
                kind = _PUNCT_KIND[lexeme]
            elif kind == "STRING":
                lexeme = lexeme[1:-1]
            elif kind == "OTHER":
                if lexeme in _UNICODE_ALIASES:
                    kind, lexeme = _UNICODE_ALIASES[lexeme]
                elif lexeme == "{":
                    i, depth, j = span[0], 1, span[1]
                    while j < n and depth:
                        if text[j] == "{":
                            depth += 1
                        elif text[j] == "}":
                            depth -= 1
                        j += 1
                    if depth:
                        _parse_error("unterminated '{'", (i, n), file)
                    kinds.append("BRACED")
                    texts.append(text[i + 1 : j - 1])
                    spans.append((i, j))
                    i = j
                    break
                elif lexeme == '"':
                    _parse_error("unterminated string literal", (span[0], n), file)
                else:
                    _parse_error(f"unexpected character {lexeme!r}", span, file)
            kinds.append(kind)
            texts.append(lexeme)
            spans.append(span)
            if kind == "EOF":  # the end, after any blanks; a second, empty match may follow
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
# and the level of each token that continues a term: an operator, or the
# start of an argument (a keyword only if it is one of `_KEYWORD_ATOMS`).
_PREC_ARROW, _PREC_SIGMA, _PREC_EQ, _PREC_JOIN, _PREC_MEET, _PREC_APP, _PREC_ATOM = range(7)
_OPERATORS = {
    "ARROW": _PREC_ARROW, "STAR": _PREC_SIGMA, "EQUALS": _PREC_EQ, "JOIN": _PREC_JOIN,
    "MEET": _PREC_MEET, "HAT": _PREC_ATOM, "DOT": _PREC_ATOM,
    **dict.fromkeys(("IDENT", "NUMBER", "LPAREN", "LT", "KEYWORD"), _PREC_APP),
}


class Parser:
    def __init__(self, text: str, file: str = "<input>"):
        self.file = file
        self.text = text
        tokens = tokenize(text, file)
        self.kinds, self.texts, self.spans = tokens.kinds, tokens.texts, tokens.spans
        self.pos = 0
        self.wrapped: Optional[STerm] = None  # the last `((x : A))`, which binds nothing

    # -- token helpers ------------------------------------------------------

    def expect(self, kind: str, what: str = "") -> int:
        """Consume the current token, which must be of `kind`; its position."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {what or kind} but found {self.texts[pos]!r}")
        self.pos = pos + 1
        return pos

    def expect_kw(self, word: str) -> int:
        if self.texts[self.pos] != word:
            self.fail(f"expected {word!r} but found {self.texts[self.pos]!r}")
        return self.expect("KEYWORD", repr(word))

    def fail(self, message: str) -> NoReturn:
        """An E-PARSE at the current token."""
        _parse_error(message, self.spans[self.pos], self.file)

    def numeral(self, pos: int) -> int:
        """The value of the NUMBER token at `pos`, an E-PARSE there if it is
        over `MAX_NUMERAL`.  Only its last digits are converted as a number,
        so a long token costs time linear in its length."""
        text = self.texts[pos]
        head, tail = text[:-_NUMERAL_DIGITS], text[-_NUMERAL_DIGITS:]
        if any(int(digit) for digit in head) or int(tail) > MAX_NUMERAL:
            _parse_error(f"numeral larger than {MAX_NUMERAL}, the largest accepted",
                         self.spans[pos], self.file)
        return int(tail)

    def parse_word_tokens(self) -> Word:
        start = self.pos
        while self.kinds[self.pos] in ("IDENT", "NUMBER", "DOT"):
            self.pos += 1
        try:
            return parse_word("".join(self.texts[start : self.pos]) or "?")
        except ModeError as exc:
            _parse_error(exc.message, self.spans[start], self.file)

    def braced(self, what: str, parse: Callable[[str], _T]) -> _T:
        """Consume a braced word or 2-cell; its `ModeError` is an E-PARSE."""
        pos = self.expect("BRACED", what)
        try:
            return parse(self.texts[pos])
        except ModeError as exc:
            _parse_error(exc.message, self.spans[pos], self.file)

    # -- declarations -------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        decls: list[Decl] = []
        seen: set[str] = set()
        while self.kinds[self.pos] != "EOF":
            decl = self.parse_decl()
            if decl.kind in ("def", "axiom"):
                if decl.name in seen:
                    _parse_error(f"duplicate name {decl.name!r}", decl.span, self.file)
                seen.add(decl.name)
            decls.append(decl)
        return SurfaceModule(self.file, decls, self.text)

    def parse_decl(self) -> Decl:
        pos = self.pos
        kw = self.texts[pos] if self.kinds[pos] == "KEYWORD" else ""
        if kw not in ("def", "axiom", "check", "fail-check"):
            self.fail(f"expected a declaration but found {self.texts[pos]!r}")
        start, self.pos = self.spans[pos][0], pos + 1
        name, code, body = "_", None, None
        if kw == "def" or kw == "axiom":
            what = "a definition name" if kw == "def" else "an axiom name"
            name = self.texts[self.expect("IDENT", what)]
        else:
            if kw == "fail-check":
                code = self.texts[self.expect("STRING", "an error code string")]
            body = self.parse_term()
        self.expect("COLON")
        ty = last = self.parse_term()
        if kw == "def":
            self.expect("DEFINE", "':='")
            body = last = self.parse_term()
        return Decl(kw, name, ty, body, expect_code=code, span=(start, last.span[1]))

    # -- terms --------------------------------------------------------------

    def parse_term(self, floor: int = _PREC_ARROW) -> STerm:
        """The longest term whose operators all bind at least as tight as `floor`.

        One Pratt loop reads every operator of `_OPERATORS` and application.
        An operator applies while `floor <= level <= ceiling`: the ceiling
        starts at `_PREC_ATOM`, is `_PREC_SIGMA` after `=` (only `*` or `->`
        may follow an equation), `_PREC_ARROW` after the right-associative
        `*` and `->`, and the operator's own level after a left-associative
        one.  `fun` and `let` start only a term at `_PREC_ARROW`.
        """
        kinds, texts = self.kinds, self.texts
        if floor == _PREC_ARROW and kinds[self.pos] == "KEYWORD":
            kw = texts[self.pos]
            if kw == "fun":
                return self.parse_lambda()
            if kw == "let":
                return self.parse_letmod()
        lhs, ceiling = self.parse_atom(), _PREC_ATOM
        while floor <= (level := _OPERATORS.get(kind := kinds[self.pos], -1)) <= ceiling and (
                kind != "KEYWORD" or texts[self.pos] in _KEYWORD_ATOMS):
            if level == _PREC_APP:  # the token starts an argument
                arg = self.parse_term(_PREC_ATOM)
                lhs, ceiling = SApp(lhs, arg, span=(lhs.span[0], arg.span[1])), level
                continue
            self.pos += 1
            if kind == "HAT":
                cell = self.braced("a 2-cell in braces", parse_cell)
                lhs = SCellApp(lhs, cell, span=(lhs.span[0], self.spans[self.pos - 1][1]))
            elif kind == "DOT":
                idx = self.parse_atom()
                lhs = SInst(lhs, idx, span=(lhs.span[0], idx.span[1]))
            elif level <= _PREC_SIGMA:  # `->` and `*`, right associative
                names = self._binder(lhs)
                rhs = self.parse_term(level)
                span, arrow = (lhs.span[0], rhs.span[1]), level == _PREC_ARROW
                if names is not None and (arrow or not lhs.word):
                    out = rhs
                    for name in reversed(names):
                        out = (SPi(name, lhs.word, lhs.ty, out, span=span) if arrow
                               else SSigma(name, lhs.ty, out, span=span))
                    lhs = out
                elif not arrow:
                    lhs = SSigma("_", lhs, rhs, span=span)
                elif type(lhs) is SAnnot and lhs.word:
                    _parse_error("modal annotation on a non-binder", lhs.span, self.file)
                else:
                    lhs = SPi("_", (), lhs, rhs, span=span)
                ceiling = _PREC_ARROW
            else:  # `=`, `\/` and `/\`: the right operand binds tighter
                rhs = self.parse_term(level + 1)
                span = (lhs.span[0], rhs.span[1])
                if level == _PREC_EQ:
                    lhs, ceiling = SEq(lhs, rhs, span=span), _PREC_SIGMA
                else:
                    lhs = (SJoin if level == _PREC_JOIN else SMeet)(lhs, rhs, span=span)
                    ceiling = level
        if floor == _PREC_ARROW and type(lhs) is SAnnot and lhs.word:
            _parse_error("modal annotation outside a binder", lhs.span, self.file)
        return lhs

    def parse_lambda(self) -> STerm:
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

    def parse_letmod(self) -> STerm:
        start = self.spans[self.expect_kw("let")][0]
        self.expect_kw("mod")
        word = self.braced("a modality word", parse_word)
        self.expect("LPAREN")
        name = self.texts[self.expect("IDENT", "a variable name")]
        self.expect("RPAREN")
        self.expect("EQUALS", "'='")
        frame: Word = ()
        if self.kinds[self.pos] == "LBRACKET":
            self.pos += 1
            frame = self.parse_word_tokens()
            self.expect("RBRACKET")
        scrut = self.parse_term()
        self.expect_kw("in")
        body = self.parse_term()
        return SLetMod(word, name, frame, scrut, body, span=(start, body.span[1]))

    def _binder(self, lhs: STerm) -> Optional[list[str]]:
        """The names that `lhs` binds before `->` or `*`: `(x y : A)`, not `((x y : A))`."""
        if type(lhs) is not SAnnot or lhs is self.wrapped:
            return None
        names: list[str] = []
        cur = lhs.term
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

    def parse_atom(self) -> STerm:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "IDENT":
            self.pos = pos + 1
            return SVar(self.texts[pos], span=self.spans[pos])
        start = self.spans[pos][0]
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
                word: Word = ()
                if self.kinds[self.pos] == "AT":
                    self.pos += 1
                    word = self.parse_word_tokens()
                end = self.spans[self.expect("RPAREN")][1]
                return SAnnot(inner, ty, word, span=(start, end))
            inner.span = (start, self.spans[self.expect("RPAREN")][1])
            if type(inner) is SAnnot:
                self.wrapped = inner
            return inner
        if kind == "NUMBER":
            self.pos = pos + 1
            return SNum(self.numeral(pos), span=self.spans[pos])
        if kind == "KEYWORD" and self.texts[pos] in _KEYWORD_ATOMS:
            return self.parse_keyword_atom()
        if kind == "LT":
            self.pos = pos + 1
            word = self.parse_word_tokens()
            self.expect("PIPE", "'|' after the modality word")
            body = self.parse_term()
            end = self.spans[self.expect("GT", "'>' closing the modal type")][1]
            return SModify(word, body, span=(start, end))
        self.fail(f"expected a term but found {self.texts[pos]!r}")

    def parse_keyword_atom(self) -> STerm:
        pos = self.expect("KEYWORD")
        kw, span, start = self.texts[pos], self.spans[pos], self.spans[pos][0]
        if kw in CONSTANTS:
            return SConstT(kw, span=span)
        if kw in PREFIX:
            arg = self.parse_term(_PREC_ATOM)
            return PREFIX[kw](arg, span=(start, arg.span[1]))
        if kw in CALLS:
            self.expect("LPAREN", f"'(' after {kw}")
            args = [self.parse_term()]
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                args.append(self.parse_term())
            end = self.expect("RPAREN")
            if len(args) != (count := len(CALLS[kw].__match_args__)):
                _parse_error(f"{kw} takes {count} arguments, got {len(args)}",
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


def parse_module(text: str, file: str = "<input>") -> SurfaceModule:
    return Parser(text, file).parse_module()


def parse_term(text: str, file: str = "<input>") -> STerm:
    parser = Parser(text, file)
    term = parser.parse_term()
    if parser.kinds[parser.pos] != "EOF":
        parser.fail(f"trailing input {parser.texts[parser.pos]!r}")
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
                body = f"{_anonymous(dom, _PREC_SIGMA)} -> {print_term(cod, _PREC_ARROW)}"
            else:
                ann = f" @ {format_word(word)}" if word else ""
                body = f"({name} : {print_term(dom)}{ann}) -> {print_term(cod, _PREC_ARROW)}"
            return par(body, _PREC_ARROW)
        case SSigma(name, dom, cod):
            if name == "_":
                body = f"{_anonymous(dom, _PREC_EQ)} * {print_term(cod, _PREC_SIGMA)}"
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
        case SMeet() | SJoin():
            # each operand binds tighter than the operator, so every link of
            # a right-nested spine of one former is parenthesized; in a loop
            former = type(t)
            own, sep = (_PREC_MEET, " /\\ ") if former is SMeet else (_PREC_JOIN, " \\/ ")
            parts = []
            while type(t) is former:
                parts.append(print_term(t.lhs, own + 1))
                t = t.rhs
            parts.append(print_term(t, own + 1))
            opened = "".join(part + sep + "(" for part in parts[:-2])
            return par(opened + sep.join(parts[-2:]) + ")" * (len(parts) - 2), own)
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


def _anonymous(dom: STerm, prec: int) -> str:
    # the domain of a `->` or `*` that binds nothing: `((x : A))`, not a binder
    return f"({print_term(dom)})" if type(dom) is SAnnot else print_term(dom, prec)

