"""Parser/printer tests: examples, roundtrip property, totality."""

import functools
import glob
import os
import random
import re
import string
import sys

import pytest

from trikernel.diagnostics import KernelError, LineMap
from trikernel import corpus, modality, syntax
from trikernel.modality import generator_cell, identity_cell
from trikernel.prelude import read_prelude
from trikernel.record import fields
from trikernel.syntax import (
    Decl,
    SAnnot,
    SApp,
    SBoolRec,
    SCellApp,
    SCoe,
    SConstT,
    SDown,
    SEq,
    SFst,
    SInst,
    SJ,
    SJoin,
    SLam,
    SLetMod,
    SLift,
    SMeet,
    SMkMod,
    SModify,
    SNatRec,
    SNum,
    SPair,
    SPi,
    SRefl,
    SSigma,
    SSnd,
    SSucc,
    SUniv,
    SUp,
    SVar,
    parse_module,
    parse_term,
    print_term,
)

from support import LevelParser, print_decl


def test_parse_idfun_def():
    mod = parse_module("def idfun : (A : U 0) -> A -> A := fun A a => a")
    assert len(mod.decls) == 1
    d = mod.decls[0]
    assert d.kind == "def" and d.name == "idfun"
    assert d.ty == SPi("A", (), SUniv(0), SPi("_", (), SVar("A"), SVar("A")))
    assert d.body == SLam("A", SLam("a", SVar("a")))


def test_parse_error_position():
    with pytest.raises(KernelError) as err:
        parse_module("def bad : := x")
    diag = err.value.diagnostic
    assert diag.code == "E-PARSE"
    assert diag.span[0] == len("def bad : ")


def test_multi_binder_groups():
    t = parse_term("(x y : Int) -> U 0")
    assert t == SPi("x", (), SConstT("Int"), SPi("y", (), SConstT("Int"), SUniv(0)))
    t = parse_term("(x : Int) * Bool")
    assert t == SSigma("x", SConstT("Int"), SConstT("Bool"))
    t = parse_term("(A : U 0 @ g) -> A")
    assert t == SPi("A", ("g",), SUniv(0), SVar("A"))


def test_modal_forms():
    t = parse_term("<p| Int>")
    assert t == SModify(("p",), SConstT("Int"))
    assert print_term(t) == "<p| Int>"
    t = parse_term("mod{g.s}(x)")
    assert t == SMkMod(("g", "s"), SVar("x"))
    t = parse_term("let mod{g}(x) = y in x")
    assert t == SLetMod(("g",), "x", (), SVar("y"), SVar("x"))
    t = parse_term("let mod{s}(z) =[g] y in z")
    assert t == SLetMod(("s",), "z", ("g",), SVar("y"), SVar("z"))


def test_cell_application():
    t = parse_term("x^{eta_pa}")
    assert t == SCellApp(SVar("x"), (generator_cell("eta_pa"),))
    t = parse_term("(A^{eta_pa}) . i")
    assert t == SInst(
        SCellApp(SVar("A"), (generator_cell("eta_pa"),)), SVar("i")
    )
    t = parse_term("x^{g*eta_gs*s ; eps0}")
    assert t == SCellApp(
        SVar("x"),
        (generator_cell("eta_gs", ("g",), ("s",)), generator_cell("eps0")),
    )


def test_operator_precedence():
    t = parse_term("i /\\ j = i")
    assert t == SEq(SMeet(SVar("i"), SVar("j")), SVar("i"))
    t = parse_term("i \\/ j /\\ k")
    assert t == SJoin(SVar("i"), SMeet(SVar("j"), SVar("k")))
    t = parse_term("A * B -> C")
    assert t == SPi("_", (), SSigma("_", SVar("A"), SVar("B")), SVar("C"))
    t = parse_term("f 0 = a")
    assert t == SEq(SApp(SVar("f"), SNum(0)), SVar("a"))


def test_unicode_aliases():
    assert parse_term("λ x => x") == parse_term("fun x => x")
    assert parse_term("⟨g| A⟩") == parse_term("<g| A>")
    assert parse_term("i ∧ j") == parse_term("i /\\ j")
    assert parse_term("A → B") == parse_term("A -> B")


def test_print_parse_examples_roundtrip():
    samples = [
        "fun A a => a",
        "<p| Int>",
        "let mod{g}(x) = mod{g}(a) in f x",
        "(A : U 0) -> (a : A) -> (b : A) -> a = b -> U 1",
        "(f : Int -> A) * ((f 0 = a) * (f 1 = b))",
        "coe{eps0}(t)",
        "natrec(fun n => U 0, Int, fun n X => Int * X, succ 2)",
        "J(fun b p => P b, d, q)",
        "x^{eta_pa ; a.p*eta_gs}",
        "mod{o}(i /\\ j)",
        "boolrec(fun b => U 0, Int, Bool, true)",
        "(x : Lift A) -> down x = up y",
        "let mod{s}(z) =[g] y in mod{g.s}(z)",
        "a . (b . c)",  # an instantiation index in postfix form
        "a . (b^{eps0})",
    ]
    for text in samples:
        first = parse_term(text)
        assert parse_term(print_term(first)) == first, text


def test_cell_whisker_words_print_in_normal_form():
    # a parsed cell holds the kernel's 2-cells, whose words are normalised
    for text, printed in [("x^{g.g*eps0}", "x^{g*eps0}"), ("coe{id(s.s)}(t)", "coe{id(s)}(t)")]:
        assert print_term(parse_term(text)) == printed
        assert parse_term(printed) == parse_term(text)


def _random_name(rng):
    return rng.choice(["x", "y", "z", "f", "A", "B", "P"])


def _random_word(rng):
    return tuple(rng.choice("gsopa") for _ in range(rng.randint(0, 2)))


def _random_cell(rng):
    factors = []
    for _ in range(rng.randint(1, 2)):
        gen = rng.choice(["eps_gs", "eta_gs", "eps_pa", "eta_pa", "eps0", "id"])
        if gen == "id":
            factors.append(identity_cell(_random_word(rng)))
        else:
            factors.append(generator_cell(gen, _random_word(rng), _random_word(rng)))
    return tuple(factors)


def _random_ast(rng, depth, every_former=False):
    """A random surface term; `every_former` adds the formers that the first
    round-trip test leaves out, without changing its random stream."""
    if depth == 0:
        return rng.choice(
            [
                SVar(_random_name(rng)),
                SUniv(rng.randint(0, 2)),
                SNum(rng.randint(0, 3)),
                SConstT(rng.choice(["Int", "Nat", "Bool", "zero", "true", "false"])),
                SRefl(),
            ]
        )
    sub = lambda: _random_ast(rng, depth - 1, every_former)
    choice = rng.randrange(26 if every_former else 20)
    if choice == 0:
        return SPi(_random_name(rng), _random_word(rng), sub(), sub())
    if choice == 1:
        return SPi("_", (), sub(), sub())
    if choice == 2:
        return SSigma(_random_name(rng), sub(), sub())
    if choice == 3:
        return SSigma("_", sub(), sub())
    if choice == 4:
        return SLam(_random_name(rng), sub())
    if choice == 5:
        return SApp(sub(), sub())
    if choice == 6:
        return SPair(sub(), sub())
    if choice == 7:
        return SFst(sub())
    if choice == 8:
        return SSnd(sub())
    if choice == 9:
        return SEq(sub(), sub())
    if choice == 10:
        return SJ(sub(), sub(), sub())
    if choice == 11:
        return SMeet(sub(), sub())
    if choice == 12:
        return SJoin(sub(), sub())
    if choice == 13:
        return SNatRec(sub(), sub(), sub(), sub())
    if choice == 14:
        return SModify(_random_word(rng), sub())
    if choice == 15:
        return SMkMod(_random_word(rng), sub())
    if choice == 16:
        return SLetMod(_random_word(rng), _random_name(rng), _random_word(rng), sub(), sub())
    if choice == 17:
        return SCellApp(sub(), _random_cell(rng))
    if choice == 18:
        return SSucc(sub())
    if choice == 19:
        return SLift(sub())
    if choice == 20:
        return SBoolRec(sub(), sub(), sub(), sub())
    if choice == 21:
        return SUp(sub())
    if choice == 22:
        return SDown(sub())
    if choice == 23:
        return SInst(sub(), sub())
    if choice == 24:
        return SCoe(_random_cell(rng), sub())
    return SAnnot(sub(), sub())


def test_parenthesised_annotation_is_not_a_binder():
    x, y, a, b = SVar("x"), SVar("y"), SVar("A"), SVar("B")
    assert parse_term("(x y : A) -> B") == SPi("x", (), a, SPi("y", (), a, b))
    assert parse_term("(x : A) * B") == SSigma("x", a, b)
    annotated = [SAnnot(x, a), SAnnot(SApp(x, y), a)]
    for dom in annotated:
        for ast in (SPi("_", (), dom, b), SSigma("_", dom, b)):
            printed = print_term(ast)
            assert printed.startswith("((") and parse_term(printed) == ast, printed
    assert parse_term("(((x : A))) -> B") == SPi("_", (), SAnnot(x, a), b)
    assert parse_term("((x : A)) -> (y : A) -> B") == SPi("_", (), SAnnot(x, a), SPi("y", (), a, b))
    with pytest.raises(KernelError, match="modal annotation outside a binder"):
        parse_term("((x : A @ g)) -> B")


def test_annotated_head_that_is_not_a_variable_spine_is_not_a_binder():
    x, a, b = SVar("x"), SVar("A"), SVar("B")
    assert parse_term("(f (g x) : A) -> B") == SPi(
        "_", (), SAnnot(SApp(SVar("f"), SApp(SVar("g"), x)), a), b)
    assert parse_term("(zero x : A) -> B") == SPi(
        "_", (), SAnnot(SApp(SConstT("zero"), x), a), b)


def test_roundtrip_random_asts():
    rng = random.Random(1187)
    for _ in range(400):
        ast = _random_ast(rng, rng.randint(1, 8))
        printed = print_term(ast)
        reparsed = parse_term(printed)
        assert reparsed == ast, printed


def test_roundtrip_random_asts_of_every_former():
    rng = random.Random(2407)
    for _ in range(3000):
        ast = _random_ast(rng, rng.randint(1, 8), every_former=True)
        printed = print_term(ast)
        assert parse_term(printed) == ast, printed


def test_parser_totality_fuzz():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + "(){}[]<>|^.*:=-_/\\ \n\"@,;'"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            parse_module(text)
        except KernelError as err:
            assert err.diagnostic.code == "E-PARSE"


def test_duplicate_names_rejected():
    with pytest.raises(KernelError):
        parse_module("axiom a : U 0\naxiom a : U 0")


def test_check_and_fail_check_pragmas():
    mod = parse_module(
        'check refl : 0 = 0\n'
        'fail-check "E-CONV" refl : 0 = 1\n'
    )
    assert mod.decls[0].kind == "check"
    assert mod.decls[1].kind == "fail-check"
    assert mod.decls[1].expect_code == "E-CONV"
    for d in mod.decls:
        assert parse_module(print_decl(d)).decls[0] == d


def test_decl_print_roundtrip():
    text = "def c : (A : U 0 @ g) -> <g| A> -> A := fun A x => let mod{g}(y) = x in y"
    mod = parse_module(text)
    assert parse_module(print_decl(mod.decls[0])).decls[0] == mod.decls[0]


def _reference_tokenize(text):
    """A character-at-a-time lexer, the reference for `syntax.tokenize`.

    Numbers are decimal digits (what `int` reads); a letter or `_` starts a
    word; anything else that is not punctuation is an unexpected character.
    """
    out, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
        elif ch in syntax._UNICODE_ALIASES:
            kind, canonical = syntax._UNICODE_ALIASES[ch]
            out.append((kind, canonical, (i, i + 1)))
            i += 1
        elif ch == "{":
            depth, j = 1, i + 1
            while j < n and depth:
                depth += {"{": 1, "}": -1}.get(text[j], 0)
                j += 1
            if depth:
                return ("E-PARSE", (i, n))
            out.append(("BRACED", text[i + 1 : j - 1], (i, j)))
            i = j
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                return ("E-PARSE", (i, n))
            out.append(("STRING", text[i + 1 : j], (i, j + 1)))
            i = j + 1
        elif text.startswith("fail-check", i) and not (
            i + 10 < n and (text[i + 10].isalnum() or text[i + 10] == "_")
        ):
            out.append(("KEYWORD", "fail-check", (i, i + 10)))
            i += 10
        else:
            lit = next((lit for lit, _ in syntax._PUNCT if text.startswith(lit, i)), None)
            j = i
            if lit is not None:
                out.append((dict(syntax._PUNCT)[lit], lit, (i, i + len(lit))))
                i += len(lit)
            elif ch.isdecimal():
                while j < n and text[j].isdecimal():
                    j += 1
                out.append(("NUMBER", text[i:j], (i, j)))
                i = j
            elif ch.isalpha() or ch == "_":
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                kind = "KEYWORD" if text[i:j] in syntax.KEYWORDS else "IDENT"
                out.append((kind, text[i:j], (i, j)))
                i = j
            else:
                return ("E-PARSE", (i, i + 1))
    out.append(("EOF", "", (n, n)))
    return out


def _tokens(text):
    try:
        tokens = syntax.tokenize(text)
        return list(zip(tokens.kinds, tokens.texts, tokens.spans))
    except KernelError as err:
        return (err.diagnostic.code, err.diagnostic.span)


def test_tokenizer_matches_reference_on_shipped_files():
    package = os.path.dirname(syntax.__file__)
    paths = glob.glob(os.path.join(package, "**", "*.ttt"), recursive=True)
    assert len(paths) == 18
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert _tokens(text) == _reference_tokenize(text), path


def test_tokenizer_matches_reference_on_random_text():
    pieces = list("ab_'09 \n\t-=<>:()[]{}\",.*^|@/\\λ∘⟨⟩∧∨→²½٣é") + [
        "fail-check", "fail-checkx", "--", ":=", "=>", "->", "/\\", "\\/", "zero",
    ]
    rng = random.Random(4)
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        assert _tokens(text) == _reference_tokenize(text), text


@functools.lru_cache(maxsize=None)
def _benchmark_texts():
    """The texts the benchmark parses: the prelude and dependency slices that
    `corpus.check_file` parses for each of the 17 manifest files, and the
    interval modules of seeds 1 and 7, generated as perfbench's `interval`
    workload does (a pool of 4 rounds of 36)."""
    seen, original = [], syntax.parse_module

    def recording(text, file="<input>"):
        seen.append(text)
        return original(text, file)

    syntax.parse_module = recording
    try:
        manifest = corpus.load_manifest()
        for entry in manifest.entries:
            corpus.check_file(manifest, entry.file)
    finally:
        syntax.parse_module = original
    assert len(manifest.entries) == 17
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench"))
    import intervalgen

    modules = []
    for seed in (1, 7):
        rng = random.Random(seed)
        modules += [case.text for _ in range(4) for case in intervalgen.make_round(rng)]
    assert len(modules) == 288
    return tuple(seen + modules)


def test_tokenizer_matches_reference_on_benchmark_texts():
    for text in _benchmark_texts():
        assert _tokens(text) == _reference_tokenize(text), text


def test_non_decimal_numeric_character_is_a_parse_error():
    # `²` passes `str.isdigit` but not `int`; it used to end in a ValueError
    with pytest.raises(KernelError) as err:
        parse_module("def a : Nat := ²")
    assert (err.value.diagnostic.code, err.value.diagnostic.span) == ("E-PARSE", (15, 16))
    assert parse_term("٣") == SNum(3)
    assert parse_term("x²") == SVar("x²")


def test_numerals_over_the_bound_are_parse_errors_at_their_token():
    assert syntax.MAX_NUMERAL == 10**6
    assert parse_term("1000000") == SNum(10**6)
    assert parse_term("0" * 5000 + "7") == SNum(7)
    assert parse_term("٠" * 10 + "٣") == SNum(3)
    assert parse_term("U 1000000") == SUniv(10**6)
    for text, span in [("1000001", (0, 7)), ("9" * 5000, (0, 5000)), ("U 1000001", (2, 9)),
                       ("f 10000000000000000000000 x", (2, 25))]:
        with pytest.raises(KernelError) as err:
            parse_term(text)
        diagnostic = err.value.diagnostic
        assert (diagnostic.code, diagnostic.span) == ("E-PARSE", span), text
        assert diagnostic.message == "numeral larger than 1000000, the largest accepted"


def _shipped_texts():
    """The prelude and the 17 library files."""
    package = os.path.dirname(syntax.__file__)
    paths = sorted(glob.glob(os.path.join(package, "**", "*.ttt"), recursive=True))
    assert len(paths) == 18
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            yield path, handle.read()


def _token_pattern(alternatives):
    """`syntax._TOKEN`'s layout over `alternatives`, (kind, pattern) pairs in
    the order tried, with the `_GROUP_KINDS` table that goes with it."""
    groups = "|".join(f"({pattern})" for _, pattern in alternatives)
    kinds = (None,) + tuple(kind for kind, _ in alternatives)
    return re.compile(r"(?:\s+|--[^\n]*)*(?:" + groups + ")"), kinds


_PUNCT_PATTERN = "|".join(re.escape(lit) for lit, _ in syntax._PUNCT)
_LAST = [("EOF", r"\Z"), ("OTHER", ".")]
# The alternatives in priority order, as they were before they were put in
# first-character order.
_PRIORITY_ORDER = _token_pattern([
    ("KEYWORD", r"fail-check(?!\w)"), ("STRING", '"[^"]*"'), ("PUNCT", _PUNCT_PATTERN),
    ("NUMBER", r"\d+"), ("WORD", syntax.WORD.pattern)] + _LAST)
# A control: words before `fail-check`, which then reads as `fail`, `-`, ...
_WORDS_FIRST = _token_pattern([
    ("WORD", syntax.WORD.pattern), ("KEYWORD", r"fail-check(?!\w)"), ("PUNCT", _PUNCT_PATTERN),
    ("NUMBER", r"\d+"), ("STRING", '"[^"]*"')] + _LAST)


def _token_outcome(text):
    try:
        tokens = syntax.tokenize(text)
        return list(zip(tokens.kinds, tokens.texts, tokens.spans))
    except KernelError as err:
        return (err.diagnostic.code, err.diagnostic.message, err.diagnostic.span)


def test_token_alternatives_order_does_not_change_the_stream(monkeypatch):
    texts = [text for _, text in _shipped_texts()]
    texts += [
        'fail-check "E-CONV" refl : zero = 1', "fail-checked fail-check_x fail-check'",
        "fail-check", "0 12 x2 2x 007", "x² ² a²b", "٣ 3٣", "a_'b _x",
        "def a : Nat := ²", "{g.{s}} x^{eps0 * {p}} {{}}",
        "λ x => x ∘ y ⟨g| A⟩ i ∧ j ∨ k A → B", '"E-PARSE"', '"unterminated',
        "{unterminated", "{a {b}", "a -- comment\nb --", "x := y => z -> w",
        "f (x y : A @ g) * B = C \\/ D /\\ E", "#", "a ? b",
    ]
    new = [_token_outcome(text) for text in texts]
    monkeypatch.setattr(syntax, "_TOKEN", _PRIORITY_ORDER[0])
    monkeypatch.setattr(syntax, "_GROUP_KINDS", _PRIORITY_ORDER[1])
    assert [_token_outcome(text) for text in texts] == new
    assert all(isinstance(out, list) for out in new[:18])
    assert sum(isinstance(out, tuple) for out in new) == 8
    # the patch reaches `tokenize`: the control pattern changes the stream
    monkeypatch.setattr(syntax, "_TOKEN", _WORDS_FIRST[0])
    monkeypatch.setattr(syntax, "_GROUP_KINDS", _WORDS_FIRST[1])
    assert _token_outcome("fail-check") != new[texts.index("fail-check")]


def _with_spans(t):
    """`t` as nested tuples that include every span, which `==` ignores."""
    if isinstance(t, (syntax.STerm, Decl)):
        return (type(t).__name__,) + tuple(
            _with_spans(getattr(t, name)) for name in fields(type(t))
        )
    if isinstance(t, (list, tuple)):
        return tuple(_with_spans(x) for x in t)
    return t


def _parse_outcome(parser_class, text, whole_module):
    try:
        parser = parser_class(text)
        if whole_module:
            return _with_spans(parser.parse_module().decls)
        term = parser.parse_term()
        return _with_spans(term), parser.spans[parser.pos]
    except KernelError as err:
        return (err.diagnostic.code, err.diagnostic.message, err.diagnostic.span)


def test_precedence_loop_matches_level_methods_on_shipped_files():
    failing = []
    for path, text in _shipped_texts():
        new = _parse_outcome(syntax.Parser, text, True)
        assert new == _parse_outcome(LevelParser, text, True), path
        if new[0] == "E-PARSE":
            failing.append(os.path.basename(path))
    assert failing == ["parse-error.ttt"]


def test_precedence_loop_matches_level_methods_on_benchmark_texts():
    for text in _benchmark_texts():
        new = _parse_outcome(syntax.Parser, text, True)
        assert new == _parse_outcome(LevelParser, text, True), text


def _random_infix_text(rng):
    operands = ["a", "f", "A", "0", "(a)", "f a b", "(x : A)", "(x y : A)",
                "(x y : A @ g)", "(x : A @ g)", "refl", "U 0"]
    operators = ["->", "*", "=", "\\/", "/\\", ""]
    parts = [rng.choice(operands)]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.04:  # a missing or doubled operand
            parts.append(rng.choice(operators + operands))
            continue
        parts.append(rng.choice(operators))
        parts.append(rng.choice(operands))
    return " ".join(part for part in parts if part)


def test_precedence_loop_matches_level_methods_on_random_infix_terms():
    rng = random.Random(13)
    errors = 0
    for _ in range(4000):
        text = _random_infix_text(rng)
        new = _parse_outcome(syntax.Parser, text, False)
        assert new == _parse_outcome(LevelParser, text, False), text
        errors += new[0] == "E-PARSE"
    assert 200 <= errors <= 1000


_SOUP_ATOMS = ["x", "f", "A", "0", "7", "refl", "U 0", "Int", "zero", "true", "(x : A)",
               "(x y : A @ g)", "((x : A))"]
_SOUP_PIECES = _SOUP_ATOMS + [
    "fun x =>", "fun x y =>", "let mod{g}(z) =", "let mod{s}(z) =[g]", "in", "^{eps0}",
    "^{eta_gs}", ".", "succ", "fst", "snd", "Lift", "up", "down", "J(", "natrec(", "boolrec(",
    "mod{g}(", "coe{eps0}(", "<g|", ">", "(", ")", ",", ":", "@ g", "->", "*", "=", "\\/",
    "/\\", "i", "j"]


def _token_soup(rng):
    """Up to 12 pieces, each an atom or, more often, any piece: binders,
    postfix forms, keyword atoms, brackets and operators in any order."""
    return " ".join(rng.choice(_SOUP_PIECES if rng.random() < 0.6 else _SOUP_ATOMS)
                    for _ in range(rng.randint(1, 12)))


def test_precedence_loop_matches_level_methods_on_token_soup():
    rng = random.Random(5)
    errors = 0
    for _ in range(4000):
        text = _token_soup(rng)
        new = _parse_outcome(syntax.Parser, text, False)
        assert new == _parse_outcome(LevelParser, text, False), text
        errors += new[0] == "E-PARSE"
    assert 1500 <= errors <= 3000


class ScanLineMap:
    """Reference line map: a character scan and a hand-written binary search."""

    def __init__(self, text):
        self.starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.starts.append(i + 1)

    def locate(self, offset):
        lo, hi = 0, len(self.starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self.starts[lo] + 1


def test_line_map_matches_the_reference_scan():
    prelude_text, _ = read_prelude()
    texts = [prelude_text, "", "\n", "\n\n", "a", "\nleading", "trailing\n",
             "one\n\nthree\n\n\n", "crlf\r\nline\r\n\r\nend", "\r\n", "x\ry\n"]
    for text in texts:
        fast, slow = LineMap(text), ScanLineMap(text)
        assert fast.starts == slow.starts
        for offset in range(len(text) + 2):
            assert fast.locate(offset) == slow.locate(offset), (text, offset)


def test_grammar_words_match_code():
    # docs/grammar.ebnf is the one grammar document: its quoted words are
    # the parser's keywords, the mode theory's generators and generator cells
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "grammar.ebnf"), encoding="utf-8") as handle:
        words = set(re.findall(r'"([A-Za-z][\w-]*)"', handle.read()))
    assert words == (syntax.KEYWORDS | {"fail-check", "id"} | set(modality.GENERATORS)
                     | set(modality.GENERATOR_CELLS))


def test_grammar_keyword_formers_match_the_tables():
    # the `"kw" postfix` and `"kw" "(" term {"," term} ")"` alternatives of
    # docs/grammar.ebnf are the parser's PREFIX and CALLS, with their arities
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "grammar.ebnf"), encoding="utf-8") as handle:
        text = handle.read()
    prefix = set(re.findall(r'"(\w+)" postfix', text))
    calls = {kw: 1 + rest.count('","')
             for kw, rest in re.findall(r'"(\w+)" "\(" term((?: "," term)*) "\)"', text)}
    assert prefix == set(syntax.PREFIX)
    assert calls == {kw: len(cls.__match_args__) for kw, cls in syntax.CALLS.items()}
