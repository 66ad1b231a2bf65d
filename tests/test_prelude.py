"""Prelude integrity: checks, coverage table, tiers, dependency behavior."""

import os

import pytest

from trikernel.core import constants
from trikernel.corpus import default_stdlib_dir, load_manifest
from trikernel.diagnostics import KernelError
from trikernel.kernel import Checker
from trikernel.prelude import (
    AXIOM_TAGS,
    load_prelude,
    parse_metadata,
    read_prelude,
    slice_tokens,
    verify_prelude,
)
from trikernel.syntax import lex, tokenize

from support import kept_names, word_slice


def test_prelude_checks_clean():
    checker = Checker()
    assert load_prelude(checker) == []
    assert len(checker.globals) > 80


def test_prelude_report_all_principles_covered():
    report = verify_prelude()
    assert report.ok, report.render()
    for tag in AXIOM_TAGS:
        assert report.coverage[tag] is not None, tag
    assert len(AXIOM_TAGS) == 10
    assert report.tier_counts["core"] == 10


def test_every_entry_reaches_checker():
    text, _ = read_prelude()
    entries = parse_metadata(text)
    checker = Checker()
    load_prelude(checker)
    for entry in entries:
        assert entry.name in checker.globals, entry.name


def test_metadata_tiers_documented():
    text, _ = read_prelude()
    entries = parse_metadata(text)
    tiers = {e.tier for e in entries}
    assert tiers <= {"core", "derived", "infra"}
    core = [e for e in entries if e.covers]
    assert len(core) == 10
    assert all(e.tier == "core" for e in core)


def test_removing_entry_breaks_dependents():
    text, _ = read_prelude()
    # contractibility feeds the whole h-level stack inside the prelude
    mutated = text.replace(
        "def IsContr0 : U 0 -> U 0 := fun A => (c : A) * ((b : A) -> c = b)", ""
    )
    assert mutated != text
    checker = Checker()
    diags = checker.check_source(mutated, "prelude-mutated.ttt")
    assert len(diags) == 1
    assert diags[0].code == "E-UNBOUND"


def test_removing_interval_axiom_breaks_corpus():
    import os

    from trikernel.corpus import default_stdlib_dir

    text, _ = read_prelude()
    mutated = text.replace("axiom int_is_set : IsSet0 Int", "")
    assert mutated != text
    checker = Checker()
    assert checker.check_source(mutated, "prelude-mutated.ttt") == []
    with open(os.path.join(default_stdlib_dir(), "simplices.ttt")) as handle:
        diags = checker.check_source(handle.read(), "simplices.ttt")
    assert len(diags) == 1
    assert diags[0].code == "E-UNBOUND"


def test_duality_axiom_elaborates_against_algebra_record():
    checker = Checker()
    load_prelude(checker)
    assert "algebra_duality" in checker.globals
    assert "AlgHom" in checker.globals
    assert "int_algebra_self" in checker.globals
    # the statement can be instantiated at the interval itself
    diags = checker.check_source(
        "def self_duality : IsEquiv0 (alg_carrier int_algebra_self) "
        "(AlgHom int_algebra_self int_algebra_self -> Int) (fun x h => fst h x)\n"
        "  := algebra_duality int_algebra_self is_fp_self\n",
        "duality-use.ttt",
    )
    assert diags == [], [d.render() for d in diags]


def test_coverage_detects_missing_principle():
    text, path = read_prelude()
    mutated = text.replace("-- #covers: cubes-separate", "")
    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".ttt", delete=False, encoding="utf-8"
    ) as handle:
        handle.write(mutated)
        temp = handle.name
    try:
        report = verify_prelude(temp)
        assert not report.ok
        assert any("cubes-separate" in p for p in report.problems)
    finally:
        os.unlink(temp)


def test_tier_counts_match_documented_manifest():
    report = verify_prelude()
    total = sum(report.tier_counts.values())
    assert total == len(report.entries)
    # documented composition: exactly ten core entries, the rest split
    # between derived postulates and infrastructure
    assert report.tier_counts == {
        "core": 10,
        "derived": report.tier_counts["derived"],
        "infra": report.tier_counts["infra"],
    }
    assert report.tier_counts["derived"] >= 8
    assert report.tier_counts["infra"] >= 60


def triples(tokens):
    return list(zip(tokens.kinds, tokens.texts, tokens.spans))


def assert_tokens_of(text, tokens):
    """Each token of the slice `tokens` is the token of the whole `text` at
    its span, in text order, and EOF is at the end of `text`."""
    whole = {span: (kind, lexeme) for kind, lexeme, span in triples(tokenize(text))}
    assert tokens.error is None
    assert all(whole.get(span) == (kind, lexeme) for kind, lexeme, span in triples(tokens))
    assert tokens.spans == sorted(set(tokens.spans))
    assert triples(tokens)[-1] == ("EOF", "", (len(text), len(text)))


def test_prelude_slice_keeps_offsets_and_lines():
    # a kept token is the whole text's token at the same span, so offsets,
    # lines and columns stay exact
    text, _ = read_prelude()
    for uses in ("", "def t : U 0 := sym", "transport Space hom\n-- IsEquiv0"):
        assert_tokens_of(text, slice_tokens([text], lex(uses).identifiers())[0])
    assert kept_names(text, slice_tokens([text], set())[0]) == []


def test_prelude_slice_for_hom_has_one_entry():
    from trikernel.corpus import default_stdlib_dir

    text, _ = read_prelude()
    with open(f"{default_stdlib_dir()}/hom.ttt", encoding="utf-8") as handle:
        uses = lex(handle.read()).identifiers()
    assert len(kept_names(text, slice_tokens([text], uses)[0])) == 1


def test_prelude_slice_closes_under_the_words_of_kept_entries():
    text = (
        "axiom A : U 0\n"
        "def B : U 0\n  := A\n"
        "def C : U 0 := B\n"
        "axiom D : U 0\n"
    )
    sliced = slice_tokens([text], {"x", "C"})[0]
    assert kept_names(text, sliced) == ["A", "B", "C"]
    checker = Checker()
    assert checker.check_source(text, "<input>", sliced) == []
    assert list(checker.globals) == ["A", "B", "C"]


def read_library_file(name):
    with open(os.path.join(default_stdlib_dir(), name), encoding="utf-8") as handle:
        return handle.read()


def reference_slice(text, uses):
    """The one-text slice by a plain fixpoint over whole lines: the identifier
    tokens of `uses` and of kept entries keep entries, until nothing more is
    kept; every other entry is blanked, newlines kept."""
    lines = text.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line.strip().startswith(("def ", "axiom "))]
    entries = []
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        name = lines[start].strip().split(None, 1)[1].split(":", 1)[0].split()[0]
        entries.append((name, "".join(lines[start:end])))
    kept = tokenize(uses).identifiers()
    grown = True
    while grown:
        names = set().union(*(tokenize(chunk).identifiers()
                              for name, chunk in entries if name in kept))
        grown = not names <= kept
        kept |= names
    out = "".join(lines[: starts[0] if starts else len(lines)])
    for name, chunk in entries:
        out += chunk if name in kept else "\n".join(" " * len(line) for line in chunk.split("\n"))
    return out


def test_one_text_slice_of_the_shipped_prelude_is_unchanged_for_each_library_file():
    # the cold `trikernel check` slices the shipped prelude by this case alone
    text, _ = read_prelude()
    for entry in load_manifest().entries:
        uses = read_library_file(entry.file)
        sliced = slice_tokens([text], lex(uses).identifiers())[0]
        assert triples(sliced) == triples(tokenize(reference_slice(text, uses))), entry.file


def test_slice_texts_keeps_offsets_and_lines_in_every_text():
    manifest = load_manifest()
    prelude_text, _ = read_prelude()
    entry = manifest.entry("monoid.ttt")
    texts = [prelude_text] + [read_library_file(dep) for dep in entry.deps]
    for uses in ("", read_library_file("monoid.ttt"), "def t : U 0 := Space"):
        sliced = slice_tokens(texts, lex(uses).identifiers())
        assert len(sliced) == len(texts)
        for text, cut in zip(texts, sliced):
            assert_tokens_of(text, cut)
    # the library's last file reaches some, not all, of its dependencies' entries
    cuts = slice_tokens(texts, lex(read_library_file("monoid.ttt")).identifiers())
    kept = [len(kept_names(text, cut)) for text, cut in zip(texts, cuts)]
    whole = [len(parse_metadata(text)) for text in texts]
    assert 0 < sum(kept[1:]) < sum(whole[1:])


def test_slice_texts_keeps_an_entry_reached_only_through_another_text():
    prelude_text = (
        "axiom P : U 0\n"
        "def Wrap : (Q : U 0) -> U 0 := fun Q => Q\n"
        "axiom Unused : U 0\n"
    )
    first = "def A : U 0 := P\naxiom Q : U 0\naxiom Z : U 0\n"
    second = "def B : U 0 := A\naxiom Y : U 0\n"
    texts = [prelude_text, first, second]
    sliced = slice_tokens(texts, lex("def x : U 0 := Wrap B").identifiers())
    # A only through B, P only through A, Q only through an identifier of Wrap
    assert [kept_names(text, cut) for text, cut in zip(texts, sliced)] == [
        ["P", "Wrap"], ["A", "Q"], ["B"]]
    checker = Checker()
    for text, cut in zip(texts, sliced):
        assert checker.check_source(text, "<input>", cut) == []
    assert list(checker.globals) == ["P", "Wrap", "A", "Q", "B"]


def test_text_before_a_first_entry_is_kept_and_its_words_are_uses():
    texts = ["axiom A : U 0\naxiom D : U 0\n", "check A : U 0\n\ndef B : U 0 := A\n"]
    prelude_part, dep = slice_tokens(texts, set())
    assert kept_names(texts[0], prelude_part) == ["A"]
    end = len(texts[1])
    assert triples(dep) == triples(tokenize(texts[1], end=13))[:-1] + [("EOF", "", (end, end))]
    # the one-text case counts them too
    assert triples(slice_tokens([texts[1]], set())[0]) == triples(dep)


def sliced_and_whole(text, uses):
    """The diagnostics of checking `uses` after `text`, sliced and whole."""
    out = []
    for sliced in (True, False):
        checker = Checker()
        tokens = slice_tokens([text], lex(uses).identifiers())[0] if sliced else None
        out.append(checker.check_source(text, "t.ttt", tokens) + checker.check_source(uses))
    return out


@pytest.mark.parametrize("blanks", ["\t", "    ", "\n", "\n\n  ", " -- a comment\n"])
def test_an_entry_head_is_read_as_the_tokenizer_reads_it(blanks):
    # any blanks, line breaks or comments between the keyword and the name
    text = f"axiom A : U 0\ndef{blanks}B : U 0 := A\n  axiom{blanks}C : U 0\n"
    sliced, whole = sliced_and_whole(text, "check B : U 0\ncheck C : U 0")
    assert sliced == whole == []
    assert [e.name for e in parse_metadata(text)] == ["A", "B", "C"]
    assert kept_names(text, slice_tokens([text], {"B"})[0]) == ["A", "B"]


def test_a_second_declaration_on_a_line_stays_part_of_that_lines_entry():
    text = "axiom A : U 0  axiom C : U 0\naxiom define : U 0\ndef fun : U 0 := A\n"
    assert [e.name for e in parse_metadata(text)] == ["A", "define"]
    assert kept_names(text, slice_tokens([text], {"A"})[0]) == ["A", "C"]
    # so C is kept only with A; `def fun` is no head, and fails A's entry
    assert kept_names(text, slice_tokens([text], {"C"})[0]) == []
    assert [d.code for d in Checker().check_source(text)] == ["E-PARSE"]


@pytest.mark.parametrize("broken, message", [
    ("f {g", "unterminated '{'"),
    ('f "E-CONV', "unterminated string literal"),
    ("f ? x", "unexpected character '?'"),
])
def test_a_kept_entry_that_does_not_tokenize_is_an_e_parse_inside_it(broken, message):
    # the first such entry in text order, at the span that the tokenizer
    # gives inside the entry: an open brace or quote does not run on into
    # the next entries, though the whole text's would end in a comment there
    entries = ["axiom f : U 0 -> U 0\n", "axiom g : U 0\n", f"def bad : U 0\n  := {broken}\n",
               "def worse : U 0 := f ?\n", 'def closes : U 0 := g -- } "\n']
    text = "".join(entries)
    start = len("".join(entries[:2]))
    end = start + len(entries[2])
    with pytest.raises(KernelError) as err:
        tokenize(text[start:end])
    want = tuple(start + offset for offset in err.value.diagnostic.span)
    [cut] = slice_tokens([text], {"worse", "bad", "closes", "unused"})
    assert cut.error is not None and (cut.error.message, cut.error.span) == (message, want)
    [diag] = Checker().check_source(text, "dep.ttt", cut)
    assert (diag.file, diag.code, diag.message, diag.span) == ("dep.ttt", "E-PARSE", message, want)
    assert (diag.line, diag.column) == (4, 8)
    # an entry no use reaches is not tokenized
    assert slice_tokens([text], {"closes"})[0].error is None


def library_slices(name):
    """The shipped prelude and `name`'s dependencies, their texts and their
    token slices for `name`."""
    entry, deps = load_manifest().files[name]
    texts = [read_prelude()[0]] + [read_library_file(dep) for dep in deps]
    return texts, slice_tokens(texts, lex(read_library_file(name)).identifiers())


def test_the_token_slice_keeps_a_subset_of_the_word_slice():
    # identifier tokens keep entries; words in comments, braces or strings do not
    kept = {}
    for entry in load_manifest().entries:
        texts, cuts = library_slices(entry.file)
        names = [kept_names(text, cut) for text, cut in zip(texts, cuts)]
        words = word_slice(texts, read_library_file(entry.file))
        assert all(set(n) <= set(w) for n, w in zip(names, words)), entry.file
        kept[entry.file] = (sum(map(len, names)), sum(map(len, words)))
    # words in comments kept 31 more entries of iso.ttt, 27 through compose_horn
    assert kept["iso.ttt"] == (9, 40)
    assert kept["interval.ttt"] == (63, 63)


def test_every_constant_of_a_kept_global_is_kept():
    for entry in load_manifest().entries:
        texts, cuts = library_slices(entry.file)
        checker = Checker()
        for text, cut in zip(texts, cuts):
            assert checker.check_source(text, "<input>", cut) == [], entry.file
        for name, glob in checker.globals.items():
            named = constants(glob.ty) | (constants(glob.body) if glob.body is not None else set())
            assert named <= set(checker.globals), (entry.file, name)
