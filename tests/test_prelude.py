"""Prelude integrity: checks, coverage table, tiers, dependency behavior."""

import os

import pytest

from trikernel.corpus import default_stdlib_dir, load_manifest
from trikernel.kernel import Checker
from trikernel.prelude import (
    AXIOM_TAGS,
    load_prelude,
    parse_metadata,
    read_prelude,
    slice_texts,
    verify_prelude,
)
from trikernel.syntax import WORD


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


def test_prelude_slice_keeps_offsets_and_lines():
    # a dropped entry is blanked in place: the text keeps its length and its
    # newlines, and every other character is kept or made a space
    text, _ = read_prelude()
    newlines = [i for i, ch in enumerate(text) if ch == "\n"]
    for uses in ("", "def t : U 0 := sym", "transport Space hom\n-- IsEquiv0"):
        sliced = slice_texts([text], uses)[0]
        assert len(sliced) == len(text)
        assert [i for i, ch in enumerate(sliced) if ch == "\n"] == newlines
        assert all(kept in (ch, " ") for kept, ch in zip(sliced, text))
    assert parse_metadata(slice_texts([text], "")[0]) == []


def test_prelude_slice_for_hom_has_one_entry():
    from trikernel.corpus import default_stdlib_dir

    text, _ = read_prelude()
    with open(f"{default_stdlib_dir()}/hom.ttt", encoding="utf-8") as handle:
        uses = handle.read()
    assert len(parse_metadata(slice_texts([text], uses)[0])) == 1


def test_prelude_slice_closes_under_the_words_of_kept_entries():
    text = (
        "axiom A : U 0\n"
        "def B : U 0\n  := A\n"
        "def C : U 0 := B\n"
        "axiom D : U 0\n"
    )
    sliced = slice_texts([text], "def x : U 0 := C")[0]
    assert [e.name for e in parse_metadata(sliced)] == ["A", "B", "C"]
    checker = Checker()
    assert checker.check_source(sliced) == []
    assert checker.global_order == ["A", "B", "C"]


def read_library_file(name):
    with open(os.path.join(default_stdlib_dir(), name), encoding="utf-8") as handle:
        return handle.read()


def reference_slice(text, uses):
    """The one-text slice by a plain fixpoint over whole lines: the words of
    `uses` and of kept entries keep entries, until nothing more is kept."""
    lines = text.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line.strip().startswith(("def ", "axiom "))]
    entries = []
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        name = lines[start].strip().split(None, 1)[1].split(":", 1)[0].split()[0]
        entries.append((name, "".join(lines[start:end])))
    kept = set(WORD.findall(uses))
    grown = True
    while grown:
        words = set().union(*(WORD.findall(chunk) for name, chunk in entries if name in kept))
        grown = not words <= kept
        kept |= words
    out = "".join(lines[: starts[0] if starts else len(lines)])
    for name, chunk in entries:
        out += chunk if name in kept else "\n".join(" " * len(line) for line in chunk.split("\n"))
    return out


def test_one_text_slice_of_the_shipped_prelude_is_unchanged_for_each_library_file():
    # the cold `trikernel check` slices the shipped prelude by this case alone
    text, _ = read_prelude()
    for entry in load_manifest().entries:
        uses = read_library_file(entry.file)
        assert slice_texts([text], uses)[0] == reference_slice(text, uses), entry.file


def test_slice_texts_keeps_offsets_and_lines_in_every_text():
    manifest = load_manifest()
    prelude_text, _ = read_prelude()
    entry = manifest.entry("monoid.ttt")
    texts = [prelude_text] + [read_library_file(dep) for dep in entry.deps]
    for uses in ("", read_library_file("monoid.ttt"), "def t : U 0 := Space"):
        sliced = slice_texts(texts, uses)
        assert len(sliced) == len(texts)
        for text, cut in zip(texts, sliced):
            assert len(cut) == len(text)
            assert [i for i, ch in enumerate(cut) if ch == "\n"] == [
                i for i, ch in enumerate(text) if ch == "\n"
            ]
            assert all(kept in (ch, " ") for kept, ch in zip(cut, text))
    # the library's last file reaches some, not all, of its dependencies' entries
    kept = [len(parse_metadata(cut)) for cut in slice_texts(texts, read_library_file("monoid.ttt"))]
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
    sliced = slice_texts([prelude_text, first, second], "def x : U 0 := Wrap B")
    names = [[e.name for e in parse_metadata(cut)] for cut in sliced]
    # A only through B, P only through A, Q only through a word of Wrap
    assert names == [["P", "Wrap"], ["A", "Q"], ["B"]]
    checker = Checker()
    for cut in sliced:
        assert checker.check_source(cut) == []
    assert checker.global_order == ["P", "Wrap", "A", "Q", "B"]


def test_text_before_a_first_entry_is_kept_and_its_words_are_uses():
    texts = ["axiom A : U 0\naxiom D : U 0\n", "check A : U 0\n\ndef B : U 0 := A\n"]
    prelude_part, dep = slice_texts(texts, "")
    assert [e.name for e in parse_metadata(prelude_part)] == ["A"]
    assert dep == "check A : U 0\n\n                \n"
    # the one-text case counts them too
    assert slice_texts([texts[1]], "")[0] == dep
