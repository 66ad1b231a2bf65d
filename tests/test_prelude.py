"""Prelude integrity: checks, coverage table, tiers, dependency behavior."""

import pytest

from trikernel.kernel import Checker
from trikernel.prelude import (
    AXIOM_TAGS,
    load_prelude,
    parse_metadata,
    prelude_slice,
    read_prelude,
    verify_prelude,
)


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
        sliced = prelude_slice(text, uses)
        assert len(sliced) == len(text)
        assert [i for i, ch in enumerate(sliced) if ch == "\n"] == newlines
        assert all(kept in (ch, " ") for kept, ch in zip(sliced, text))
    assert parse_metadata(prelude_slice(text, "")) == []


def test_prelude_slice_for_hom_has_one_entry():
    from trikernel.corpus import default_stdlib_dir

    text, _ = read_prelude()
    with open(f"{default_stdlib_dir()}/hom.ttt", encoding="utf-8") as handle:
        uses = handle.read()
    assert len(parse_metadata(prelude_slice(text, uses))) == 1


def test_prelude_slice_closes_under_the_words_of_kept_entries():
    text = (
        "axiom A : U 0\n"
        "def B : U 0\n  := A\n"
        "def C : U 0 := B\n"
        "axiom D : U 0\n"
    )
    sliced = prelude_slice(text, "def x : U 0 := C")
    assert [e.name for e in parse_metadata(sliced)] == ["A", "B", "C"]
    checker = Checker()
    assert checker.check_source(sliced) == []
    assert checker.global_order == ["A", "B", "C"]
