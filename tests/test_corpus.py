"""Corpus harness tests: manifest expectations, independence, coverage,
the dead-entry lint, the mutation-sensitivity guard, and golden printing."""

import os
import random
import re
import shutil

import pytest

from trikernel.corpus import (
    REQUIRED_ANCHORS,
    check_file,
    default_stdlib_dir,
    load_manifest,
    run_corpus,
)
from trikernel import kernel, prelude
from trikernel.core import (
    App,
    Const,
    Ctx,
    IntT,
    Lam,
    MkMod,
    Pair,
    Pi,
    Suc,
    Var,
    Zero,
    subst,
    subterms,
)
from trikernel.kernel import Checker, print_core
from trikernel.modality import ModeError, cell_normalize, generator_cell
from trikernel.prelude import load_prelude, parse_metadata, read_prelude
from trikernel.syntax import lex, parse_module, parse_term

from support import kept_names, print_decl

STDLIB = default_stdlib_dir()


def read_corpus_file(name):
    with open(os.path.join(STDLIB, name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_full_corpus_passes():
    report = run_corpus()
    assert report.ok, report.render()


def test_every_positive_file_independent():
    manifest = load_manifest()
    for entry in manifest.entries:
        if entry.expect_code is None:
            result = check_file(manifest, entry.file)
            assert result.ok, f"{entry.file}: {result.actual}"


def test_negative_files_exact_codes_and_spans():
    manifest = load_manifest()
    negatives = [e for e in manifest.entries if e.expect_code is not None]
    assert len(negatives) >= 6
    codes = {e.expect_code for e in negatives}
    assert codes == {
        "E-MODALITY", "E-2CELL-BOUNDARY", "E-UNIVERSE",
        "E-CONV", "E-UNBOUND", "E-PARSE",
    }
    for entry in negatives:
        assert entry.expect_line is not None, entry.file
        result = check_file(manifest, entry.file)
        assert result.ok, f"{entry.file}: expected {result.expected}, got {result.actual}"


def test_anchor_coverage_table():
    manifest = load_manifest()
    assert REQUIRED_ANCHORS <= manifest.anchor_set()


def test_statement_substitution_documented():
    manifest = load_manifest()
    assert manifest.substitution, "manifest must document the statement substitution"
    assert "directed-univalence-statement" in manifest.substitution
    assert "naturality-statement" in manifest.substitution
    assert set(manifest.substitution) <= manifest.anchor_set()


def test_empty_manifest_passes_trivially():
    from trikernel.corpus import parse_manifest

    manifest = parse_manifest("# nothing\n# !substitution: x\n")
    assert manifest.entries == []


def test_manifest_orders_each_files_dependencies_depth_first():
    from trikernel.corpus import parse_manifest

    lines = ["a | pass | |", "b | pass | |", "c | pass | b |", "d | pass | a,c |",
             "e | pass | c,a |", "f | pass | e,d |"]
    manifest = parse_manifest("\n".join(lines))
    assert {name: deps for name, (_, deps) in manifest.files.items()} == {
        "a": [], "b": [], "c": ["b"], "d": ["a", "b", "c"], "e": ["b", "c", "a"],
        "f": ["b", "c", "a", "e", "d"],
    }
    assert manifest.entry("d").deps == ["a", "c"]
    with pytest.raises(KeyError):
        manifest.entry("g")


def test_comma_lists_read_alike_with_or_without_blanks():
    from trikernel.corpus import parse_manifest

    tight = parse_manifest("a | pass | | x\nb | pass | | \nc | pass | a,b | x,y\n# !substitution: x,y")
    spaced = parse_manifest(
        "a | pass | | x\nb | pass | | \nc | pass | a, b | x, y\n# !substitution: x , y")
    assert spaced == tight
    assert spaced.entry("c").deps == ["a", "b"]
    assert spaced.entry("c").anchors == ["x", "y"]
    assert spaced.substitution == ["x", "y"]
    assert spaced.files["c"][1] == ["a", "b"]


def test_a_file_listed_twice_is_a_manifest_error():
    from trikernel.corpus import ManifestError, parse_manifest

    with pytest.raises(ManifestError, match="^a is listed twice$"):
        parse_manifest("a | pass | |\na | E-CONV | |")
    with pytest.raises(ManifestError, match="^b is listed twice$"):
        parse_manifest("a | pass | |\nb | pass | a |\nb | pass | a |")


def test_an_expectation_without_a_code_is_a_manifest_error():
    from trikernel.corpus import ManifestError, parse_manifest

    for expect in ("", ":3:4"):
        with pytest.raises(ManifestError, match=f"^malformed expectation {expect!r}, "):
            parse_manifest(f"a | {expect} | |")


def test_mutation_sanity_triangle_orientation():
    """Flipping any meet/join in the triangle region must break the file."""
    text = read_corpus_file("simplices.ttt")
    # all lattice connectives in the Delta2 definition and its check lines
    spots = [m.start() for m in re.finditer(r"/\\|\\/", text)]
    assert spots, "simplices.ttt should use explicit lattice connectives"
    flipped_any = 0
    for pos in spots:
        orig = text[pos : pos + 2]
        flip = "\\/" if orig == "/\\" else "/\\"
        mutated = text[:pos] + flip + text[pos + 2 :]
        checker = Checker()
        load_prelude(checker)
        diags = checker.check_source(mutated, "simplices-mutated.ttt")
        assert diags, f"mutation at offset {pos} went undetected"
        flipped_any += 1
    assert flipped_any >= 2


def broken_dependency_stdlib(tmp_path):
    """A copy of the library whose simplices.ttt fails at line 3, column 16."""
    stdlib = tmp_path / "stdlib"
    shutil.copytree(STDLIB, stdlib)
    lines = read_corpus_file("simplices.ttt").splitlines(keepends=True)
    lines.insert(2, "def b : Nat := true\n")
    (stdlib / "simplices.ttt").write_text("".join(lines), encoding="utf-8")
    return str(stdlib)


def test_failing_dependency_diagnostics_are_located(tmp_path):
    stdlib = broken_dependency_stdlib(tmp_path)
    result = check_file(load_manifest(stdlib), "segal.ttt", stdlib)
    assert result.actual == "dependency simplices.ttt failed"
    (diag,) = result.diagnostics
    assert (diag.file, diag.code, diag.line, diag.column) == ("simplices.ttt", "E-CONV", 3, 16)


def test_prelude_slice_gives_check_file_the_whole_prelude_verdicts(tmp_path, monkeypatch):
    # check_file elaborates only the shipped prelude entries that a file and
    # its dependencies reach; naming the same prelude checks it whole
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    shipped = prelude.default_prelude_path()
    decls = []
    real_run_decl = Checker.run_decl

    def counted(self, decl):
        decls.append(decl.name)
        return real_run_decl(self, decl)

    monkeypatch.setattr(Checker, "run_decl", counted)
    counts = {"sliced": 0, "whole": 0}
    for stdlib in (STDLIB, broken_dependency_stdlib(tmp_path)):
        manifest = load_manifest(stdlib)
        for entry in manifest.entries:
            results = {}
            for how, path in (("sliced", None), ("whole", shipped)):
                decls.clear()
                results[how] = check_file(manifest, entry.file, stdlib, path)
                counts[how] += len(decls)
            assert results["sliced"] == results["whole"], (stdlib, entry.file)
    assert counts["sliced"] < counts["whole"] / 2


def library_copy(tmp_path, name, edit):
    """A copy of the library whose file `name` has the text `edit(text)`."""
    stdlib = tmp_path / "stdlib"
    shutil.copytree(STDLIB, stdlib)
    (stdlib / name).write_text(edit(read_corpus_file(name)), encoding="utf-8")
    return str(stdlib)


def test_check_file_skips_a_dependency_entry_that_the_file_does_not_reach(tmp_path, monkeypatch):
    # an ill-typed dependency entry that no file names fails only the
    # dependency's own check, and with it the run
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    text = read_corpus_file("simplices.ttt")
    assert text.endswith("\n")
    stdlib = library_copy(tmp_path, "simplices.ttt",
                          lambda old: old + "def never_named_dep : Nat := true\n")
    manifest = load_manifest(stdlib)
    for name in ("segal.ttt", "iso.ttt", "space.ttt"):
        result = check_file(manifest, name, stdlib)
        assert result.ok, (name, result.actual)
    own = check_file(manifest, "simplices.ttt", stdlib)
    assert not own.ok
    (diag,) = own.diagnostics
    assert (diag.file, diag.code, diag.line) == ("simplices.ttt", "E-CONV", text.count("\n") + 1)
    report = run_corpus(stdlib)
    assert not report.ok
    assert [r.file for r in report.results if not r.ok] == ["simplices.ttt"]


@pytest.mark.parametrize("statement", [
    "check hasHLevel : Nat -> U 0 -> U 0",
    "check hasHLevel : Nat",
])
def test_a_check_before_a_dependencys_first_entry_gives_the_whole_verdict(
    tmp_path, monkeypatch, statement
):
    # text before a dependency's first entry is kept, and the prelude entries
    # it names are kept with it
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    prelude_text, shipped = read_prelude()
    library = "\n".join(map(read_corpus_file, ("simplices.ttt", "hom.ttt", "segal.ttt", "iso.ttt")))
    reached = prelude.slice_tokens([prelude_text], lex(library).identifiers())[0]
    assert "hasHLevel" not in kept_names(prelude_text, reached)
    stdlib = library_copy(tmp_path, "simplices.ttt", lambda text: f"{statement}\n{text}")
    manifest = load_manifest(stdlib)
    for name in ("segal.ttt", "iso.ttt"):
        sliced = check_file(manifest, name, stdlib)
        assert sliced == check_file(manifest, name, stdlib, shipped), name
        assert sliced.ok == statement.endswith("U 0"), (name, sliced.actual)


@pytest.mark.parametrize("broken, message", [
    ("{g", "unterminated '{'"),
    ('"E-CONV', "unterminated string literal"),
    ("? x", "unexpected character '?'"),
])
def test_a_reached_dependency_entry_that_does_not_tokenize_fails_the_file(
    tmp_path, monkeypatch, broken, message
):
    # an E-PARSE inside the entry, not a traceback, and an open brace or
    # quote does not run on into the next entry
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    text = read_corpus_file("simplices.ttt")
    stdlib = library_copy(tmp_path, "simplices.ttt", lambda old: (
        old + f"def extra : U 0\n  := {broken}\n" + 'def after : U 0 := U 0 -- } "\n'))
    segal = os.path.join(stdlib, "segal.ttt")
    with open(segal, "a", encoding="utf-8") as handle:
        handle.write("check extra : U 0\n")
    result = check_file(load_manifest(stdlib), "segal.ttt", stdlib)
    assert result.actual == "dependency simplices.ttt failed"
    [diag] = result.diagnostics
    assert (diag.file, diag.code, diag.message) == ("simplices.ttt", "E-PARSE", message)
    assert (diag.line, diag.column) == (text.count("\n") + 2, 6)
    assert diag.span[1] <= len(text) + len("def extra : U 0\n  := ") + len(broken) + 1


def test_a_file_that_does_not_tokenize_gets_the_whole_verdict(tmp_path, monkeypatch):
    # its dependencies are checked whole, so the ill-typed entry it names
    # fails it first, as with the whole prelude
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    stdlib = library_copy(tmp_path, "simplices.ttt",
                          lambda old: old + "def never_named_dep : Nat := true\n")
    with open(os.path.join(stdlib, "segal.ttt"), "a", encoding="utf-8") as handle:
        handle.write("check never_named_dep : Nat\ncheck ? : Nat\n")
    manifest = load_manifest(stdlib)
    sliced = check_file(manifest, "segal.ttt", stdlib)
    assert sliced.actual == "dependency simplices.ttt failed"
    assert sliced == check_file(manifest, "segal.ttt", stdlib, prelude.default_prelude_path())


def test_corpus_run_checks_the_shipped_prelude_whole(tmp_path, monkeypatch):
    # an ill-typed entry that no library file reaches passes every sliced
    # check_file, and still fails the run
    text, _ = read_prelude()
    copy = tmp_path / "prelude.ttt"
    copy.write_text(text + "\naxiom never_named : zero\n", encoding="utf-8")
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    monkeypatch.setattr(prelude, "default_prelude_path", lambda: str(copy))
    report = run_corpus()
    assert all(r.ok for r in report.results)
    assert not report.ok
    bad_line = text.count("\n") + 2
    (problem,) = report.problems
    assert problem.startswith(f"prelude: {copy}:{bad_line}:")


def test_dead_entry_lint():
    """Every prelude entry is consumed downstream unless statement-only."""
    text, _ = read_prelude()
    entries = parse_metadata(text)
    manifest = load_manifest()
    corpus_text = "".join(
        read_corpus_file(e.file)
        for e in manifest.entries
        if e.expect_code is None
    )
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
    # the declaration text (type and body) of each prelude entry
    bodies: dict[str, str] = {}
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(("def ", "axiom ")):
            current = stripped.split()[1]
            bodies[current] = stripped
        elif current and stripped and not stripped.startswith("--"):
            bodies[current] += " " + stripped
    # liveness: referenced by a corpus file, or by a live prelude entry
    used = {e.name for e in entries if e.name in set(ident.findall(corpus_text))}
    changed = True
    while changed:
        changed = False
        for name in list(used):
            for ref in set(ident.findall(bodies.get(name, ""))) - {name}:
                if ref in bodies and ref not in used:
                    used.add(ref)
                    changed = True
    dead = [e.name for e in entries if e.name not in used and not e.statement_only]
    assert dead == [], f"dead prelude entries: {dead}"


def test_hom_file_golden_print():
    """The printed form of the arrow-type definition is pinned."""
    text = read_corpus_file("hom.ttt")
    module = parse_module(text, "hom.ttt")
    hom_decl = next(d for d in module.decls if d.name == "hom")
    golden = (
        "def hom : (A : U 0) -> A -> A -> U 0 := "
        "fun A x y => (f : Int -> A) * f 0 = x * f 1 = y"
    )
    assert print_decl(hom_decl) == golden
    # and the whole file roundtrips through the printer
    for decl in module.decls:
        assert parse_module(print_decl(decl)).decls[0] == decl


def library_checker():
    """A checker holding the prelude and the 11 passing corpus files."""
    checker = Checker()
    assert load_prelude(checker) == []
    for entry in load_manifest().entries:
        if entry.expect_code is None:  # manifest order loads dependencies first
            assert checker.check_source(read_corpus_file(entry.file), entry.file) == []
    assert len(checker.globals) == 218
    return checker


def test_global_types_print_and_elaborate_back():
    """Every global type of the prelude and the passing corpus prints as
    surface syntax that parses and elaborates back to the same core term, at
    the universe level that the core synthesiser reads off that term."""
    checker = library_checker()
    for name in list(checker.globals):
        ty = checker.globals[name].ty
        printed = print_core(ty)
        term, level = checker.elab_type(Ctx(), parse_term(printed))
        assert term == ty, (name, printed)
        assert checker.universe_of(Ctx(), ty) == level, (name, printed)


def test_syntactic_shortcut_agrees_with_slow_conversion(monkeypatch):
    """A fast path may never change a verdict: `conv_str` with and without
    the syntactic-equality shortcut, over every global type against itself,
    every definition against its body and seeded random pairs of types."""
    checker = library_checker()
    defs = checker.globals
    names = list(checker.globals)
    rng = random.Random(7)
    pairs = [(defs[n].ty, defs[n].ty) for n in names]
    pairs += [(Const(n), defs[n].body) for n in names if defs[n].body is not None]
    pairs += [(defs[rng.choice(names)].ty, defs[rng.choice(names)].ty) for _ in range(300)]
    fast = [checker.conv_str(a, b) for a, b in pairs]
    monkeypatch.setattr(kernel, "syn_eq", lambda a, b: False)
    slow = [checker.conv_str(a, b) for a, b in pairs]
    assert fast == slow
    assert 0 < fast.count(False) < len(pairs)


class OneSubstPerArgument(Checker):
    """Reference beta reduction: one application, and one `subst`, at a time."""

    def whnf(self, t):
        if isinstance(t, App):
            fw = self.whnf(t.fn)
            if isinstance(fw, Lam):
                return self.whnf(subst(fw.body, t.arg))
            return App(fw, t.arg)
        return super().whnf(t)


def reference_for(checker):
    """A reference checker sharing `checker`'s globals and interval atoms."""
    reference = OneSubstPerArgument()
    vars(reference).update(vars(checker))
    return reference


def test_one_pass_beta_agrees_with_one_subst_per_argument_on_the_library():
    checker = library_checker()
    reference = reference_for(checker)
    roots = [g.ty for g in checker.globals.values()]
    roots += [g.body for g in checker.globals.values() if g.body is not None]
    assert len(roots) == 218 + 180
    apps = [u for root in roots for u, _ in subterms(root) if isinstance(u, App)]
    assert len(apps) > 900
    for app in apps:
        assert checker.whnf(app) == reference.whnf(app), print_core(app)


CELLS = (None, generator_cell("eta_gs"), generator_cell("eps_gs"), generator_cell("eta_pa"))


def random_term(rng, scope, size):
    """A small open term over `scope` variables; variables may carry cells."""
    if size <= 0 or rng.random() < 0.25:
        return rng.choice([Var(rng.randrange(scope + 2), rng.choice(CELLS)), Zero()])
    former = rng.randrange(6)
    if former == 0:
        return Lam(random_term(rng, scope + 1, size - 1))
    if former == 1:  # an interval binder is a path lock
        return Pi((), IntT(), random_term(rng, scope + 1, size - 1))
    if former == 2:
        return MkMod(("g",), random_term(rng, scope, size - 1))
    if former == 3:
        return Suc(random_term(rng, scope, size - 1))
    binary = App if former == 4 else Pair
    return binary(random_term(rng, scope, size // 2), random_term(rng, scope, size // 2))


def test_one_pass_beta_agrees_with_one_subst_per_argument_on_random_spines():
    checker = Checker()
    reference = reference_for(checker)
    rng = random.Random(10)
    reduced = 0
    for _ in range(2000):
        arity = rng.randint(1, 4)
        lams = rng.randint(0, arity)
        head = random_term(rng, lams, 6)
        for _ in range(lams):
            head = Lam(head)
        term = head
        for _ in range(arity):
            term = App(term, random_term(rng, 0, 3))
        try:
            expected = reference.whnf(term)
        except ModeError:  # an ill-typed cell composite
            expected = ModeError
        try:
            got = checker.whnf(term)
        except ModeError:
            got = ModeError
        assert got == expected, term
        reduced += expected is not ModeError
    assert reduced > 1500


def test_printed_definition_bodies_check_against_their_types():
    """Every definition body prints as surface syntax that checks against its
    printed type; an equation whose left side is a function, a pair or
    `refl` prints that side with its type, which cannot be inferred."""
    checker = library_checker()
    failing = set()
    for name in list(checker.globals):
        entry = checker.globals[name]
        if entry.body is not None:
            text = f"check ({print_core(entry.body)}) : {print_core(entry.ty)}"
            if checker.check_source(text, name):
                failing.add(name)
    assert failing == set()


def test_alias_of_int_changes_no_verdict():
    """With `Iv := Int` written for `Int` throughout, the prelude and every
    passing file without dependencies still check: an interval domain may be
    a constant that unfolds to `Int` as well as `Int` itself."""

    def alias(text):
        return re.sub(r"\bInt\b", "Iv", text)

    prelude, _ = read_prelude()
    prelude = "def Iv : U 0 := Int\n" + alias(prelude)
    files = [e.file for e in load_manifest().entries if e.expect_code is None and not e.deps]
    assert files == ["interval.ttt", "simplices.ttt", "hom.ttt", "simp.ttt", "covariant.ttt"]
    for name in files:
        checker = Checker()
        assert checker.check_source(prelude, "prelude.ttt") == []
        text = alias(read_corpus_file(name))
        assert text != read_corpus_file(name), name
        assert checker.check_source(text, name) == [], name


def test_no_variable_carries_an_identity_cell():
    """A variable's 2-cell annotation is None or a normal cell with at least
    one step, on every variable of every elaborated global type and body."""
    checker = library_checker()
    roots = [g.ty for g in checker.globals.values()]
    roots += [g.body for g in checker.globals.values() if g.body is not None]
    cells = [u.cell for root in roots for u, _ in subterms(root)
             if isinstance(u, Var) and u.cell is not None]
    assert cells and not any(cell.is_identity() for cell in cells)
    assert all(cell_normalize(cell) == cell for cell in cells)
