"""Acceptance gate: every criterion from the build contract, one test each,
with its stated budget pinned.  Each test prints a single verdict line."""

import itertools
import random
import re
import time

from trikernel.corpus import (
    REQUIRED_ANCHORS,
    check_file,
    default_stdlib_dir,
    load_manifest,
    run_corpus,
)
from trikernel.kernel import Checker
from trikernel.lattice import (
    AtomTable,
    Atom,
    Bot,
    Top,
    Meet,
    Join,
    canon,
    decide,
    monomial_atoms,
)
from trikernel.modality import BASE_RULES, GENERATORS, RULES, normalize
from trikernel.prelude import AXIOM_TAGS, verify_prelude

from lattice_oracle import antichains, count_monotone_functions, eval_expr, named, oracle_eq


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_mode_theory_table_and_confluence():
    start = time.monotonic()
    for lhs, rhs in BASE_RULES.items():
        assert normalize(lhs) == normalize(rhs)
    words = 0
    for n in range(7):
        for word in itertools.product(GENERATORS, repeat=n):
            words += 1
            steps = [
                word[:i] + RULES[word[i : i + 2]] + word[i + 2 :]
                for i in range(len(word) - 1)
                if word[i : i + 2] in RULES
            ]
            if len(steps) > 1:
                forms = {normalize(s) for s in steps}
                assert len(forms) == 1, word
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"confluence sweep took {elapsed:.2f}s"
    report(f"ok: mode-theory table + confluence over {words} words "
           f"(length <= 6) in {elapsed:.2f}s")


def _exprs_of_depth(depth, leaves):
    layer = list(leaves)
    for _ in range(depth - 1):
        new = list(leaves)
        for a in layer:
            for b in layer:
                new.append(Meet(a, b))
                new.append(Join(a, b))
        layer = new
    return layer


def _random_expr(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Bot()
        if roll < 0.2:
            return Top()
        return Atom(rng.choice(atoms))
    ctor = Meet if rng.random() < 0.5 else Join
    return ctor(_random_expr(rng, atoms, depth - 1), _random_expr(rng, atoms, depth - 1))


def test_lattice_oracle_equivalence():
    # exhaustive over two atoms, depth <= 3: partitioning by canonical form
    # and by truth table and comparing the partitions decides every pair
    exprs = _exprs_of_depth(3, [Atom("x"), Atom("y"), Bot(), Top()])
    table = AtomTable()
    table.intern("x")
    table.intern("y")
    assignments = [{"x": bool(i), "y": bool(j)} for i in range(2) for j in range(2)]
    by_canon = {}
    by_truth = {}
    for idx, e in enumerate(exprs):
        by_canon.setdefault(canon(e, named(table)), set()).add(idx)
        by_truth.setdefault(tuple(eval_expr(e, a) for a in assignments), set()).add(idx)
    assert {frozenset(v) for v in by_canon.values()} == {
        frozenset(v) for v in by_truth.values()
    }

    rng = random.Random(424242)
    disagreements = 0
    for _ in range(10_000):
        a = _random_expr(rng, ["x", "y", "z", "w"], 4)
        b = _random_expr(rng, ["x", "y", "z", "w"], 4)
        t = AtomTable()
        if (canon(a, named(t)) == canon(b, named(t))) != oracle_eq(a, b):
            disagreements += 1
    assert disagreements == 0
    report(f"ok: lattice equality matches the Boolean oracle on all "
           f"{len(exprs)}^2 exhaustive pairs and 10000 random pairs, "
           f"0 disagreements")


def test_free_lattice_counts():
    # the canonical forms over n atoms, read as the kernel's interval terms:
    # each is its own canonical form, and conversion tells every two apart
    start = time.monotonic()
    expected = {1: 3, 2: 6, 3: 20, 4: 168}
    for n, value in expected.items():
        checker = Checker()
        for i in range(n):
            checker.atoms.intern(Atom(f"a{i}"))
        forms = list(antichains(n))
        terms = [checker._poly_term(p) for p in forms]
        assert [checker.int_canon(t) for t in terms] == forms
        assert all(decide(a, b, checker._leaf) is False for a, b in itertools.combinations(terms, 2))
        assert len(forms) == value
        assert count_monotone_functions(n) == value
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"count sweep took {elapsed:.2f}s"
    report(f"ok: free-lattice counts 3, 6, 20, 168 match monotone enumeration "
           f"in {elapsed:.2f}s")


def _form_text(p, names):
    """The canonical form `p` as text, atom i written `names[i]`."""
    if not p:
        return "0"
    meets = (" /\\ ".join(names[i] for i in monomial_atoms(m)) or "1" for m in p)
    return " \\/ ".join(f"({meet})" for meet in meets)


def test_phoa_reconstruction_exhaustive():
    # p x = p 0 \/ (x /\ p 1) and p 0 <= p 1 by refl, for p a function of
    # the atom x; p 0 = p 1 exactly when p does not mention x
    names = ["x", "y", "z"]
    lines = [f"axiom {v} : Int" for v in names]
    forms = 0
    for k, p in enumerate(antichains(3)):
        for i, x in enumerate(names):
            f = f"p{k}{x}"
            mentions = any(m >> i & 1 for m in p)
            lines += [f"def {f} : Int -> Int := fun {x} => {_form_text(p, names)}",
                      f"check refl : {f} {x} = {f} 0 \\/ ({x} /\\ {f} 1)",
                      f"check refl : {f} 0 /\\ {f} 1 = {f} 0",
                      ('fail-check "E-CONV" ' if mentions else "check ") + f"refl : {f} 0 = {f} 1"]
            forms += 1
    diags = Checker().check_source("\n".join(lines) + "\n", "phoa.ttt")
    assert diags == [], [d.render() for d in diags]
    assert forms == 60
    report(f"ok: endpoint decomposition and reconstruction on {forms} "
           f"(form, atom) pairs, 0 failures")


def test_prelude_integrity():
    rep = verify_prelude()
    assert rep.diagnostics == [], rep.render()
    assert rep.problems == [], rep.render()
    for tag in AXIOM_TAGS:
        assert rep.coverage[tag], tag
    report(f"ok: prelude of {len(rep.entries)} entries checks clean; "
           f"all {len(AXIOM_TAGS)} named principles covered")


def test_positive_corpus():
    manifest = load_manifest()
    positives = [e for e in manifest.entries if e.expect_code is None]
    assert len(positives) >= 10
    start = time.monotonic()
    for entry in positives:
        result = check_file(manifest, entry.file)
        assert result.ok, f"{entry.file}: {result.actual}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"positive corpus took {elapsed:.2f}s"
    report(f"ok: {len(positives)} positive corpus files elaborate with "
           f"0 diagnostics in {elapsed:.2f}s")


def test_negative_corpus_and_no_false_positives():
    manifest = load_manifest()
    negatives = [e for e in manifest.entries if e.expect_code is not None]
    assert len(negatives) >= 6
    for entry in negatives:
        result = check_file(manifest, entry.file)
        assert result.ok, (
            f"{entry.file}: expected {result.expected}, got {result.actual}"
        )
    codes = {e.expect_code for e in negatives}
    assert codes >= {
        "E-MODALITY", "E-2CELL-BOUNDARY", "E-UNIVERSE",
        "E-CONV", "E-UNBOUND", "E-PARSE",
    }
    full = run_corpus()
    assert full.ok, full.render()
    report(f"ok: {len(negatives)} negative files fail with their designated "
           f"codes at the marked spans; no false positives")


KERNEL_LAW_SOURCE = """
axiom T : U 0
axiom g0 : T -> T

def letmod_beta : (x : T @ g) ->
    (let mod{g}(y) = mod{g}(x) in g0 y) = g0 x
  := fun x => refl

def split_gs : (A : U 0 @ g.s) -> <g.s| A> -> <g| <s| A>>
  := fun A t => let mod{g.s}(x) = t in mod{g}(mod{s}(x))

def merge_gs : (A : U 0 @ g.s) -> <g| <s| A>> -> <g.s| A>
  := fun A t => let mod{g}(y) = t in (let mod{s}(z) =[g] y in mod{g.s}(z))

def rt_one : (A : U 0 @ g.s) -> (x : A @ g.s) ->
    merge_gs A (split_gs A (mod{g.s}(x))) = mod{g.s}(x)
  := fun A x => refl

def rt_two : (A : U 0 @ g.s) -> (x : A @ g.s) ->
    split_gs A (merge_gs A (mod{g}(mod{s}(x)))) = mod{g}(mod{s}(x))
  := fun A x => refl

def unit_mod : (B : U 0) -> B -> <1| B> := fun B x => mod{1}(x)

def unit_mod_id : (B : U 0) -> (x : B) -> unit_mod B x = x
  := fun B x => refl

def path_to_fun : (B : U 0) -> <p| B> -> Int -> B := fun B f => f

def fun_to_path : (B : U 0) -> (Int -> B) -> <p| B> := fun B f => f

def path_rt_sample : (B : U 0) -> (x : B) ->
    path_to_fun B (fun_to_path B (fun i => x)) 0 = x
  := fun B x => refl

def path_rt_eta : (B : U 0) -> (f : <p| B>) ->
    f = (fun i => (path_to_fun B f) i)
  := fun B f => refl
"""


def test_kernel_laws():
    checker = Checker()
    diags = checker.check_source(KERNEL_LAW_SOURCE, "kernel-laws.ttt")
    assert diags == [], [d.render() for d in diags]
    report("ok: let-mod beta, composite-modality equivalences, and the "
           "path-modal/interval-function round trips all hold by refl")


def test_statement_substitution_documented():
    manifest = load_manifest()
    assert manifest.substitution
    for anchor in (
        "directed-univalence-statement",
        "space-segal-statement",
        "space-rezk-statement",
        "naturality-statement",
    ):
        assert anchor in manifest.substitution
        assert anchor in manifest.anchor_set()
    with open(f"{default_stdlib_dir()}/manifest.txt", encoding="utf-8") as handle:
        text = handle.read()
    assert re.search(r"statement-level types only", text)
    assert REQUIRED_ANCHORS <= manifest.anchor_set()
    report("ok: headline theorems are present as documented statement types; "
           "the substitution is recorded in the manifest and machine-checked")
