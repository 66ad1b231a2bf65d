"""CLI behavior: subcommands, exit codes, JSON diagnostics, schema."""

import ast
import glob
import itertools
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time

import jsonschema
import pytest

from trikernel.cli import build_parser, main
from trikernel.corpus import default_stdlib_dir
from trikernel.diagnostics import Diagnostic
from trikernel.kernel import Checker

STDLIB = default_stdlib_dir()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "docs", "diagnostic.schema.json")) as _handle:
    SCHEMA = json.load(_handle)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_diagnostics(out):
    """The JSON diagnostic lines of `out`, each validated against the schema."""
    objs = [json.loads(line) for line in out.splitlines() if line.strip()]
    for obj in objs:
        jsonschema.validate(obj, SCHEMA)
    return objs


def test_mode_normalize(capsys):
    code, out, _ = run_cli(["mode", "normalize", "g.a"], capsys)
    assert code == 0
    assert out.strip() == "g"


def test_mode_normalize_unicode(capsys):
    code, out, _ = run_cli(["mode", "normalize", "o∘o∘p"], capsys)
    assert code == 0
    assert out.strip() == "p"


def test_mode_cell_found(capsys):
    code, out, _ = run_cli(["mode", "cell", "g", "1"], capsys)
    assert code == 0
    assert "eps0" in out


def test_mode_cell_none(capsys):
    code, out, _ = run_cli(["mode", "cell", "s", "1"], capsys)
    assert code == 1
    assert out.strip() == "none (depth 8)"


def test_mode_parse_failure(capsys):
    code, _, err = run_cli(["mode", "normalize", "q"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("group", ["mode", "lattice", "corpus"])
def test_group_without_a_subcommand_prints_usage(capsys, group):
    code, out, _ = run_cli([group], capsys)
    assert code == 2
    assert out.startswith("usage: trikernel")


def test_lattice_eq(capsys):
    code, out, _ = run_cli(
        ["lattice", "eq", "x/\\(y\\/z)", "(x/\\y)\\/(x/\\z)"], capsys
    )
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("expr, bound", [("x /\\ 0", "0"), ("x \\/ 1", "1")])
def test_lattice_nf_prints_a_bare_bound(capsys, expr, bound):
    assert run_cli(["lattice", "nf", expr], capsys) == (0, bound + "\n", "")


def test_lattice_parse_error(capsys):
    code, out, err = run_cli(["lattice", "nf", "x /\\ ("], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: E-PARSE: ") and err.count("\n") == 1


@pytest.mark.parametrize("args, code", [
    (["nf", "x y"], "E-CONV"),
    (["nf", "succ zero"], "E-CONV"),
    (["nf", "fun x => x"], "E-CONV"),
    (["eq", "x", "Int"], "E-CONV"),
    (["eq", "x", "x^{eps0}"], "E-2CELL-BOUNDARY"),
], ids=["application", "successor", "function", "type", "cell"])
def test_lattice_non_lattice_input_is_a_usage_error(capsys, args, code):
    exit_code, out, err = run_cli(["lattice", *args], capsys)
    assert (exit_code, out) == (2, "")
    assert err.startswith(f"error: {code}: ") and err.count("\n") == 1


def test_lattice_nf_prints_the_side_that_a_failing_refl_prints(capsys):
    # every word is an axiom `NAME : Int`, and `nf` prints the side as E-CONV
    # prints it, against a fresh atom so that the check fails
    rng = random.Random(29)
    exprs = ["x \\/ (x /\\ y)", "x /\\ (y \\/ z)", "(x /\\ y /\\ z) \\/ w \\/ (y /\\ w)", "0", "1",
             "x \\/ y \\/ z \\/ w"]
    for _ in range(40):
        expr = rng.choice("xyzw")
        for _ in range(rng.randrange(8)):
            op = rng.choice([" /\\ ", " \\/ "])
            expr = f"({expr}){op}{rng.choice('xyzw01')}" if rng.random() < 0.5 else f"{rng.choice('xyzw')}{op}({expr})"
        exprs.append(expr)
    for expr in exprs:
        code, out, _ = run_cli(["lattice", "nf", expr], capsys)
        assert code == 0
        source = "".join(f"axiom {v} : Int\n" for v in "xyzw") + f"axiom fresh : Int\ncheck refl : {expr} = fresh\n"
        [diag] = Checker().check_source(source)
        assert (diag.code, diag.expected, diag.actual) == ("E-CONV", out[:-1], "fresh"), expr


def test_lattice_nf_of_a_meet_of_ten_joins_prints_every_monomial(capsys):
    meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(10))
    code, out, _ = run_cli(["lattice", "nf", meet], capsys)
    assert code == 0
    monomials = out.split(" \\/ ")
    assert len(monomials) == 1024
    # a right-nested join of right-nested meets, each link parenthesized
    assert monomials[0] == "x0 /\\ " + "".join(f"(x{k} /\\ " for k in range(1, 9)) + "x9" + ")" * 8
    assert monomials[-1] == "y0 /\\ " + "".join(f"(y{k} /\\ " for k in range(1, 9)) + "y9" + ")" * (8 + 1022) + "\n"
    chosen = {tuple(m.strip("()\n").replace("(", "").replace(")", "").split(" /\\ ")) for m in monomials}
    assert chosen == set(itertools.product(*[(f"x{k}", f"y{k}") for k in range(10)]))


def test_lattice_nf_of_a_long_meet_chain(capsys):
    chain = " /\\ ".join(["x"] * 3000)
    assert run_cli(["lattice", "nf", chain], capsys) == (0, "x\n", "")
    assert run_cli(["lattice", "eq", chain, "x /\\ x"], capsys) == (0, "true\n", "")


def test_lattice_eq_reads_back_the_normal_form_of_a_meet_of_eight_joins(capsys):
    # the normal form is a join of 256 monomials, each link parenthesized,
    # so reading it back nests 255 parentheses
    meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(8))
    code, nf, _ = run_cli(["lattice", "nf", meet], capsys)
    assert code == 0 and nf.count(" \\/ ") == 255
    assert run_cli(["lattice", "eq", meet, nf.strip()], capsys) == (0, "true\n", "")


@pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000], ids=["deep-parentheses"])
def test_lattice_too_deep_input_is_a_depth_error(capsys, expr):
    code, out, err = run_cli(["lattice", "nf", expr], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: E-DEPTH: ") and err.count("\n") == 1


def test_check_positive_file(capsys):
    code, out, _ = run_cli(["check", os.path.join(STDLIB, "hom.ttt")], capsys)
    assert code == 0
    assert out == ""


def test_check_negative_file_renders_the_diagnostic(capsys):
    path = os.path.join(STDLIB, "neg", "int-bool-confusion.ttt")
    assert run_cli(["check", path], capsys) == (
        1, f"{path}:3:6: E-CONV: type mismatch\n  expected: Int\n  actual:   Bool\n", "")


def test_check_negative_file_json(capsys):
    path = os.path.join(STDLIB, "neg", "escape-s.ttt")
    code, out, _ = run_cli(["check", path, "--json"], capsys)
    assert code == 1
    objs = json_diagnostics(out)
    assert len(objs) == 1
    obj = objs[0]
    assert obj["code"] == "E-MODALITY"
    assert obj["line"] == 3


@pytest.mark.parametrize(
    "text",
    [
        "def t : Nat := " + "(" * 3000 + "zero" + ")" * 3000 + "\n",
        "def k : Nat -> Nat -> Nat := fun a b => a\n"
        "def f : Nat -> Nat := fun b => 3000\n"
        "def t : k 3000 = f := refl\n",
    ],
    ids=["deep-parentheses", "deep-literal-under-binder"],
)
def test_check_too_deep_input_json(capsys, tmp_path, text):
    path = tmp_path / "deep.ttt"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(["check", str(path), "--json"], capsys)
    assert code == 1
    assert [obj["code"] for obj in json_diagnostics(out)] == ["E-DEPTH"]


_DIGITS = "9" * 5000


@pytest.mark.parametrize("text, column", [
    (f"def n : Nat := {_DIGITS}\n", 16),
    (f"check U {_DIGITS} : U 0\n", 9),
    ("def n : Nat := 99999999999999999999999\n", 16),
], ids=["long-literal", "long-level", "literal-past-memory"])
def test_check_numeral_over_the_bound_is_a_parse_error(capsys, tmp_path, text, column):
    path = tmp_path / "numeral.ttt"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["check", str(path), "--json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, "")
    [obj] = json_diagnostics(out)
    assert (obj["code"], obj["line"], obj["column"]) == ("E-PARSE", 1, column)
    assert obj["message"] == "numeral larger than 1000000, the largest accepted"


def test_lattice_numeral_over_the_bound_is_a_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["lattice", "nf", _DIGITS], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: E-PARSE: numeral larger than 1000000, the largest accepted\n")


def test_an_over_long_expected_position_in_the_manifest_is_a_usage_error(capsys, tmp_path):
    library = tmp_path / "library"
    shutil.copytree(STDLIB, library)
    manifest = library / "manifest.txt"
    text = manifest.read_text()
    assert "| E-MODALITY:3:17 |" in text
    manifest.write_text(text.replace("| E-MODALITY:3:17 |", f"| E-MODALITY:{_DIGITS}:17 |"))
    start = time.perf_counter()
    code, out, err = run_cli(["corpus", "run", "--stdlib", str(library)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", f"error: {manifest}: line or column of more than 9 digits in the "
        "expectation for neg/escape-s.ttt\n")


@pytest.mark.parametrize("text, diagnostic", [
    ("def T : U 0 := Nat\ndef x : T := true\n",
     {"code": "E-CONV", "line": 2, "column": 14, "start": 32, "end": 36,
      "message": "type mismatch", "expected": "Nat", "actual": "Bool"}),
    ("def f : Nat -> Nat -> Nat := fun a b => a\ndef y : Nat := f 1 true\n",
     {"code": "E-CONV", "line": 2, "column": 20, "start": 61, "end": 65,
      "message": "type mismatch", "expected": "Nat", "actual": "Bool"}),
    ("def f : Nat -> Nat := fun a => a\ndef y : Nat := f 1 2 3\n",
     {"code": "E-CONV", "line": 2, "column": 16, "start": 48, "end": 53,
      "message": "application of a non-function", "actual": "Nat"}),
    ("def L : U 1 := U 0\ndef z : L := U 0\n",
     {"code": "E-UNIVERSE", "line": 2, "column": 14, "start": 32, "end": 35,
      "message": "universe level mismatch: U 1 is not U 0",
      "expected": "U 0", "actual": "U 1"}),
], ids=["unfolded-expected", "later-argument", "partial-application", "universe"])
def test_mismatch_prints_the_unfolded_types_at_the_offending_subterm(capsys, tmp_path,
                                                                      text, diagnostic):
    path = tmp_path / "pin.ttt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["check", "--json", str(path)], capsys)
    assert (code, err) == (1, "")
    assert json_diagnostics(out) == [{"file": str(path), **diagnostic}]


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "definitely-missing.ttt"], capsys)
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_check_unreadable_file_is_a_usage_error(tmp_path, kind):
    good = os.path.join(STDLIB, "hom.ttt")
    bad = tmp_path / "bad.ttt"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"def a : Nat := zero -- \xff\xfe\n")
    result = subprocess.run(
        [sys.executable, "-m", "trikernel.cli", "check", good, str(bad)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""  # nothing is checked before every file is read
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: cannot read {bad}: ")


@pytest.mark.parametrize("argv, env", [
    (["corpus", "run", "--stdlib", "{missing}"], None),
    (["corpus", "run", "--prelude", "{missing}"], None),
    (["corpus", "prelude", "--prelude", "{missing}"], None),
    (["check", "--prelude", "{missing}", "{hom}"], None),
    (["check", "{hom}"], "{missing}"),
    (["check", "--prelude", "{not_utf8}", "{hom}"], None),
], ids=["corpus-stdlib", "corpus-prelude", "prelude-prelude", "check-prelude",
        "check-env-prelude", "check-prelude-not-utf-8"])
def test_unreadable_prelude_or_library_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                                        argv, env):
    not_utf8 = tmp_path / "prelude.ttt"
    not_utf8.write_bytes(b"axiom A : U 0 -- \xff\xfe\n")
    paths = {"missing": str(tmp_path / "missing"), "not_utf8": str(not_utf8),
             "hom": os.path.join(STDLIB, "hom.ttt")}
    if env:
        monkeypatch.setenv("TTT_PRELUDE", env.format(**paths))
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, env, culprit", [
    (["check", "--prelude", "{bad}", "{hom}"], None, "{bad}"),
    (["check", "{hom}"], "{bad}", "{bad}"),
    (["corpus", "run", "--prelude", "{bad}"], None, "{bad}"),
    (["corpus", "prelude", "--prelude", "{bad}"], None, "{bad}"),
    (["corpus", "run", "--stdlib", "{bad_manifest}"], None, "{bad_manifest}/manifest.txt"),
    (["corpus", "run", "--stdlib", "{bad_library}"], None, "{bad_library}/hom.ttt"),
], ids=["check-prelude", "check-env-prelude", "corpus-prelude", "prelude-prelude",
        "manifest", "library"])
def test_undecodable_prelude_manifest_or_library_names_its_path(capsys, tmp_path, monkeypatch,
                                                                  argv, env, culprit):
    not_utf8 = b"-- \xff\xfe\n"
    bad = tmp_path / "bad.ttt"
    bad.write_bytes(not_utf8)
    paths = {"bad": str(bad), "hom": os.path.join(STDLIB, "hom.ttt")}
    for case, broken in (("bad_manifest", "manifest.txt"), ("bad_library", "hom.ttt")):
        if "{%s}" % case in argv:  # a copy of the library with one file broken
            library = tmp_path / case
            shutil.copytree(STDLIB, library)
            (library / broken).write_bytes(not_utf8)
            paths[case] = str(library)
    if env:
        monkeypatch.setenv("TTT_PRELUDE", env.format(**paths))
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {culprit.format(**paths)}: 'utf-8' codec ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("old, new, message", [
    ("hom.ttt | pass | | hom-types", "hom.ttt | pass | hom-types",
     "malformed manifest line: 'hom.ttt | pass | hom-types,"),
    ("E-CONV:3:6", "E-CONV:x:y", "malformed expectation 'E-CONV:x:y', not pass, CODE or CODE:LINE:COLUMN"),
    ("segal.ttt | pass | simplices.ttt", "segal.ttt | pass | simplices.ttt,none.ttt",
     "segal.ttt depends on none.ttt, which has no entry"),
    ("simplices.ttt | pass | |", "simplices.ttt | pass | segal.ttt |",
     "dependency cycle: simplices.ttt -> segal.ttt -> simplices.ttt"),
], ids=["fields", "expectation", "unknown-dependency", "cycle"])
def test_malformed_manifest_is_a_usage_error(capsys, tmp_path, old, new, message):
    library = tmp_path / "library"
    shutil.copytree(STDLIB, library)
    manifest = library / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new))
    code, out, err = run_cli(["corpus", "run", "--stdlib", str(library)], capsys)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"error: {manifest}: {message}")


def test_an_empty_expectation_in_the_manifest_is_a_usage_error(capsys, tmp_path):
    library = tmp_path / "library"
    shutil.copytree(STDLIB, library)
    manifest = library / "manifest.txt"
    text = manifest.read_text()
    assert "\nhom.ttt | pass |" in text
    manifest.write_text(text.replace("\nhom.ttt | pass |", "\nhom.ttt |  |"))
    code, out, err = run_cli(["corpus", "run", "--stdlib", str(library)], capsys)
    assert (code, out, err) == (
        2, "", f"error: {manifest}: malformed expectation '', not pass, CODE or "
        "CODE:LINE:COLUMN\n")


def test_a_file_listed_twice_in_the_manifest_is_a_usage_error(capsys, tmp_path):
    library = tmp_path / "library"
    shutil.copytree(STDLIB, library)
    manifest = library / "manifest.txt"
    manifest.write_text(manifest.read_text() + "hom.ttt | E-CONV | |\n")
    code, out, err = run_cli(["corpus", "run", "--stdlib", str(library)], capsys)
    assert (code, out, err) == (2, "", f"error: {manifest}: hom.ttt is listed twice\n")


def test_an_entry_head_without_a_name_is_the_files_parse_error(capsys, tmp_path):
    """`def : Nat := zero` is no entry of a prelude or of a dependency, so
    the checker reports the file's own E-PARSE at its colon."""
    nameless = "def : Nat := zero\n"
    prelude = tmp_path / "prelude.ttt"
    prelude.write_text(nameless)
    code, out, err = run_cli(["corpus", "prelude", "--prelude", str(prelude)], capsys)
    assert (code, err) == (1, "")
    assert out.rstrip().endswith(f"{prelude}:1:5: E-PARSE: expected a definition name but found ':'")
    library = tmp_path / "library"
    shutil.copytree(STDLIB, library)
    (library / "simplices.ttt").write_text(nameless)
    code, out, err = run_cli(["corpus", "run", "--stdlib", str(library), "--json"], capsys)
    assert (code, err) == (1, "")
    first = json_diagnostics("\n".join(l for l in out.splitlines() if l.startswith("{")))[0]
    assert (first["file"], first["code"], first["line"], first["column"]) == (
        "simplices.ttt", "E-PARSE", 1, 5)
    assert "got dependency simplices.ttt failed" in out


def test_check_multiple_files_deterministic_order(capsys):
    bad = os.path.join(STDLIB, "neg", "universe-cycle.ttt")
    bad2 = os.path.join(STDLIB, "neg", "unbound-axiom.ttt")
    code, out1, _ = run_cli(["check", bad2, bad, "--json"], capsys)
    assert code == 1
    code, out2, _ = run_cli(["check", bad, bad2, "--json"], capsys)
    assert code == 1
    # output sorted by (file, offset) regardless of argument order
    assert out1 == out2
    assert len(json_diagnostics(out1)) == 2


def test_corpus_run(capsys):
    code, out, _ = run_cli(["corpus", "run"], capsys)
    assert code == 0
    assert "corpus: ok" in out


def test_corpus_prelude(capsys):
    code, out, _ = run_cli(["corpus", "prelude"], capsys)
    assert code == 0
    assert "prelude:" in out and "ok" in out


def test_env_var_prelude(capsys, tmp_path, monkeypatch):
    small = tmp_path / "tiny.ttt"
    small.write_text("axiom Base : U 0\n")
    user = tmp_path / "user.ttt"
    user.write_text("def use : U 0 := Base\n")
    monkeypatch.setenv("TTT_PRELUDE", str(small))
    code, out, _ = run_cli(["check", str(user)], capsys)
    assert code == 0


def test_prelude_flag_overrides(capsys, tmp_path):
    small = tmp_path / "tiny.ttt"
    small.write_text("axiom Base : U 0\n")
    user = tmp_path / "user.ttt"
    user.write_text("def use : U 0 := Base\n")
    code, _, _ = run_cli(["check", str(user), "--prelude", str(small)], capsys)
    assert code == 0
    # without the override the name is unbound against the real prelude
    code, out, _ = run_cli(["check", str(user), "--json"], capsys)
    assert code == 1
    assert json_diagnostics(out)[0]["code"] == "E-UNBOUND"


SHIPPED_PRELUDE = os.path.join(ROOT, "src", "trikernel", "prelude.ttt")
SLICE_CASES = {
    "interval-mismatch.ttt": "axiom b : Int\naxiom a : Int\n"
    "def t : (i : Int) -> (j : Int) -> b /\\ i /\\ a \\/ j = j /\\ a := fun i j => refl\n",
    "redefinition.ttt": "def transport : U 0 := Nat\n",
    "shadowing-binder.ttt": "def f : (sym : Nat) -> Nat := fun sym => sym\n",
}


def library_and_slice_cases(tmp_path):
    for name, text in SLICE_CASES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    library = sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(STDLIB) for name in names if name.endswith(".ttt")
    )
    assert len(library) == 17
    return library + [str(tmp_path / name) for name in SLICE_CASES]


def test_default_prelude_slice_agrees_with_the_whole_prelude(capsys, tmp_path):
    # without --prelude, check elaborates only the prelude entries the file
    # reaches; its output must be that of checking the whole shipped file
    outcomes = {}
    for path in library_and_slice_cases(tmp_path):
        sliced = run_cli(["check", "--json", path], capsys)
        whole = run_cli(["check", "--json", "--prelude", SHIPPED_PRELUDE, path], capsys)
        assert sliced == whole, path
        outcomes[os.path.basename(path)] = sliced[0], json_diagnostics(sliced[1])
    code, diags = outcomes["interval-mismatch.ttt"]
    assert code == 1 and [(d["code"], d["expected"], d["actual"]) for d in diags] == [
        ("E-CONV", "b /\\ (i /\\ a) \\/ j", "a /\\ j")
    ]
    code, diags = outcomes["redefinition.ttt"]
    assert code == 1 and [(d["code"], d["message"]) for d in diags] == [
        ("E-PARSE", "redefinition of 'transport'")
    ]
    assert outcomes["shadowing-binder.ttt"] == (0, [])


def test_explicit_prelude_is_checked_whole(capsys, tmp_path, monkeypatch):
    # an ill-typed entry that no file names is still reported when the
    # prelude is named by --prelude or TTT_PRELUDE
    with open(SHIPPED_PRELUDE, encoding="utf-8") as handle:
        text = handle.read()
    copy = tmp_path / "prelude.ttt"
    copy.write_text(text + "\naxiom never_named : zero\n", encoding="utf-8")
    bad_line = text.count("\n") + 2
    hom = os.path.join(STDLIB, "hom.ttt")
    for argv, env in ((["--prelude", str(copy)], None), ([], str(copy))):
        if env:
            monkeypatch.setenv("TTT_PRELUDE", env)
        code, out, _ = run_cli(["check", "--json", *argv, hom], capsys)
        assert code == 1
        assert [(d["file"], d["line"]) for d in json_diagnostics(out)] == [(str(copy), bad_line)]


def test_empty_env_var_prelude_is_unset(capsys, monkeypatch):
    # a set but empty TTT_PRELUDE names no prelude: the shipped one is sliced
    decls = []
    real_run_decl = Checker.run_decl

    def counted(self, decl):
        decls.append(decl.name)
        return real_run_decl(self, decl)

    def check_hom():
        decls.clear()
        return run_cli(["check", "--json", os.path.join(STDLIB, "hom.ttt")], capsys), len(decls)

    monkeypatch.setattr(Checker, "run_decl", counted)
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    unset = check_hom()
    monkeypatch.setenv("TTT_PRELUDE", "")
    assert check_hom() == unset
    assert unset[0] == (0, "", "")


def test_shipped_schema_matches_code():
    bare = json.loads(Diagnostic("f.ttt", "E-CONV", "m").to_json())
    full = json.loads(Diagnostic("f.ttt", "E-CONV", "m", expected="A", actual="B").to_json())
    assert set(SCHEMA["required"]) == set(bare)
    assert set(SCHEMA["properties"]) == set(full)
    jsonschema.validate(full, SCHEMA)


def test_schema_codes_are_the_codes_the_checker_raises():
    # every diagnostic code is written as one string literal in the package
    raised = set()
    for path in glob.glob(os.path.join(ROOT, "src", "trikernel", "*.py")):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        raised |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and re.fullmatch(r"E-[A-Z0-9-]+", node.value)}
    assert set(SCHEMA["properties"]["code"]["enum"]) == raised


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "trikernel.cli", "mode", "normalize", "s.g.g"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "s"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # importing is the largest part of a cold `trikernel check`; `dataclasses`
    # and the `inspect` it pulls in cost tens of milliseconds
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))

    def modules_after(statement):
        probe = f"{statement}; import sys; print(*sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, env=env, check=True)
        return set(result.stdout.split())

    added = modules_after("import trikernel.cli") - modules_after("pass")
    assert "trikernel.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _readme_block(heading):
    """The first fenced block under `heading` in the README."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    return re.search(rf"## {heading}\n\n```\w*\n(.*?)```", text, re.S).group(1)


def test_readme_library_block_executes():
    block = _readme_block("Library use")
    exec(compile(block, "README-library-block", "exec"), {})


def test_readme_command_block_parses_and_prints_what_it_shows(capsys):
    # every line parses, its [--option ...] brackets dropped, so a synopsis
    # cannot name an option the parser lacks; a `# -> X` line prints X
    shown = 0
    for line in _readme_block("The command line").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command.replace("[", "").replace("]", ""))
        assert argv[0] == "trikernel", line
        build_parser().parse_args(argv[1:])
        if comment.startswith(" -> "):
            code, out, _ = run_cli(argv[1:], capsys)
            assert out.strip() == comment[len(" -> "):].strip(), line
            shown += 1
    assert shown == 7
