"""Adversarial and concurrency coverage beyond the acceptance gate."""

import threading

import pytest

from trikernel.kernel import Checker
from trikernel.modality import cell_search
from trikernel.prelude import load_prelude


def run(text):
    checker = Checker()
    load_prelude(checker)
    return checker, checker.check_source(text, "hardening.ttt")


def run_ok(text):
    checker, diags = run(text)
    assert diags == [], [d.render() for d in diags]
    return checker


def run_fail(text, code):
    _, diags = run(text)
    assert len(diags) == 1 and diags[0].code == code, [d.render() for d in diags]
    return diags[0]


def test_dependent_natrec_motive():
    # a point of every cube, by recursion with a genuinely dependent motive
    run_ok(
        "def origin : (n : Nat) -> cube n := "
        "fun n => natrec(fun k => cube k, refl, fun k r => (0, r), n)\n"
        "check refl : fst (origin 2) = 0\n"
        "check refl : fst (snd (origin 3)) = 0\n"
    )


def test_dependent_boolrec_motive():
    run_ok(
        "def pick_ty : (b : Bool) -> boolrec(fun x => U 0, Int, Bool, b) := "
        "fun b => boolrec(fun x => boolrec(fun y => U 0, Int, Bool, x), 1, false, b)\n"
        "check refl : pick_ty true = 1\n"
    )


def test_simplex_family_computes():
    # simplex 0 is the one-point type 0 = 0 packaged with its bound
    checker = run_ok("def d0 : simplex 0 := refl")
    assert "d0" in checker.globals


def test_simplex_one_is_interval_like():
    run_ok(
        "def d1 : simplex 1 := (1, (refl, refl))\n"
        "def d1' : simplex 1 := (0, (refl, refl))\n"
    )


def test_modal_type_words_normalize_at_formation():
    run_ok(
        "axiom T : U 0\n"
        "def collapse : <s.g| T> -> <s| T> := fun x => x\n"
        "def collapse2 : <o.o| T> -> T := fun x => x\n"
        "def collapse3 : <g.a| T> -> <g| T> := fun x => x\n"
    )


def test_distinct_modal_types_do_not_collapse():
    run_fail(
        "axiom T : U 0\n"
        "def wrong : <g| T> -> <s| T> := fun x => x\n",
        "E-CONV",
    )


def test_internal_path_factor_modal_type():
    # p.a keeps its internal path factor; the type is not a function type
    run_ok(
        "axiom T : U 0\n"
        "def wrap : <p.a| T> -> <p.a| T> := fun x => x\n"
    )


def test_coe_out_of_path_rejected():
    run_fail(
        "axiom T : U 0\n"
        "axiom t0 : <p.a| T>\n"
        "def bad : T := coe{eps_pa}(t0)\n",
        "E-MODALITY",
    )


def test_coe_wrong_source_rejected():
    run_fail(
        "axiom T : U 0\n"
        "axiom t0 : <s| T>\n"
        "def bad : T := coe{eps0}(t0)\n",
        "E-CONV",
    )


def test_path_annotated_binder_rejected():
    run_fail("def bad : (x : Int @ p) -> Int := fun x => 0", "E-MODALITY")


def test_letmod_over_path_rejected():
    run_fail(
        "axiom T : U 0\n"
        "axiom t0 : <p.a| T>\n"
        "def bad : T -> T := fun y => let mod{p.a}(x) = t0 in y\n",
        "E-MODALITY",
    )


def test_fail_check_wrong_code_reports_actual():
    _, diags = run(
        'fail-check "E-UNIVERSE" (fun A x => x) : (A : U 0) -> (x : A @ s) -> A'
    )
    assert len(diags) == 1
    assert diags[0].code == "E-MODALITY"
    assert "fail-check expected E-UNIVERSE" in diags[0].message


def test_fail_check_unexpected_success():
    _, diags = run('fail-check "E-CONV" 0 : Int')
    assert len(diags) == 1
    assert diags[0].code == "E-CONV"
    assert "type-checked" in diags[0].message


def test_lift_up_down():
    run_ok(
        "axiom T : U 0\n"
        "def boxed : T -> Lift T := fun x => up x\n"
        "def unboxed : Lift T -> T := fun x => down x\n"
        "def rt : (x : T) -> down (up x) = x := fun x => refl\n"
        "check Lift T : U 1\n"
    )


def test_lift_level_mismatch():
    run_fail("axiom T : U 0\ndef bad : Lift T := 0\n", "E-CONV")


def test_eta_for_functions_against_neutral():
    run_ok(
        "axiom T : U 0\n"
        "axiom f0 : T -> T\n"
        "def eta : f0 = (fun x => f0 x) := refl\n"
    )


def test_eta_for_pairs_against_neutral():
    run_ok(
        "axiom T : U 0\n"
        "axiom p0 : T * T\n"
        "def eta : p0 = (fst p0, snd p0) := refl\n"
    )


def test_sigma_spine_conversion():
    run_ok(
        "axiom T : U 0\n"
        "axiom p0 : T * T\n"
        "def same : fst p0 = fst p0 := refl\n"
    )


def test_concurrent_checkers_are_independent():
    sources = [
        "def a : Int := 0 \\/ 1",
        "def b : (i : Int) -> i /\\ i = i := fun i => refl",
        "def c : (A : U 0) -> A -> <s| A> := fun A x => mod{s}(x)",
        "def d : Nat := succ (succ zero)",
    ]
    failures = []

    def work(src):
        try:
            checker = Checker()
            load_prelude(checker)
            diags = checker.check_source(src, "thread.ttt")
            if diags:
                failures.append(diags)
        except Exception as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in sources * 3]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


def test_depth_zero_blocks_search_access():
    checker = Checker()
    diags = checker.check_source(
        "def unit_s : (A : U 0) -> A -> <s| A> := fun A x => mod{s}(x)",
        "depth.ttt",
    )
    assert diags == []
    # the codiscrete unit needs exactly one step
    assert len(cell_search((), ("s",)).steps) == 1
    checker2 = Checker()
    diags2 = checker2.check_source(
        "axiom T : U 0\n"
        "def two_steps : (phi : T @ g) -> <s| T> := fun phi => mod{s}(phi)\n",
        "depth2.ttt",
    )
    assert diags2 == []
    # g => s needs one whiskered unit application
    assert len(cell_search(("g",), ("s",)).steps) == 1


def test_whnf_down_up_and_neutral():
    from trikernel.core import Down, I0, Up, Var

    checker = Checker()
    assert checker.whnf(Down(Up(I0()))) == I0()
    neutral = checker.whnf(Down(Var(0)))
    assert neutral == Down(Var(0))
