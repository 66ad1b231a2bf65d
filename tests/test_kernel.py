"""Kernel behavior: typing, conversion, modal discipline, 2-cell action."""

import itertools
import os
import random
import sys
import time
from importlib import resources

import pytest

from trikernel.core import (
    App,
    BoolRec,
    CDecl,
    CLock,
    Const,
    Ctx,
    Down,
    FalseC,
    Fst,
    I0,
    I1,
    IntT,
    J,
    JoinT,
    Lam,
    LetMod,
    MeetT,
    MkMod,
    Modify,
    NatRec,
    NatT,
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    Suc,
    Term,
    TrueC,
    Univ,
    Up,
    Var,
    Zero,
    _KIDS,
    _LEAVES,
    _ROWS,
    _rows,
    apply_cell,
    mk_mkmod,
    mk_modify,
    nat_literal,
    shift,
    subst,
    subterms,
    syn_eq,
)
from trikernel import corpus, kernel, modality, syntax
from trikernel.diagnostics import KernelError
from trikernel.kernel import Checker, print_core
from trikernel.modality import (
    TwoCell,
    cell_normalize,
    cell_search,
    cell_whisker,
    generator_cell,
    identity_cell,
    normalize,
    parse_cell,
)
from trikernel.prelude import load_prelude
from trikernel.record import fields
from trikernel.syntax import parse_module, parse_term

from support import cell_eq, eager_conv, lock_candidates


def run(text):
    checker = Checker()
    diags = checker.check_source(text, "test.ttt")
    return checker, diags


def run_ok(text):
    checker, diags = run(text)
    assert diags == [], [d.render() for d in diags]
    return checker


def run_fail(text, code):
    _, diags = run(text)
    assert len(diags) == 1, [d.render() for d in diags]
    assert diags[0].code == code, diags[0].render()
    return diags[0]


def test_idfun_checks():
    run_ok("def idfun : (A : U 0) -> A -> A := fun A a => a")


def test_beta_reduction_in_conv():
    run_ok("check refl : (((fun a => a) : Int -> Int) 0) = 0")


def test_lattice_definitional_equality():
    run_ok("def absorb : (i : Int) -> (j : Int) -> i /\\ (j \\/ i) = i := fun i j => refl")
    run_ok("def unitlaw : (i : Int) -> (i \\/ 0) /\\ 1 = i := fun i => refl")


def test_conversion_decides_interval_heads_and_whnf_leaves_them():
    checker = Checker()
    # (i \/ 0) /\ 1 converts with the bare atom i
    assert checker.conv(MeetT(JoinT(Var(0), I0()), I1()), Var(0))
    assert checker.conv(MeetT(JoinT(Var(0), I0()), I0()), I0())
    term = MeetT(JoinT(Var(0), I0()), Var(1))
    assert checker.conv(term, MeetT(Var(0), Var(1)))
    # a meet is already in weak-head normal form
    assert checker.whnf(term) is term


def test_lock_examples():
    from trikernel.core import CDecl, CLock

    # locking by the path modality is exactly an interval hypothesis
    ctx = Ctx().lock(("p",))
    assert len(ctx.entries) == 1
    assert isinstance(ctx.entries[0], CDecl)
    assert ctx.entries[0].is_interval
    # locking by the identity is a no-op
    assert Ctx().lock(()).entries == ()
    # composite locks push generator by generator, outermost first
    ctx2 = Ctx().lock(("a", "p"))
    assert isinstance(ctx2.entries[0], CLock) and ctx2.entries[0].gen == "a"
    assert isinstance(ctx2.entries[1], CDecl) and ctx2.entries[1].is_interval


def test_modal_counit_via_eps0():
    run_ok(
        "def counit : (A : U 0 @ g) -> <g| A> -> A := "
        "fun A x => let mod{g}(y) = x in y"
    )


def test_codiscrete_unit_via_search():
    run_ok("def unit_s : (A : U 0) -> A -> <s| A> := fun A x => mod{s}(x)")


def test_escape_s_is_modality_error():
    diag = run_fail(
        "def bad : (A : U 0) -> (x : A @ s) -> A := fun A x => x", "E-MODALITY"
    )
    assert "no mediating 2-cell" in diag.message


def test_wrong_boundary_cell():
    run_fail(
        "def bad : (A : U 0 @ g) -> (x : A @ g) -> A := fun A x => x^{eta_gs}",
        "E-2CELL-BOUNDARY",
    )


def test_crisp_variable_not_usable_under_g_lock():
    run_fail(
        "def bad : (A : U 0) -> A -> <g| A> := fun A x => mod{g}(x)", "E-MODALITY"
    )


def test_universe_mismatch():
    run_fail("def bad : U 0 := U 0", "E-UNIVERSE")


def test_unbound_name():
    run_fail("def bad : U 0 := NotDefined", "E-UNBOUND")


def test_int_bool_confusion():
    run_fail("def bad : Bool := 0", "E-CONV")


def test_path_modal_type_is_interval_function():
    run_ok("check (fun i => i) : <p| Int>")
    run_ok("def to_fun : (B : U 0) -> <p| B> -> Int -> B := fun B f => f")
    run_ok("def from_fun : (B : U 0) -> (Int -> B) -> <p| B> := fun B f => f")
    # round trips are definitional (eta): checking the lambda side against
    # the inferred type of the variable side
    run_ok(
        "def path_rt : (B : U 0) -> (f : <p| B>) -> "
        "f = (fun i => f i) := fun B f => refl"
    )


@pytest.mark.parametrize("body", ["x", "fun i => x i"])
def test_interval_domain_gives_one_verdict_whatever_its_spelling(body):
    # the binding table and the context agree on whether a Pi binder is an
    # interval, so a constant that unfolds to `Int` acts as `Int` does
    def source(iv):
        return (f"def t : (A : U 0 @ g) -> (x : ((i : {iv}) -> A) @ g) -> "
                f"((i : {iv}) -> A) := fun A x => {body}")

    literal = run_fail(source("Int"), "E-CONV")
    alias = run_fail("def Iv : U 0 := Int\n" + source("Iv"), "E-CONV")
    assert (alias.message, alias.expected, alias.actual) == (
        literal.message, literal.expected, literal.actual)
    cod = "Int -> " if body == "x" else ""
    assert (literal.message, literal.expected, literal.actual) == (
        "type mismatch", cod + "A^{eps0}", cod + "A^{eps0*p}")


@pytest.mark.parametrize("body", ["x", "fun i => x i"])
def test_modal_binder_of_type_int_is_not_a_path_lock(body):
    # `i : Int @ g` is a g-modal hypothesis, not an interval variable, for
    # the 2-cell action as for the context
    run_ok("def t : (A : U 0 @ g) -> (x : ((i : Int @ g) -> A) @ g) -> "
           f"((i : Int @ g) -> A) := fun A x => {body}")


def test_modal_pi_application_locks_argument():
    run_ok(
        "axiom T : U 0\n"
        "axiom f : (x : T @ g) -> T\n"
        "def use : (y : T @ g) -> T := fun y => f y\n"
    )
    # an ordinary variable cannot feed a g-annotated binder
    run_fail(
        "axiom T : U 0\n"
        "axiom f : (x : T @ g) -> T\n"
        "def use : T -> T := fun y => f y\n",
        "E-MODALITY",
    )


def test_letmod_beta():
    run_ok(
        "axiom T : U 0\n"
        "axiom g0 : T -> T\n"
        "def letbeta : (a : T @ g) -> "
        "(let mod{g}(x) = mod{g}(a) in g0 x) = g0 a := fun a => refl"
    )


def test_letmod_at_the_identity_modality_reduces_on_any_scrutinee():
    # under mod{1} the bound variable is the scrutinee itself, boxed or not
    run_ok(
        "axiom T : U 0\n"
        "axiom g0 : T -> T\n"
        "def letbeta1 : (a : T) -> (let mod{1}(x) = a in g0 x) = g0 a := fun a => refl"
    )
    assert Checker().whnf(LetMod((), (), Var(3), Suc(Var(0)))) == Suc(Var(3))


def test_identity_type_over_a_letmod_type():
    # x's type is a let-mod elimination, whose own type is read off its body
    header = "axiom b : <g| U 1>\naxiom x : let mod{g}(B) = b in B\n"
    run_ok(header + "check (x = x) : U 1\n")
    run_fail(header + "check (x = x) : U 0\n", "E-UNIVERSE")


def test_composite_modality_roundtrip():
    run_ok(
        "def split_gs : (A : U 0 @ g.s) -> <g.s| A> -> <g| <s| A>> := "
        "fun A t => let mod{g.s}(x) = t in mod{g}(mod{s}(x))\n"
        "def merge_gs : (A : U 0 @ g.s) -> <g| <s| A>> -> <g.s| A> := "
        "fun A t => let mod{g}(y) = t in (let mod{s}(z) =[g] y in mod{g.s}(z))\n"
        # round trip is definitional on canonical elements (let-mod beta);
        # eta for modal types is deliberately not definitional
        "def rt_gs : (A : U 0 @ g.s) -> (a : A @ g.s) -> "
        "merge_gs A (split_gs A (mod{g.s}(a))) = mod{g.s}(a) := fun A a => refl\n"
        "def rt_nested : (A : U 0 @ g.s) -> (a : A @ g.s) -> "
        "split_gs A (merge_gs A (mod{g}(mod{s}(a)))) = mod{g}(mod{s}(a)) := "
        "fun A a => refl\n"
    )


def test_identity_modality_collapses():
    run_ok("def idmod : (B : U 0) -> <1| B> -> B := fun B x => x")
    checker = Checker()
    assert mk_modify((), IntT()) == IntT()
    assert checker.conv_str(mk_modify((), Univ(0)), Univ(0))


def test_mkmod_id_collapse_and_conv():
    run_ok("check mod{1}(0) : Int")


def test_coe_identity_and_eps0():
    run_ok(
        "axiom T : U 0\n"
        "def c0 : <g| T> -> T := fun t => coe{eps0}(t)\n"
        "def c1 : (B : U 0) -> B -> <s.g| B> := fun B b => coe{eta_gs}(b)\n"
    )


def test_coe_eta_pa_builds_path_functional():
    checker = run_ok(
        "axiom T : U 0\n"
        "def amazing : T -> <a| Int -> T> := fun t => coe{eta_pa}(t)\n"
    )
    assert "amazing" in checker.globals


def test_sym_via_j():
    run_ok(
        "def sym : (A : U 0) -> (a : A) -> (b : A) -> a = b -> b = a := "
        "fun A a b p => J(fun x q => x = a, refl, p)"
    )


def test_transport_via_j():
    run_ok(
        "def transport : (A : U 0) -> (P : A -> U 0) -> (a : A) -> (b : A) -> "
        "a = b -> P a -> P b := "
        "fun A P a b p x => J(fun y q => P y, x, p)"
    )


def test_natrec_computes():
    run_ok(
        "def add : Nat -> Nat -> Nat := "
        "fun m n => natrec(fun k => Nat, n, fun k r => succ r, m)\n"
        "check refl : add 2 3 = 5"
    )


def test_boolrec_computes():
    run_ok(
        "def toInt : Bool -> Int := fun b => boolrec(fun x => Int, 1, 0, b)\n"
        "check refl : toInt true = 1\n"
        "check refl : toInt false = 0"
    )


def test_sigma_projections():
    run_ok(
        "def swap : (A : U 0) -> (B : U 0) -> A * B -> B * A := "
        "fun A B p => (snd p, fst p)\n"
        "def eta_pair : (A : U 0) -> (B : U 0) -> (p : A * B) -> "
        "p = (fst p, snd p) := fun A B p => refl"
    )


def test_interval_instantiation():
    # a path-modal family is an interval function, so instantiation of a
    # family variable is application; the postfix form instantiates a type
    # expression elaborated under a fresh interval hypothesis
    run_ok(
        "def inst : (A : <p| U 0>) -> (i : Int) -> U 0 := fun A i => A i\n"
        "def inst2 : (B : U 0) -> (i : Int) -> U 0 := fun B i => B . i\n"
        "def inst3 : (A : U 0) -> <a| (i : Int) -> U 0> := "
        "fun A => mod{a}(fun i => (A^{eta_pa}) . i)"
    )


def test_cell_annotation_under_locks():
    # A^eta has to cross an a lock and an interval binder
    run_ok(
        "def acc : (A : U 0) -> <a| (i : Int) -> U 0> := "
        "fun A => mod{a}(fun i => A^{eta_pa})"
    )


def test_fail_check_pragma():
    run_ok('fail-check "E-MODALITY" (fun A x => x) : (A : U 0) -> (x : A @ s) -> A')
    # wrong expectation is itself a failure
    _, diags = run('fail-check "E-UNBOUND" (fun A x => x) : (A : U 0) -> (x : A @ s) -> A')
    assert len(diags) == 1


def test_apply_cell_identity_is_identity():
    term = Lam(App(Var(0), Var(1)))
    assert apply_cell(term, identity_cell(("g",))) == term


def test_apply_cell_distributes_over_application():
    eta = generator_cell("eta_pa")
    term = App(Var(0), Var(1))
    out = apply_cell(term, eta)
    assert out == App(Var(0, eta), Var(1, eta))


def test_apply_cell_whiskers_under_mod():
    eta = generator_cell("eta_gs")
    term = MkMod(("o",), Var(0))
    out = apply_cell(term, eta)
    expected_cell = cell_whisker(("o",), eta, side="right")
    assert out == MkMod(("o",), Var(0, expected_cell))


def test_children_lists_every_term_field_in_order():
    # a former missing from `_rows` would be a leaf to shift, subst,
    # apply_cell, syntactic equality and conversion; `_KIDS` names the same
    # fields, and `_LEAVES` holds the formers other than `Var` that have none
    data = {"int": 0, "str": "c", "Word": ("o",), "Optional[TwoCell]": None}
    for cls in Term.__subclasses__():
        term = cls(**{name: Var(n) if ann == "Term" else data[ann]
                      for n, (name, ann) in enumerate(fields(cls).items())})
        expected = [(name, getattr(term, name)) for name, ann in fields(cls).items() if ann == "Term"]
        assert [(name, getattr(term, name)) for name, *_ in _rows(term)] == expected, cls
        assert _KIDS[cls] == tuple(name for name, _ in expected), cls
    assert _LEAVES == {cls for cls in Term.__subclasses__()
                       if cls is not Var and "Term" not in fields(cls).values()}


def test_binding_table_has_a_row_for_exactly_the_formers_with_subterms():
    formers = {cls for cls in Term.__subclasses__() if "Term" in fields(cls).values()}
    assert set(_ROWS) == formers


def test_whnf_reduces_a_redex_of_every_redex_former():
    # a former missing from the set would be returned unreduced
    checker = Checker()
    checker.globals["c"] = kernel.GlobalDef(NatT(), Zero())
    step = Lam(Lam(Suc(Var(0))))
    samples = [
        (Const("c"), Zero()),
        (App(Lam(Suc(Var(0))), Zero()), Suc(Zero())),
        (Fst(Pair(Zero(), TrueC())), Zero()),
        (Snd(Pair(Zero(), TrueC())), TrueC()),
        (J(NatT(), Zero(), Refl()), Zero()),
        (NatRec(NatT(), TrueC(), step, Zero()), TrueC()),
        (NatRec(NatT(), Zero(), step, Suc(Zero())), Suc(NatRec(NatT(), Zero(), step, Zero()))),
        (BoolRec(NatT(), Zero(), Suc(Zero()), TrueC()), Zero()),
        (BoolRec(NatT(), Zero(), Suc(Zero()), FalseC()), Suc(Zero())),
        (LetMod((), ("g",), MkMod(("g",), Zero()), Var(0)), Zero()),
        (Down(Up(Zero())), Zero()),
    ]
    assert {type(redex) for redex, _ in samples} == kernel._REDEX_FORMERS
    for redex, reduct in samples:
        assert checker.whnf(redex) == reduct, redex


def test_apply_cell_whiskers_exactly_at_locks():
    eta = generator_cell("eta_pa")

    def by(*word):
        return cell_whisker(word, eta, side="right")

    cases = [
        # a Pi's domain sits under its word
        (Pi(("o",), Var(0), NatT()), Pi(("o",), Var(0, by("o")), NatT())),
        # an interval binder is a path lock; a Nat binder is not
        (Pi((), IntT(), Var(1)), Pi((), IntT(), Var(1, by("p")))),
        (Pi((), NatT(), Var(1)), Pi((), NatT(), Var(1, eta))),
        (Lam(Var(1)), Lam(Var(1, eta))),
        (Sigma(Var(0), Var(1)), Sigma(Var(0, eta), Var(1, eta))),
        (Modify(("o",), Var(0)), Modify(("o",), Var(0, by("o")))),
        (MkMod(("g",), Var(0)), MkMod(("g",), Var(0, by("g")))),
        (LetMod(("o",), ("g",), Var(0), Var(1)),
         LetMod(("o",), ("g",), Var(0, by("o")), Var(1, eta))),
        # bound variables are left untouched
        (Lam(Var(0)), Lam(Var(0))),
        (Pi((), IntT(), Var(0)), Pi((), IntT(), Var(0))),
    ]
    for term, expected in cases:
        assert apply_cell(term, eta) == expected, term


def test_conv_examples_from_idfun():
    checker = Checker()
    t1 = Lam(Lam(Var(0)))
    t2 = Lam(Lam(Var(0)))
    assert checker.conv(t1, t2)


def test_subject_reduction_samples():
    checker = run_ok(
        "def idfun : (A : U 0) -> A -> A := fun A a => a\n"
        "def applied : Int -> Int := idfun Int\n"
    )
    body = checker.globals["applied"].body
    reduced = checker.whnf(App(body, I0()))
    assert checker.conv(App(body, I0()), reduced)


def test_print_core_output():
    checker = run_ok("def c : (A : U 0) -> A -> A := fun A a => a")
    assert "U 0" in print_core(checker.globals["c"].ty)
    assert print_core(checker.globals["c"].ty) == "(x : U 0) -> x -> x"


def test_lifted_terms_print_and_elaborate_back():
    header = "axiom T : U 0\n"
    checker = run_ok(
        header
        + "def boxed : T -> Lift T := fun x => up x\n"
        + "def unboxed : Lift T -> T := fun x => down x\n"
    )
    printed = {
        name: (print_core(checker.globals[name].ty), print_core(checker.globals[name].body))
        for name in ("boxed", "unboxed")
    }
    assert printed == {
        "boxed": ("T -> Lift T", "fun x => up x"),
        "unboxed": ("Lift T -> T", "fun x => down x"),
    }
    again = run_ok(header + "".join(f"def {n} : {ty} := {body}\n" for n, (ty, body) in printed.items()))
    for name in printed:
        assert again.globals[name] == checker.globals[name], name


def test_print_core_nat_literals_are_not_endpoints():
    printed = [print_core(nat_literal(n)) for n in range(3)]
    assert printed == ["zero", "succ zero", "2"]
    assert [print_core(I0()), print_core(MeetT(Var(0), Var(1)), ["i", "j"])] == ["0", "j /\\ i"]


def _sample_former(cls, samples):
    """An instance of the record class `cls`, each field from `samples` by
    its annotation."""
    return cls(**{name: samples[ann] for name, ann in fields(cls).items()})


def test_every_former_reads_back_and_prints():
    # a former missing from both the tables and the explicit cases of
    # `readback` or `print_term` fails here, not inside a diagnostic
    core_samples = {"Term": Var(0), "Word": ("g",), "int": 2, "str": "c",
                    "Optional[TwoCell]": None}
    for cls in Term.__subclasses__():
        surface = kernel.readback(_sample_former(cls, core_samples), ["x"])
        assert isinstance(syntax.print_term(surface), str), cls
    surface_samples = {"STerm": syntax.SVar("x"), "Word": ("g",), "int": 2, "str": "c",
                       "tuple[TwoCell, ...]": (generator_cell("eps0"),), "Span": (0, 0)}
    for cls in syntax.STerm.__subclasses__():
        assert isinstance(syntax.print_term(_sample_former(cls, surface_samples)), str), cls


def test_expected_fail_check_prints_nothing(monkeypatch):
    calls = []
    real = kernel.print_core
    monkeypatch.setattr(kernel, "print_core", lambda *a: calls.append(a) or real(*a))
    decls = "axiom A : U 0\naxiom B : U 0\n"
    run_ok(decls + 'fail-check "E-CONV" (fun x => x) : A -> B\n')
    assert calls == []
    _, diags = run(decls + "check (fun x => x) : A -> B\n")
    assert (diags[0].expected, diags[0].actual) == ("B", "A")
    assert len(calls) == 2


def test_conv_at_int_compares_canonical_forms_without_recursion():
    # the meet of nine binary joins has 512 monomials in canonical form
    atoms = "".join(f"axiom x{k} : Int\naxiom y{k} : Int\n" for k in range(9))
    meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(9))
    run_ok(atoms + f"def t : {meet} = {meet} := refl\n")


def test_access_under_interval_binders_stops_at_first_candidate(monkeypatch):
    ctx = Ctx().extend("A", (), Univ(0)).extend("a", (), Var(0))
    for _ in range(12):
        ctx = ctx.extend("i", (), IntT())
    calls = []
    real = kernel.normalize
    monkeypatch.setattr(kernel, "normalize", lambda w: calls.append(w) or real(w))
    assert Checker().access_cell(ctx, 12, None, "a") is None
    assert len(calls) <= 2  # the annotation and the first candidate


def test_cross_file_redefinition_rejected():
    checker = Checker()
    assert checker.check_source("axiom T : U 0", "one.ttt") == []
    diags = checker.check_source("def T : U 0 := Int", "two.ttt")
    assert len(diags) == 1 and diags[0].code == "E-PARSE"
    assert "redefinition" in diags[0].message


def test_syn_eq_compares_structure_and_data_without_recursion():
    assert syn_eq(nat_literal(5000), nat_literal(5000))
    assert not syn_eq(nat_literal(5000), nat_literal(5001))
    assert syn_eq(Pi((), IntT(), Var(0)), Pi((), IntT(), Var(0)))
    assert not syn_eq(Pi(("g",), IntT(), Var(0)), Pi((), IntT(), Var(0)))
    assert not syn_eq(Const("a"), Const("b"))
    assert not syn_eq(Var(0), Var(1))
    cell = generator_cell("eps0", (), ())
    assert syn_eq(Var(0, cell), Var(0, cell))
    assert not syn_eq(Var(0, cell), Var(0))
    assert not syn_eq(Univ(0), Univ(1))


def test_large_nat_literal_converts_with_its_definition():
    run_ok("def n : Nat := 3000\ndef t : n = 3000 := refl\n")


def test_nat_literal_600_stays_accepted():
    # guards against comparing terms with the recursive dataclass `==`
    run_ok("def n : Nat := 600\ndef t : n = 600 := refl\n")


def test_unequal_large_nat_literals_are_a_conversion_error():
    diag = run_fail("def n : Nat := 3000\ndef t : n = 3001 := refl\n", "E-CONV")
    assert diag.span == (40, 44)


@pytest.mark.parametrize("n", [8, 12])
def test_permuted_meet_of_joins_under_a_function_is_fast(n):
    atoms = "".join(f"axiom x{k} : Int\naxiom y{k} : Int\n" for k in range(n))
    meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(n))
    permuted = " /\\ ".join(f"(y{k} \\/ x{k})" for k in reversed(range(n)))
    start = time.perf_counter()
    run_ok(atoms + f"axiom f : Int -> Nat\ndef t : f ({meet}) = f ({permuted}) := refl\n")
    assert time.perf_counter() - start < 1.0


def test_a_thousand_monomial_definition_converts_with_its_permutation():
    # `M` unfolds to a meet of n joins, which conversion folds once into
    # 2^n monomials; dropping one argument of a join is false
    for n in (10, 12):
        atoms = "".join(f"axiom x{k} : Int\naxiom y{k} : Int\n" for k in range(n))
        meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(n))

        def equation(joins):
            permuted = " /\\ ".join(joins)
            return atoms + f"def M : Int := {meet}\ndef t : M = {permuted} := refl\n"

        joins = [f"(y{k} \\/ x{k})" for k in reversed(range(n))]
        start = time.perf_counter()
        run_ok(equation(joins))
        assert time.perf_counter() - start < 0.5, n
        text = equation([f"y{n - 1}"] + joins[1:])
        diag = run_fail(text, "E-CONV")
        assert text[diag.span[0] : diag.span[1]] == "refl"
        # both sides print, each a join of all its monomials
        assert diag.expected.count(" \\/ ") == 2 ** n - 1
        assert diag.actual.count(" \\/ ") == 2 ** (n - 1) - 1


def test_a_failing_refl_normalises_its_sides_only_when_printed(monkeypatch):
    calls = []
    real = Checker._poly_term
    monkeypatch.setattr(Checker, "_poly_term", lambda self, p: calls.append(p) or real(self, p))
    atoms = "".join(f"axiom x{k} : Int\naxiom y{k} : Int\n" for k in range(8))
    meet = " /\\ ".join(f"(x{k} \\/ y{k})" for k in range(8))
    false = " /\\ ".join(["y7"] + [f"(y{k} \\/ x{k})" for k in reversed(range(7))])
    run_ok(atoms + f'fail-check "E-CONV" refl : {meet} = {false}\n')
    assert calls == []
    # printed, the sides are unfolded and put in canonical form as before
    text = "axiom x : Int\naxiom y : Int\ndef M : Int := x /\\ (x \\/ y)\ndef t : M = y := refl\n"
    diag = run_fail(text, "E-CONV")
    assert (diag.line, diag.column, diag.expected, diag.actual) == (4, 18, "x", "y")


def test_an_unreachable_lock_word_is_refuted_without_search(monkeypatch):
    expansions = []
    real = modality._expansions
    monkeypatch.setattr(modality, "_expansions", lambda w: expansions.append(w) or real(w))
    binders = " -> ".join(f"(i{k} : Int)" for k in range(8))
    names = " ".join(f"i{k}" for k in range(8))
    diag = run_fail(
        f"def bad : (A : U 0) -> (a : A) -> <g| {binders} -> A> := "
        f"fun A a => mod{{g}}(fun {names} => a)",
        "E-MODALITY",
    )
    words = ", ".join("g" + ".p" * k for k in range(9))
    assert diag.message == (
        "variable 'A' is annotated 1 but sits under locks g.p.p.p.p.p.p.p.p and no "
        f"mediating 2-cell was found to any word tried: {words} (depth 8)"
    )
    assert expansions == []


def test_too_deep_input_is_a_depth_diagnostic():
    diag = run_fail("def t : Nat := " + "(" * 3000 + "zero" + ")" * 3000, "E-DEPTH")
    assert diag.span == (0, 0)
    # the equation holds, but `k 3000` substitutes the 3000-deep literal
    # under the inner binder, which shifts it recursively
    text = ("def k : Nat -> Nat -> Nat := fun a b => a\n"
            "def f : Nat -> Nat := fun b => 3000\n"
            "def t : k 3000 = f := refl\n")
    diag = run_fail(text, "E-DEPTH")
    assert text[diag.span[0] : diag.span[1]] == "def t : k 3000 = f := refl"


def test_a_right_nested_parenthesised_join_of_250_levels_checks():
    join = "x \\/ (" * 249 + "x" + ")" * 249
    assert Checker().check_source(f"axiom x : Int\ncheck {join} : Int\n") == []


def test_beta_substitutes_every_argument_at_depth_zero():
    # both arguments go in at once, so the literal lands under no binder and
    # is not shifted; one substitution per argument would shift it under `b`
    run_ok("def k : Nat -> Nat -> Nat := fun a b => a\ndef t : k 3000 zero = 3000 := refl\n")


SPINE_HEADS = (
    "def F : U 0 := Nat -> Nat\n"
    "def g : Nat -> F := fun a b => b\n"
    "def h : (A : U 0 @ g) -> (x : A @ g) -> <g| A> := fun A x => mod{g}(x)\n"
    "axiom P : (A : U 0) -> A -> U 0\n"
)


@pytest.mark.parametrize("decl", [
    # the codomain unfolds to a function type in the middle of the spine
    "check g 1 2 : Nat",
    "fail-check \"E-CONV\" g 1 2 3 : Nat",
    # a later argument's domain is modal and mentions the first argument
    "check h Nat 3 : <g| Nat>",
    "fail-check \"E-MODALITY\" (fun n => h Nat n : Nat -> <g| Nat>) : Nat -> <g| Nat>",
    # `type_of` types a stuck spine whose second domain is its first argument
    "def e : (A : U 0) -> (a : A) -> (x : P A a) -> U 0 := fun A a x => x = x",
])
def test_application_spine_walks_the_head_type_once(decl):
    run_ok(SPINE_HEADS + decl + "\n")


def test_application_spine_types_each_argument_against_its_instantiated_domain():
    checker = run_ok(SPINE_HEADS)
    ctx = Ctx()
    term, ty = checker.infer(ctx, parse_term("h Nat 3"))
    assert print_core(term) == "h Nat 3"
    assert print_core(ty) == "<g| Nat>"
    spine = App(App(Const("P"), NatT()), Suc(Zero()))
    assert checker.type_of(ctx, spine) == Univ(0)
    _, diags = run(SPINE_HEADS + "def y : Nat := h Nat true\n")
    assert [(d.code, d.line, d.column, d.expected, d.actual) for d in diags] == [
        ("E-CONV", 5, 22, "Nat", "Bool")
    ]


def test_natrec_on_a_large_literal_reduces_without_deep_recursion():
    # the step case is substituted in one pass, so the recursive value built
    # on the 2999-deep predecessor is not walked again
    double = "fun n => natrec(fun k => Nat, zero, fun k r => succ (succ r), n)"
    run_ok(f"def d : Nat -> Nat := {double}\ndef t : d 3000 = 6000 := refl\n")


def test_natrec_step_that_is_not_a_literal_function():
    # the step is applied to the predecessor and the recursive value as it
    # is: a definition, an axiom, or an eta-expanded function
    def rec(step, n):
        return f"natrec(fun k => Nat, zero, {step}, {n})"

    checker = run_ok(
        "def f : Nat -> Nat -> Nat := fun k r => succ r\n"
        "axiom g : Nat -> Nat -> Nat\n"
        f"def t1 : {rec('f', 3)} = 3 := refl\n"
        f"def t2 : {rec('g', 2)} = g 1 (g 0 zero) := refl\n"
        f"def t3 : (n : Nat) -> {rec('g', 'n')} = {rec('fun k r => g k r', 'n')}"
        " := fun n => refl\n"
        f'fail-check "E-CONV" (fun n => refl) : (n : Nat) -> {rec("g", "n")} = '
        f"{rec('fun k r => g r k', 'n')}\n"
    )
    assert print_core(checker.globals["t1"].ty) == "natrec(fun n => Nat, zero, f, 3) = 3"


@pytest.mark.parametrize(
    "decl",
    [
        # lambdas at Int -> Int whose bodies are equal only in the lattice
        "def t : (j : Int) -> (fun i => i /\\ j : Int -> Int) = (fun i => j /\\ i : Int -> Int)"
        " := fun j => refl",
        # eta for a neutral function
        "axiom h : Int -> Int\ndef t : h = (fun i => h i : Int -> Int) := refl",
        # pairs at Int * Int with permuted meets and joins
        "def t : (i j : Int) -> ((i /\\ j, j \\/ i) : Int * Int) = ((j /\\ i, i \\/ j) : Int * Int)"
        " := fun i j => refl",
    ],
)
def test_conversion_at_function_and_pair_types(decl):
    run_ok(decl + "\n")


def test_conversion_at_function_types_tells_meet_from_join():
    run_fail(
        "def t : (j : Int) -> (fun i => i /\\ j : Int -> Int) = (fun i => i \\/ j : Int -> Int)"
        " := fun j => refl\n",
        "E-CONV",
    )


CONGRUENCE_HEADER = "axiom f : Int -> Int\ndef id : Int -> Int := fun x => x\n"


@pytest.mark.parametrize(
    "equation",
    [
        "f (i /\\ j) = f (j /\\ i)",
        "f (i \\/ j) = f (j \\/ i)",
        "f (i /\\ (i \\/ j)) = f i",
        "f (id i) = f i",
        "f (i /\\ j) /\\ k = k /\\ f (j /\\ i)",
        "k /\\ f (j /\\ i) = f (i /\\ j) /\\ k",
    ],
)
def test_interval_atoms_are_interned_up_to_conversion(equation):
    run_ok(CONGRUENCE_HEADER + f"def t : (i j k : Int) -> {equation} := fun i j k => refl\n")


def test_distinct_interval_atoms_stay_distinct():
    run_fail(
        CONGRUENCE_HEADER + "def t : (i j : Int) -> f (i /\\ j) = f (i \\/ j) := fun i j => refl\n",
        "E-CONV",
    )


def run_with_prelude(text):
    checker = Checker()
    assert load_prelude(checker) == []
    return checker.check_source(text, "test.ttt")


def test_printed_interval_form_does_not_depend_on_what_was_checked_before():
    # atom ids order the printed canonical forms; each declaration numbers
    # its own atoms, so the prelude loaded before it changes nothing
    text = (
        "axiom b : Int\naxiom a : Int\n"
        "def t : (i : Int) -> (j : Int) -> b /\\ i /\\ a \\/ j = j /\\ a := fun i j => refl\n"
    )
    for diags in (run(text)[1], run_with_prelude(text)):
        assert [(d.code, d.line, d.expected, d.actual) for d in diags] == [
            ("E-CONV", 3, "b /\\ (i /\\ a) \\/ j", "a /\\ j")
        ]


CELL_TYPE = "(A : U 0) -> (x : A) -> <a| (i : Int) -> A>"
CELL_DEF = "def c : " + CELL_TYPE + " := fun A x => mod{a}(fun i => x^{%s})"
COE_DEF = "def c : (A : U 0) -> A -> <s| A> := fun A y => coe{%s}(y)"


@pytest.mark.parametrize(
    "source, expected",
    [
        # a composite cell under two path locks
        ("def c : (A : U 0) -> (x : A) -> <a| (i : Int) -> <a| (j : Int) -> A>>"
         " := fun A x => mod{a}(fun i => mod{a}(fun j => x^{eta_pa ; eta_pa*a.p}))", None),
        (CELL_DEF % "eta_pa ; eta_gs",
         ("E-2CELL-BOUNDARY", 1, 83, "cannot compose a.p with 1")),
        # composition is checked when elaborating, so fail-check catches it
        ('fail-check "E-2CELL-BOUNDARY" (fun A x => mod{a}(fun i => x^{eta_pa ; eta_gs}))'
         " : " + CELL_TYPE, None),
        (CELL_DEF % "id(1) ; eta_pa", None),
        # a missing cell against an identity cell
        ("def c : (A : U 0) -> (x : A) -> x^{id(1)} = x := fun A x => refl", None),
        ("def c : (A : U 0) -> (x : A) -> A := fun A x => x^{eta_pa}",
         ("E-2CELL-BOUNDARY", 1, 49, "cell on 'x' ends at a.p but the locks compose to 1")),
        (COE_DEF % "eta_gs ; id(s)", None),
        (COE_DEF % "eta_gs ; eta_pa", ("E-2CELL-BOUNDARY", 1, 48, "cannot compose s with 1")),
    ],
)
def test_composite_and_identity_cells(source, expected):
    diags = run_with_prelude(source + "\n")
    if expected is None:
        assert diags == [], [d.render() for d in diags]
    else:
        assert [(d.code, d.line, d.column, d.message) for d in diags] == [expected]


@pytest.mark.parametrize(
    "source",
    [
        "axiom P : U 1 * U 1\naxiom y : snd P\n"
        'check (y = y) : U 1\nfail-check "E-UNIVERSE" (y = y) : U 0\n',
        "axiom P : U 1 * U 1\naxiom y : fst P\n"
        'check (y = y) : U 1\nfail-check "E-UNIVERSE" (y = y) : U 0\n',
        "axiom L : Lift (U 0)\naxiom y : down L\ncheck (y = y) : U 0\n",
        "axiom T : U 0\naxiom a : T\naxiom b : T\naxiom e : a = b\n"
        "axiom y : J(fun z q => U 0, Int, e)\ncheck (y = y) : U 0\n",
        "axiom n : Nat\naxiom y : natrec(fun k => U 0, Int, fun k r => r, n)\n"
        "check (y = y) : U 0\n",
        "axiom c : Bool\naxiom y : boolrec(fun k => U 0, Int, Nat, c)\ncheck (y = y) : U 0\n",
        'axiom y : Lift (U 0)\ncheck (y = y) : U 2\nfail-check "E-UNIVERSE" (y = y) : U 1\n',
    ],
)
def test_universe_of_a_type_headed_by_an_eliminator(source):
    # `lhs = rhs` takes its universe from the synthesised type of `lhs`
    diags = run_with_prelude(source)
    assert diags == [], [d.render() for d in diags]


def test_modality_error_lists_every_lock_word_tried():
    diag = run_fail(
        "def bad : (A : U 0) -> (x : A @ s) -> (i : Int) -> A := fun A x i => x",
        "E-MODALITY",
    )
    assert "no mediating 2-cell" in diag.message and "(depth 8)" in diag.message
    assert "under locks p" in diag.message
    assert "any word tried: 1, p " in diag.message


def test_cells_equal_up_to_normalisation_are_one_annotation():
    # a triangle identity is no annotation at all
    checker = run_ok("def t : (A : U 0 @ a) -> (x : A @ a) -> <a| A> := "
                     "fun A x => mod{a}(x^{eta_pa*a ; a*eps_pa})")
    (var,) = [u for u, _ in subterms(checker.globals["t"].body) if isinstance(u, Var)]
    assert var == Var(0, None)
    # a cell that is the unit only up to normalisation is built as the unit,
    # so syntactic equality decides the two variables
    factors = parse_cell("eta_pa*a ; a*eps_pa ; eta_pa*a")
    raw = TwoCell(("a",), ("a", "p", "a"), tuple(st for f in factors for st in f.steps))
    unit, built = checker.elab_cell(parse_cell("eta_pa*a")), checker.elab_cell(factors)
    assert raw != unit and cell_eq(raw, unit) and built == unit
    assert syn_eq(Var(0, built), Var(0, unit)) and checker.conv_str(Var(0, built), Var(0, unit))
    eps0 = generator_cell("eps0")
    assert not checker.conv(Var(0, None), Var(0, eps0))
    assert not checker.conv(Var(0, eps0), Var(0, unit))


def _scan_position(ctx, ix):
    """Var(ix)'s declaration, found by scanning the telescope from the right."""
    count = 0
    for pos in range(len(ctx.entries) - 1, -1, -1):
        if isinstance(ctx.entries[pos], CDecl):
            if count == ix:
                return pos
            count += 1
    raise IndexError(ix)


def _scan_access_cell(checker, ctx, ix, explicit):
    """What `access_cell` gives by the full enumeration of lock candidates:
    the 2-cell, ``None`` for the identity, or the diagnostic code."""
    pos = _scan_position(ctx, ix)
    annotation = normalize(ctx.entries[pos].word)
    trailing = tuple(e.gen if isinstance(e, CLock) else "p"
                     for e in ctx.entries[pos + 1 :] if isinstance(e, CLock) or e.is_interval)
    candidates = lock_candidates(trailing)
    if explicit is not None:
        if explicit.src != annotation or explicit.dst not in candidates:
            return "E-2CELL-BOUNDARY"
        return cell_normalize(explicit)
    if annotation in candidates:
        return None
    for target in candidates:
        found = cell_search(annotation, target)
        if found is not None:
            return cell_normalize(found)
    return "E-MODALITY"


def _assert_ctx_matches_scan(ctx):
    decls = [pos for pos, e in enumerate(ctx.entries) if isinstance(e, CDecl)]
    for ix in range(len(decls)):
        assert ctx._position(ix) == _scan_position(ctx, ix)
    with pytest.raises(IndexError):
        ctx._position(len(decls))
    locks = [pos for pos, e in enumerate(ctx.entries) if isinstance(e, CLock)]
    assert ctx.last_lock == (locks[-1] if locks else -1)
    for name in set(ctx.names()) | {"absent"}:
        scan = [ix for ix, pos in enumerate(reversed(decls)) if ctx.entries[pos].name == name]
        assert ctx.find(name) == (scan[0] if scan else None)


def _guard_access_cell(monkeypatch, outcomes):
    """Check every `access_cell` call against `_scan_access_cell`."""
    real = Checker.access_cell

    def guarded(self, ctx, ix, explicit, name):
        want = _scan_access_cell(self, ctx, ix, explicit)
        try:
            got = real(self, ctx, ix, explicit, name)
        except KernelError as err:
            assert err.diagnostic.code == want
            outcomes.append(want)
            raise
        assert got == want
        outcomes.append(got)
        return got

    monkeypatch.setattr(Checker, "access_cell", guarded)


def test_constant_time_variable_use_matches_telescope_scan_on_library(monkeypatch):
    checked, uses, outcomes = {}, [], []
    real_init = Ctx.__init__

    def checked_init(self, *args):
        real_init(self, *args)
        _assert_ctx_matches_scan(self)
        checked[id(self)] = self

    monkeypatch.setattr(Ctx, "__init__", checked_init)
    _guard_access_cell(monkeypatch, outcomes)
    guarded = Checker.access_cell

    def used(self, ctx, ix, explicit, name):
        uses.append(len(ctx.entries) if checked.get(id(ctx)) is ctx else None)
        return guarded(self, ctx, ix, explicit, name)

    monkeypatch.setattr(Checker, "access_cell", used)
    manifest = corpus.load_manifest()
    # the whole shipped prelude, not the slice each file reaches, so that
    # every prelude entry drives the guards
    shipped = str(resources.files("trikernel") / "prelude.ttt")
    for entry in manifest.entries:
        assert corpus.check_file(manifest, entry.file, prelude_path=shipped).ok, entry.file
    # a 12-binder telescope: the library builds contexts of at most 9
    # entries, since conversion compares a shared head's arguments instead
    # of unfolding it
    binders = " ".join(f"x{k}" for k in range(11))
    assert Checker().check_source(
        f"def t : (A : U 0) -> ({binders} : A) -> A := fun A {binders} => x0") == []
    # every variable use is in a context that the scan checked
    assert len(uses) > 10_000 and None not in uses and max(uses) >= 9
    assert max(len(ctx.entries) for ctx in checked.values()) >= 12
    assert outcomes.count(None) > 10_000 and len(outcomes) - outcomes.count(None) > 200
    assert outcomes.count("E-MODALITY") == 1  # neg/escape-s.ttt


def test_constant_time_variable_use_matches_enumeration_under_interval_binders(monkeypatch):
    outcomes = []
    _guard_access_cell(monkeypatch, outcomes)
    # a failed 2-cell search at the default depth 8 takes up to seconds on
    # these long lock words; the fast path does not depend on the depth
    monkeypatch.setattr(modality, "SEARCH_DEPTH", 3)
    checker = Checker()
    rng = random.Random(11)
    words = [(), ("g",), ("s",), ("g", "s"), ("s", "g")]
    for k in range(2, 13):
        for _ in range(6):
            ctx = Ctx().extend("A", (), Univ(0))
            steps = ["i"] * k + ["x", "y"] + [rng.choice("gs") for _ in range(rng.randint(0, 3))]
            rng.shuffle(steps)
            for step in steps:
                if step == "i":
                    ctx = (ctx.extend("i", (), IntT()) if rng.random() < 0.5
                           else ctx.lock(("p",)))
                elif step in "xy":
                    ctx = ctx.extend(step, rng.choice(words), Var(ctx.find("A")))
                else:
                    ctx = ctx.lock((step,))
            _assert_ctx_matches_scan(ctx)
            for ix in range(len(ctx.names())):
                try:
                    checker.access_cell(ctx, ix, None, "v")
                except KernelError:
                    pass
    cells = len(outcomes) - outcomes.count(None) - outcomes.count("E-MODALITY")
    assert outcomes.count(None) > 200 and outcomes.count("E-MODALITY") > 100 and cells > 50


def test_locking_by_the_empty_word_returns_the_context():
    ctx = Ctx().extend("x", (), Univ(0))
    assert ctx.lock(()) is ctx and ctx.lock(("o", "o")) is ctx
    assert ctx.lock(("o",)).entries == ctx.entries + (CLock("o"),)


def _lock_words_by_generator(word):
    """`Ctx.lock_words` of a variable declared before the locks `word`,
    pushed one generator at a time, since `Ctx.lock` normalises its word."""
    ctx = Ctx().extend("x", (), Univ(0))
    for gen in word:
        ctx = ctx.lock((gen,))
    return ctx.lock_words(word.count("p"))


def test_lock_words_match_the_subset_enumeration():
    gens = ("g", "s", "o", "p", "a")
    short = [w for n in range(7) for w in itertools.product(gens, repeat=n)]
    rng = random.Random(27)
    long = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 11))) for _ in range(20_000)]
    assert len(short) == 19_531
    for word in short + long:
        assert _lock_words_by_generator(word) == lock_candidates(word), word


def test_lock_words_under_many_interval_binders_are_linear():
    assert _lock_words_by_generator(("p",) * 16) == [("p",) * k for k in range(17)]
    binders = " -> ".join(f"(i{k} : Int)" for k in range(16))
    names = " ".join(f"i{k}" for k in range(16))
    start = time.perf_counter()
    run_ok(f"axiom A : U 0\ndef t : (x : A @ g) -> {binders} -> A := fun x {names} => x")
    assert time.perf_counter() - start < 0.1


def test_a_mixed_lock_word_tries_its_words_fewest_p_first():
    diag = run_fail(
        "def bad : (A : U 0) -> (x : A @ s) -> <g| (i : Int) -> <o| (j : Int) -> A>> := "
        "fun A x => mod{g}(fun i => mod{o}(fun j => x))",
        "E-MODALITY",
    )
    assert (diag.line, diag.column) == (1, 73)
    assert diag.message == (
        "variable 'A' is annotated 1 but sits under locks g.p.o.p and no mediating "
        "2-cell was found to any word tried: g, g.p, g.p.o, g.p.o.p (depth 8)"
    )


# Every shape diagnostic of the elaborator: (source, code, line, column,
# message, expected, actual), each checked by a fresh `Checker`.
SHAPE_DIAGNOSTICS = [
    ("axiom a : Nat\ndef t : Nat := a zero",
     "E-CONV", 2, 16, "application of a non-function", None, "Nat"),
    ("axiom a : Nat\ndef t : Nat := fst a",
     "E-CONV", 2, 16, "fst of a non-pair", None, "Nat"),
    ("axiom a : Nat\ndef t : Nat := snd a",
     "E-CONV", 2, 16, "snd of a non-pair", None, "Nat"),
    ("axiom a : Nat\ndef t : Nat := J(fun x q => Nat, zero, a)",
     "E-CONV", 2, 16, "J eliminates a path; this is not one", None, "Nat"),
    ("axiom a : Nat\ndef t : Nat := down a",
     "E-CONV", 2, 16, "down of an unlifted term", None, "Nat"),
    ("axiom a : Nat\naxiom e : a = a\ndef t : Nat := J(fun x => Nat, zero, e)",
     "E-CONV", 3, 16, "the J motive must be a literal two-argument function", None, None),
    ("def t : Nat := natrec(Nat, zero, fun k r => r, zero)",
     "E-CONV", 1, 16, "the natrec motive must be a literal function", None, None),
    ("def t : Nat := boolrec(Nat, zero, zero, true)",
     "E-CONV", 1, 16, "the boolrec motive must be a literal function", None, None),
    ("def t : Nat := (fun x => x) zero",
     "E-CONV", 1, 16, "cannot infer the type of a bare function; "
     "annotate it or check it against a type", None, None),
    ("def t : Nat := fst (zero, zero)",
     "E-CONV", 1, 20, "cannot infer the type of a bare pair; "
     "annotate it or check it against a type", None, None),
    ("def t : Nat := fst refl",
     "E-CONV", 1, 20, "cannot infer the type of refl; check it against an equation", None, None),
    ("def t : Nat := fun x => x",
     "E-CONV", 1, 16, "function literal against a non-function type", "Nat", None),
    ("def t : Nat := (zero, zero)",
     "E-CONV", 1, 16, "pair literal against a non-pair type", "Nat", None),
    ("def t : Nat := refl",
     "E-CONV", 1, 16, "refl against a non-equation type", "Nat", None),
    ("def t : Int := 2",
     "E-CONV", 1, 16, "2 is not an interval endpoint", None, None),
    ("def t : Nat := mod{g}(zero)",
     "E-CONV", 1, 16, "modal introduction mod{g} against a different type", "Nat", None),
    ("def t : Nat := mod{p}(zero)",
     "E-CONV", 1, 16, "path-modal introduction against a non-path type", "Nat", None),
    ("axiom a : Nat\ndef t : Nat := let mod{g}(x) = a in x",
     "E-CONV", 2, 16, "let-mod expects a value in <g| ->", "<g| _>", "Nat"),
    ("axiom a : <g| Nat>\ndef t : Nat := fst (let mod{g}(x) = a in (refl : x = x))",
     "E-CONV", 2, 20, "cannot infer a dependent let-mod; check it against a type", None, None),
    ("axiom a : Nat\ndef t : Nat := a^{id(1)}",
     "E-2CELL-BOUNDARY", 2, 16, "2-cell action on the constant 'a'", None, None),
    ("axiom f : Nat -> Nat\ndef t : (x : Nat) -> Nat := fun x => (f x)^{id(1)}",
     "E-MODALITY", 2, 38, "the 2-cell action elaborates on variables only; "
     "apply it before compounding the term", None, None),
    ("axiom f : Nat -> Nat\ndef t : Nat := f (zero : Nat @ g)",
     "E-MODALITY", 2, 18, "modal annotation outside a binder", None, None),
]


@pytest.mark.parametrize("source, code, line, column, message, expected, actual",
                         SHAPE_DIAGNOSTICS, ids=[row[4][:40] for row in SHAPE_DIAGNOSTICS])
def test_shape_diagnostic(source, code, line, column, message, expected, actual):
    (d,) = Checker().check_source(source)
    assert (d.code, d.line, d.column, d.message) == (code, line, column, message)
    assert (d.expected, d.actual) == (expected, actual)


def test_an_explicit_identity_cell_is_no_annotation():
    checker = run_ok(
        "def t : (A : U 0 @ g) -> (x : A @ g) -> <g| A> := fun A x => mod{g}(x^{id(g)})"
    )
    body = checker.globals["t"].body
    (var,) = [u for u, _ in subterms(body) if isinstance(u, Var)]
    assert var == Var(0, None)
    assert print_core(body) == "fun x x0 => mod{g}(x0)"


@pytest.mark.parametrize("source", [
    "def f : (A : U 0) -> (a : A) -> <p| A> := fun A a => mod{p}(a)",
    "def f : (A : U 0 @ g) -> (a : A @ g) -> <g.p| A> := fun A a => mod{g.p}(a)",
    # an interval domain through a definition still binds an interval: a
    # body that is `Int`, a variable or a redex under its lambdas is unfolded
    "def Iv : U 0 := Int\ndef f : (A : U 0) -> (a : A) -> (i : Iv) -> A := fun A a => mod{p}(a)",
    "def F : U 0 -> U 0 := fun A => A\n"
    "def f : (A : U 0) -> (a : A) -> (i : F Int) -> A := fun A a => mod{p}(a)",
    "def F : Bool -> U 0 := fun b => boolrec(fun k => U 0, Int, Nat, b)\n"
    "def f : (A : U 0) -> (a : A) -> (i : F true) -> A := fun A a => mod{p}(a)",
])
def test_path_modal_introduction(source):
    run_ok(source)


@pytest.mark.parametrize("source, column, expected", [
    ("def t : (A : U 0) -> (a : A) -> (i : Int @ g) -> A := fun A a => mod{p}(a)",
     66, "(_ : Int @ g) -> A"),
    ("def u : (i : Int @ g) -> Int := mod{p}(i)", 33, "(_ : Int @ g) -> Int"),
])
def test_path_modal_introduction_against_a_modal_binder_of_type_int(source, column, expected):
    # `i : Int @ g` is a g-modal hypothesis, not an interval variable, so
    # there is no path lock to introduce
    (d,) = Checker().check_source(source)
    assert (d.code, d.line, d.column, d.message, d.expected) == (
        "E-CONV", 1, column, "path-modal introduction against a non-path type", expected)


def test_path_modal_introduction_of_an_ill_typed_body():
    _, diags = run("def f : (A : U 0) -> (a : A) -> <p| A> := fun A a => mod{p}(A)")
    assert [(d.code, d.line, d.column, d.message) for d in diags] == [
        ("E-CONV", 1, 61, "type mismatch")
    ]


def test_inferred_nat_literal_above_the_endpoints():
    run_ok("def t : 3 = 3 := refl")
    _, diags = run("def t : 3 = 4 := refl")
    assert [(d.code, d.line, d.column) for d in diags] == [("E-CONV", 1, 18)]


def test_direct_elaboration_locates_at_the_innermost_spanned_subterm():
    checker = Checker()
    with pytest.raises(KernelError) as err:
        checker.infer(Ctx(), parse_term("fst (zero, zero)"))
    assert (err.value.diagnostic.file, err.value.diagnostic.span) == ("<input>", (4, 16))
    with pytest.raises(KernelError) as err:
        checker.check(Ctx(), parse_term("(zero, succ true)"), Sigma(NatT(), NatT()))
    assert err.value.diagnostic.span == (12, 16)
    # a subterm built without a span takes the span of the nearest term with one
    unspanned = syntax.SFst(syntax.SPair(syntax.SConstT("zero"), syntax.SConstT("zero")),
                            span=(3, 9))
    with pytest.raises(KernelError) as err:
        checker.infer(Ctx(), unspanned)
    assert err.value.diagnostic.span == (3, 9)


def test_a_checker_reports_each_module_under_its_own_path():
    checker = Checker()
    assert checker.check_source("axiom A : U 0\n", "first.ttt") == []
    (d,) = checker.check_source("axiom b : A\ndef c : A := zero\n", "second.ttt")
    assert (d.file, d.code, d.line, d.column) == ("second.ttt", "E-CONV", 2, 14)
    (d,) = checker.check_source("def e : A := b b\n", "third.ttt")
    assert (d.file, d.code, d.line, d.column) == ("third.ttt", "E-CONV", 1, 14)


def test_constant_types_are_built_once(monkeypatch):
    # an inferred `Int` is the object an `axiom x : Int` is stored at
    checker = Checker()
    assert checker.check_source("axiom x : Int\naxiom y : Int") == []
    _, ty = checker.infer(Ctx(), parse_term("x /\\ y"))
    assert ty is checker.globals["x"].ty
    # so checking each leaf of a meet of 8 joins against `Int` ends at the
    # identity test that `syn_eq` makes first
    calls, past_identity = [], []
    original = kernel.syn_eq

    def counting(a, b):
        calls.append(a)
        if a is not b:
            past_identity.append((a, b))
        return original(a, b)

    monkeypatch.setattr(kernel, "syn_eq", counting)
    meet = " /\\ ".join(["(x \\/ y)"] * 8)
    assert checker.check_source(f"check {meet} : Int") == []
    assert len(calls) >= 16 and past_identity == []


def test_a_shared_head_converts_by_its_arguments_without_unfolding(monkeypatch):
    # `big A` unfolds to a Sigma of 41 components
    checker = run_ok("def id : U 0 -> U 0 := fun A => A\n"
                     "def big : U 0 -> U 0 := fun A => " + "A * " * 40 + "A\n")
    body = checker.globals["big"].body.body
    instantiated = []
    original = kernel.instantiate

    def recording(t, args):
        instantiated.append(t)
        return original(t, args)

    monkeypatch.setattr(kernel, "instantiate", recording)
    assert checker.check_source("def t : (A : U 0) -> big (id A) -> big A := fun A x => x") == []
    assert instantiated and not any(t is body for t in instantiated)


def test_a_shared_head_whose_arguments_differ_converts_by_unfolding():
    checker = run_ok("def const : U 0 -> Nat -> U 0 := fun A x => A\n"
                     "def t : (x y : Nat) -> const Nat x -> const Nat y := fun x y a => a\n")
    # spines of one head are compared argument by argument only at one length
    const_nat = App(Const("const"), NatT())
    assert not checker.conv(const_nat, App(const_nat, Zero()))


@pytest.mark.parametrize("decl, message, expected, actual", [
    ("def t : pick Nat Bool -> pick Bool Nat := fun a => a", "type mismatch", "Bool", "Nat"),
    ("def t : pick Nat Bool = pick Bool Nat := refl", "refl requires definitionally equal sides",
     "Nat", "Bool"),
])
def test_a_shared_head_whose_unfoldings_differ_is_a_conversion_error(decl, message, expected,
                                                                     actual):
    d = run_fail("def pick : U 0 -> U 0 -> U 0 := fun A B => A\n" + decl, "E-CONV")
    assert (d.line, d.message, d.expected, d.actual) == (2, message, expected, actual)


def test_nested_shared_heads_whose_arguments_differ_fail_in_polynomial_time(monkeypatch):
    # each level's unfolding holds the failed pair of the level below twice:
    # compared by its arguments again at each copy, 24 levels would take
    # some 2**24 unfoldings
    def nested(leaf, depth):
        for _ in range(depth):
            leaf = f"g ({leaf})" if " " in leaf else f"g {leaf}"
        return leaf

    calls = []
    original = Checker.whnf

    def counting(self, t):
        calls.append(t)
        assert len(calls) < 5_000
        return original(self, t)

    monkeypatch.setattr(Checker, "whnf", counting)
    d = run_fail("axiom x : U 0\naxiom y : U 0\ndef g : U 0 -> U 0 := fun A => A * A\n"
                 f"def t : {nested('x', 24)} -> {nested('y', 24)} := fun z => z\n", "E-CONV")
    # the diagnostic is the one that unfolding everything gives
    assert (d.expected, d.actual) == (f"{nested('y', 23)} * {nested('y', 23)}",
                                      f"{nested('x', 23)} * {nested('x', 23)}")


def test_unfolding_only_where_it_is_read_agrees_with_unfolding_everywhere(monkeypatch):
    # the differential guard of each skipped unfolding: every outermost
    # conversion against the eager relation, every Pi domain tested without
    # a whnf against its whnf, and every type read from a declared type
    # against the type of the unfolded term
    convs, shared, domains, levels, depth = [], [], [], [], [0]
    real_conv, real_is_int = Checker.conv, Checker._is_int
    real_type_of, real_whnf = Checker.type_of, Checker.whnf

    def conv(self, t, u):
        (te, _), (ue, _) = self._head(t), self._head(u)
        if te is ue and te is not None and te.body is not None and not syn_eq(t, u):
            shared.append(t)
        depth[0] += 1
        try:
            got = real_conv(self, t, u)
        finally:
            depth[0] -= 1
        if not depth[0]:
            assert got == eager_conv(self, t, u), (print_core(t), print_core(u))
            convs.append(got)
        return got

    def is_int(self, ty):
        unfolded = []
        self.whnf = lambda t: unfolded.append(t) or real_whnf(self, t)
        try:
            got = real_is_int(self, ty)
        finally:
            del self.whnf
        assert got == (type(self.whnf(ty)) is IntT), print_core(ty)
        if not unfolded:
            domains.append(got)
        return got

    def type_of(self, ctx, t):
        got = real_type_of(self, ctx, t)
        entry, _ = self._head(t)
        if entry is not None and entry.body is not None:
            unfolded = real_type_of(self, ctx, self.whnf(t))
            want = self.whnf(unfolded)
            if isinstance(want, Univ):
                assert self.whnf(got) == want, print_core(t, ctx.names())
                levels.append(want.level)
            else:
                assert eager_conv(self, got, unfolded), print_core(t, ctx.names())
        return got

    monkeypatch.setattr(Checker, "conv", conv)
    monkeypatch.setattr(Checker, "_is_int", is_int)
    monkeypatch.setattr(Checker, "type_of", type_of)
    manifest = corpus.load_manifest()
    shipped = str(resources.files("trikernel") / "prelude.ttt")
    for entry in manifest.entries:  # the passing and the negative files
        for prelude_path in (None, shipped):  # sliced and whole
            assert corpus.check_file(manifest, entry.file, prelude_path=prelude_path).ok
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench"))
    import intervalgen

    for seed in (1, 7):
        rng = random.Random(seed)
        for case in (case for _ in range(4) for case in intervalgen.make_round(rng)):
            Checker().check_source(case.text)
    # each skipped unfolding was met, and conversions of both verdicts
    assert len(convs) > 20_000 and convs.count(False) > 200 and len(shared) >= 40
    assert len(domains) >= 500 and len(levels) >= 250
