"""The value classes built by `record`: equality, hashing, immutability."""

from __future__ import annotations

import pytest

from trikernel.core import App, IntT, NatT, Term, Var
from trikernel.corpus import CorpusReport
from trikernel.record import field, fields, record
from trikernel.syntax import SApp, SVar


def test_frozen_term_refuses_assignment_and_deletion():
    v = Var(0)
    with pytest.raises(AttributeError):
        v.ix = 1
    with pytest.raises(AttributeError):
        del v.cell
    assert v == Var(0)


def test_term_equality_checks_the_exact_class_and_every_field():
    assert NatT() != IntT()
    assert Var(0) != Var(1)
    assert App(Var(0), NatT()) == App(Var(0), NatT())
    assert hash(App(Var(0), NatT())) == hash(App(Var(0), NatT()))
    assert len({NatT(), NatT(), IntT()}) == 2


def test_surface_terms_ignore_span_and_are_unhashable():
    assert SVar("x", span=(0, 1)) == SVar("x", span=(5, 9))
    assert SVar("x") != SVar("y")
    with pytest.raises(TypeError):
        hash(SVar("x"))


def test_defaults_and_fresh_mutable_defaults():
    assert Var(0).cell is None
    first, second = CorpusReport([]), CorpusReport([])
    first.problems.append("p")
    assert second.problems == []


def test_match_args_leave_out_keyword_only_fields():
    assert SApp.__match_args__ == ("fn", "arg")
    assert Var.__match_args__ == ("ix", "cell")
    with pytest.raises(TypeError):
        SVar("x", (0, 1))
    match SApp(SVar("f"), SVar("x"), span=(0, 3)):
        case SApp(SVar(f), SVar(x)):
            assert (f, x) == ("f", "x")


def test_repr_names_every_field():
    assert repr(Var(0)) == "Var(ix=0, cell=None)"
    assert repr(SVar("x")) == "SVar(span=(0, 0), name='x')"


def test_field_table_lists_inherited_fields_with_annotations():
    assert fields(App) == {"fn": "Term", "arg": "Term"}
    assert fields(SVar) == {"span": "Span", "name": "str"}

    @record(frozen=True)
    class Base:
        a: int
        tag: str = field("", compare=False)

    class Derived(Base):
        b: tuple = ()

    assert fields(Derived) == {"a": "int", "tag": "str", "b": "tuple"}
    assert Derived(1, "x") == Derived(1, "y", ())
    assert hash(Derived(1, "x")) == hash(Derived(1, "y"))
    assert Derived(1) != Base(1)
    assert isinstance(Var(0), Term)


def test_subclass_constructed_before_its_base():
    @record(frozen=True)
    class Base:
        a: int

    class Derived(Base):
        b: int = 0

    derived = Derived(1, 2)
    assert (derived.a, derived.b) == (1, 2)
    assert Base(1) != Derived(1, 0) and Base(1) == Base(1)
    assert Derived(1, 2) == derived and hash(Derived(1, 2)) == hash(derived)
    assert repr(Base(3)) == "Base(a=3)"


def test_class_never_constructed_has_its_field_table():
    @record
    class Never:
        x: int
        y: str = field("", kw_only=True)

    assert fields(Never) == {"x": "int", "y": "str"}
    assert Never.__match_args__ == ("x",)
    assert "__eq__" not in vars(Never)
    assert Never(1, y="a").y == "a" and "__eq__" in vars(Never)


def test_equality_and_hash_span_the_first_and_later_instances():
    @record(frozen=True)
    class Frozen:
        a: int
        b: tuple = ()

    @record
    class Mutable:
        a: int
        items: list = []

    first, later = Frozen(1), Frozen(1)
    assert first == later and hash(first) == hash(later)
    assert first != Frozen(2) and Frozen(1, (2,)) != later
    first, later = Mutable(1), Mutable(1)
    assert first == later and first != Mutable(2)
    assert first.items is not later.items
    for instance in (first, later):
        with pytest.raises(TypeError):
            hash(instance)
