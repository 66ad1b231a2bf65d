"""Tests of the benchmark's own lattice decision procedure and generator."""

import random
from collections import Counter

import pytest

import intervalgen
from intervalgen import equal


def parse(text: str):
    """Fully parenthesised terms over single-letter atoms: (a & b), (a | b)."""
    def go(pos):
        if text[pos] == "(":
            lhs, pos = go(pos + 1)
            op = "meet" if text[pos] == "&" else "join"
            rhs, pos = go(pos + 1)
            assert text[pos] == ")"
            return (op, lhs, rhs), pos + 1
        return ("atom", text[pos]), pos + 1

    term, end = go(0)
    assert end == len(text)
    return term


LAWS = [
    ("(a&b)", "(b&a)"),
    ("(a|b)", "(b|a)"),
    ("((a&b)&c)", "(a&(b&c))"),
    ("((a|b)|c)", "(a|(b|c))"),
    ("(a&a)", "a"),
    ("(a|a)", "a"),
    ("(a&(a|b))", "a"),
    ("(a|(a&b))", "a"),
    ("(a&(b|c))", "((a&b)|(a&c))"),
    ("(a|(b&c))", "((a|b)&(a|c))"),
    ("(((a|b)&(b|c))&(c|a))", "(((a&b)|(b&c))|(c&a))"),  # median
    ("((a|b)&(c|d))", "((((a&c)|(a&d))|(b&c))|(b&d))"),
]

NON_LAWS = [
    ("a", "b"),
    ("(a&b)", "a"),
    ("(a|b)", "(a&b)"),
    ("((a&b)|c)", "(a&(b|c))"),
    ("(a|(b&c))", "((a|b)&c)"),
    ("(a&(b|c))", "((a&b)|c)"),
    ("((a|b)&(c|d))", "(((a&c)|(a&d))|(b&c))"),
]


@pytest.mark.parametrize("lhs,rhs", LAWS)
def test_laws_hold(lhs, rhs):
    assert equal(parse(lhs), parse(rhs))
    assert equal(parse(rhs), parse(lhs))


@pytest.mark.parametrize("lhs,rhs", NON_LAWS)
def test_non_laws_fail(lhs, rhs):
    assert not equal(parse(lhs), parse(rhs))


def test_truth_table_bits():
    index = {"a": 0, "b": 1}
    full = (1 << 4) - 1
    # assignment s gives atom i the value of bit i of s
    assert intervalgen.truth_table(parse("a"), index, full) == 0b1010
    assert intervalgen.truth_table(parse("b"), index, full) == 0b1100
    assert intervalgen.truth_table(parse("(a&b)"), index, full) == 0b1000
    assert intervalgen.truth_table(parse("(a|b)"), index, full) == 0b1110


def test_mutate_escapes_redundant_terms():
    rng = random.Random(0)
    term = parse("((a&a)|a)")
    for _ in range(20):
        assert not equal(term, intervalgen.mutate(term, ["a", "b"], rng))


def test_round_is_seeded_and_fixed_in_make_up():
    first = intervalgen.make_round(random.Random(7))
    again = intervalgen.make_round(random.Random(7))
    other = intervalgen.make_round(random.Random(8))
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.text for c in first] != [c.text for c in other]
    assert sorted(c.name for c in first) == sorted(c.name for c in other)
    families = Counter(c.family for c in first)
    assert families == {"meets": 16, "laws": 6, "binders": 11, "congruence": 3}


def test_law_modules_hold_both_verdicts():
    case = intervalgen.laws_case(4, random.Random(3))
    lines = case.text.splitlines()
    assert sum(l.startswith("def ") for l in lines) == intervalgen.LAW_PAIRS
    assert sum(l.startswith("fail-check") for l in lines) == intervalgen.LAW_PAIRS
