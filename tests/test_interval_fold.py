"""Elaborating a meet/join tree in one fold (`Checker._elab_lattice`) against
the recursive case it replaced: the same diagnostics and core terms, no
Python recursion per operand, and no `check` per variable operand."""

import collections
import os
import random
import sys

from trikernel import kernel, syntax
from trikernel.core import INT, syn_eq
from trikernel.kernel import Checker


class _RecursiveChecker(Checker):
    """The checker with the recursive meet/join case it had before the fold:
    each operand checked against `Int`, left then right."""

    def _infer(self, ctx, s):
        if type(s) in (syntax.SMeet, syntax.SJoin):
            lc = self.check(ctx, s.lhs, INT)
            rc = self.check(ctx, s.rhs, INT)
            return kernel._CORE_FORMERS[type(s)](lc, rc), INT
        return super()._infer(ctx, s)


def _outcome(checker_class, text):
    """The diagnostics of checking `text`, and the checker's globals."""
    checker = checker_class()
    diags = [(d.code, d.span, d.line, d.column, d.message, d.expected, d.actual)
             for d in checker.check_source(text)]
    return diags, checker.globals


def _same_outcome(text):
    """Whether both checkers give `text` one outcome; the verdict."""
    (new, new_globals), (old, old_globals) = (_outcome(c, text) for c in (Checker, _RecursiveChecker))
    assert new == old, text
    assert new_globals.keys() == old_globals.keys(), text
    for name, g in new_globals.items():
        h = old_globals[name]
        assert syn_eq(g.ty, h.ty), (text, name)
        assert (g.body is None) == (h.body is None), (text, name)
        assert g.body is None or syn_eq(g.body, h.body), (text, name)
    return new[0][0] if new else "ok"


# Operands that check against `Int`: interval binders, an axiom, the bounds,
# a neutral application, a variable of an unfolding type, a variable under an
# identity cell, and a g-annotated variable, which crosses no lock by its
# counit and a g lock as it is.
_GOOD = ("i", "j", "x", "y", "0", "1", "f i", "i^{id(1)}", "u", "u^{eps0}")
# Operands that fail: a numeral beyond the bounds, a `Nat`, a `Bool`, a
# function, an unbound name, and a 2-cell on a constant.
_BAD = ("2", "zero", "b", "f", "nope", "x^{id(1)}")
# The expected type of the tree, and the tree put under a g or s lock.
_WRAPPERS = (("Int", "{}"), ("<g| Int>", "mod{{g}}({})"), ("<s| Int>", "mod{{s}}({})"))
_HEADER = ("axiom x : Int\naxiom f : Int -> Int\naxiom b : Bool\n"
           "def Iv : U 0 := Int\naxiom y : Iv\n")


def _random_tree(rng, leaves):
    if leaves == 1:
        return rng.choice(_BAD if rng.random() < 0.1 else _GOOD)
    k = rng.randint(1, leaves - 1)
    parts = [_random_tree(rng, k), _random_tree(rng, leaves - k)]
    # an operand left unparenthesised re-associates with its neighbours
    parts = [f"({p})" if "/" in p and rng.random() < 0.5 else p for p in parts]
    return rng.choice((" /\\ ", " \\/ ")).join(parts)


def test_fold_matches_the_recursive_case_on_random_trees():
    rng = random.Random(26)
    verdicts = collections.Counter()
    for _ in range(2000):
        ty, body = rng.choice(_WRAPPERS)
        tree = _random_tree(rng, rng.randint(1, 12))
        text = _HEADER + (f"def t : (u : Int @ g) -> (i : Int) -> (j : Int) -> {ty}\n"
                          f"  := fun u i j => {body.format(tree)}\n")
        verdicts[_same_outcome(text)] += 1
    # every kind of operand failure, and many accepted trees, were compared
    assert {"ok", "E-CONV", "E-UNBOUND", "E-MODALITY", "E-2CELL-BOUNDARY"} <= verdicts.keys()
    assert verdicts["ok"] >= 500, verdicts


def test_fold_matches_the_recursive_case_on_the_benchmark_modules():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench"))
    import intervalgen

    verdicts = collections.Counter()
    for seed in (1, 7):
        rng = random.Random(seed)
        for case in (case for _ in range(4) for case in intervalgen.make_round(rng)):
            verdicts[_same_outcome(case.text)] += 1
    assert sum(verdicts.values()) == 288 and verdicts["ok"] > 0, verdicts


_CHAIN = " /\\ ".join(["x"] * 3000)
LONG_CHAINS = {
    "meet-chain": f"axiom x : Int\ndef t : Int := {_CHAIN}\n",
    "equation": f"axiom x : Int\ndef t : x = {_CHAIN} := refl\n",
    "join-of-meets": "axiom x : Int\naxiom y : Int\ndef t : Int := "
                     + " \\/ ".join(["x /\\ y"] * 1500) + "\n",
    "under-a-binder": f"def t : Int -> Int := fun x => {_CHAIN}\n",
}


def _under_frames(n, thunk):
    return thunk() if n == 0 else _under_frames(n - 1, thunk)


def test_long_flat_chains_check_whatever_the_callers_depth():
    for name, text in LONG_CHAINS.items():
        assert Checker().check_source(text) == [], name
        assert _under_frames(200, lambda: Checker().check_source(text)) == [], name


def test_a_variable_operand_costs_no_check(monkeypatch):
    calls = []
    original = Checker.check

    def counting(self, ctx, s, ty):
        calls.append(s)
        return original(self, ctx, s, ty)

    monkeypatch.setattr(Checker, "check", counting)
    header = "axiom x : Int\naxiom y : Int\n"
    assert Checker().check_source(header + "check x : Int") == []
    single = len(calls)
    calls.clear()
    meet = " /\\ ".join(["(x \\/ y)"] * 8)
    assert Checker().check_source(header + f"check {meet} : Int") == []
    # the whole meet is checked, as the single variable is; its 16 operands
    # are not
    assert len(calls) == single
