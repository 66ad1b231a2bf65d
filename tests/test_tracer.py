"""The benchmark's per-layer tracer (perfbench/tracer.py) against the program.

The tracer wraps functions and `Checker` methods by name, from outside the
package; this test fails when one of those names is deleted or renamed, or is
no longer called on a checked file.
"""

import os
import sys

from trikernel import cli, corpus
from trikernel.kernel import Checker

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402


# Conversion decides an equation over at most 16 atoms by truth tables, so
# the canonical-form hooks (`int_canon`, `poly_meet`, `poly_join`) are reached
# by an equation over 17 atoms and by printing the sides of a failing `refl`.
_MEETS = " /\\ ".join(f"x{i}" for i in range(16))
_CANONICAL_FORMS = ("".join(f"axiom x{i} : Int\n" for i in range(17))
                    + f"def wide : ({_MEETS}) \\/ x16 = x16 \\/ ({_MEETS}) := refl\n"
                    + "check refl : x0 /\\ x1 = x0 \\/ x1\n")


def test_tracer_wraps_and_counts_every_hook_on_a_checked_file():
    manifest = corpus.load_manifest()
    tracer = Tracer()
    with tracer.installed():
        result = corpus.check_file(manifest, "interval.ttt")
        diags = Checker().check_source(_CANONICAL_FORMS)
    assert result.ok, result.actual
    assert [(d.code, d.line, d.expected, d.actual) for d in diags] == [
        ("E-CONV", 19, "x0 /\\ x1", "x0 \\/ x1")]
    hooks = {name for name, *_ in FUNCTIONS} | {name for name, _ in METHODS}
    assert sorted(name for name in hooks if not tracer.calls[name]) == []


def test_tracer_sees_the_prelude_slice_of_a_cold_check(capsys, monkeypatch):
    # `check` loads the slice of the shipped prelude through load_prelude
    monkeypatch.delenv("TTT_PRELUDE", raising=False)
    hom = os.path.join(corpus.default_stdlib_dir(), "hom.ttt")
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(["check", "--json", hom])
    assert code == 0, capsys.readouterr().out
    assert tracer.calls["prelude.load"] == 1
