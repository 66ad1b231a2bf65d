"""The benchmark's per-layer tracer (perfbench/tracer.py) against the program.

The tracer wraps functions and `Checker` methods by name, from outside the
package; this test fails when one of those names is deleted or renamed, or is
no longer called on a checked file.
"""

import os
import sys

from trikernel import corpus

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402


def test_tracer_wraps_and_counts_every_hook_on_a_checked_file():
    manifest = corpus.load_manifest()
    tracer = Tracer()
    with tracer.installed():
        result = corpus.check_file(manifest, "interval.ttt")
    assert result.ok, result.actual
    hooks = {name for name, *_ in FUNCTIONS} | {name for name, _ in METHODS}
    assert sorted(name for name in hooks if not tracer.calls[name]) == []
