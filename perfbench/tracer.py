"""Per-layer tracing by wrapping the public functions of each trikernel layer.

Nothing under ``src/`` changes: the tracer replaces module attributes and
``Checker`` methods with counting, timing wrappers while it is installed, and
puts the originals back when it is removed.  A function imported with
``from ... import`` is replaced in every trikernel module that holds it, so
calls through ``kernel.subst`` and ``core.subst`` are both seen.

Spans nest on one stack.  A recursive function (``whnf``, conversion,
``subst``) counts every call but is timed only at its outermost call, and a
span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute, timed); untimed ones are only counted.
FUNCTIONS = (
    ("syntax.tokenize", "trikernel.syntax", "tokenize", True),
    ("syntax.parse", "trikernel.syntax", "parse_module", True),
    ("prelude.load", "trikernel.prelude", "load_prelude", True),
    ("corpus.check_file", "trikernel.corpus", "check_file", True),
    ("core.subst", "trikernel.core", "subst", True),
    ("core.shift", "trikernel.core", "shift", True),
    ("core.apply_cell", "trikernel.core", "apply_cell", True),
    ("modality.normalize", "trikernel.modality", "normalize", False),
    ("modality.cell_search", "trikernel.modality", "cell_search", True),
    ("lattice.poly_meet", "trikernel.lattice", "poly_meet", False),
    ("lattice.poly_join", "trikernel.lattice", "poly_join", False),
)
# Checker methods, all timed.  Conversion is one span shared by `conv` and
# `conv_str`, which call each other.
METHODS = (
    ("kernel.check_source", "check_source"),
    ("kernel.decl", "run_decl"),
    ("kernel.whnf", "whnf"),
    ("kernel.conv", "conv"),
    ("kernel.conv", "conv_str"),
    ("kernel.int_canon", "int_canon"),
    ("kernel.access_cell", "access_cell"),
)
# Spans whose self time is reported; the core substitutions form one layer.
SELF_LAYERS = {
    "corpus.check_file": "corpus",
    "prelude.load": "prelude",
    "kernel.check_source": "kernel.check_source",
    "syntax.tokenize": "syntax.tokenize",
    "syntax.parse": "syntax.parse",
    "kernel.decl": "kernel.decl",
    "kernel.whnf": "kernel.whnf",
    "kernel.conv": "kernel.conv",
    "kernel.int_canon": "kernel.int_canon",
    "kernel.access_cell": "kernel.access_cell",
    "modality.cell_search": "modality.cell_search",
    "core.subst": "core",
    "core.shift": "core",
    "core.apply_cell": "core",
}


def count_monomials(term) -> int:
    """Monomials in an `int_canon` result: the length of its join spine."""
    name = type(term).__name__
    if name == "I0":
        return 0
    count = 1
    while type(term).__name__ == "JoinT":
        count += 1
        term = term.rhs
    return count


class Tracer:
    """Counts, outermost-call times and self times, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total = defaultdict(float)  # seconds at outermost calls
        self.self_time = defaultdict(float)
        self.extra: Counter = Counter()  # tokens, monomials, misses, dep time
        self._depth: Counter = Counter()
        self._stack: list[list[float]] = []  # time covered by child spans
        self._args: dict = {}  # arguments of each span's outermost open call

    def _wrap(self, name: str, fn, timed: bool, after=None):
        calls, depth, stack = self.calls, self._depth, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if not timed or depth[name]:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result, 0.0)
                return result
            depth[name] += 1
            stack.append([0.0])
            tracer._args[name] = args
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                del tracer._args[name]
                child = stack.pop()[0]
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - child
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(tracer, args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        from trikernel import kernel, modality

        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("trikernel") and m is not None]
        for name, mod_name, attr, timed in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(name, original, timed, _AFTER.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapped)
        self._cache = getattr(modality, "_search_cache", None)
        self._cache_len = len(self._cache) if self._cache is not None else 0
        for name, attr in METHODS:
            original = kernel.Checker.__dict__[attr]
            restore.append((kernel.Checker, attr, original))
            setattr(kernel.Checker, attr,
                    self._wrap(name, original, True, _AFTER.get(name)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Raw totals: counts, and times in milliseconds."""
        out = {f"{name}_calls": n for name, n in self.calls.items()}
        for name, seconds in self.total.items():
            out[f"{name}_ms"] = seconds * 1000.0
        layers: Counter = Counter()
        for name, seconds in self.self_time.items():
            if name in SELF_LAYERS:
                layers[SELF_LAYERS[name]] += seconds * 1000.0
        for layer, ms in layers.items():
            out[f"self_ms.{layer}"] = ms
        out.update(self.extra)
        return out


def _after_tokenize(tracer, args, result, elapsed):
    tracer.extra["syntax.tokens"] += len(result)


def _after_int_canon(tracer, args, result, elapsed):
    tracer.extra["kernel.int_canon_monomials"] += count_monomials(result)


def _after_cell_search(tracer, args, result, elapsed):
    # The module cache only grows, and only cell_search adds to it, so any
    # growth since the last observation is a search that missed it.
    if tracer._cache is not None and len(tracer._cache) > tracer._cache_len:
        tracer.extra["modality.cell_search_misses"] += len(tracer._cache) - tracer._cache_len
        tracer._cache_len = len(tracer._cache)


def _after_poly(tracer, args, result, elapsed):
    tracer.extra["lattice.monomials_out"] += len(result)


def _after_check_source(tracer, args, result, elapsed):
    # A dependency is a file that check_file(manifest, name, ...) checks
    # besides the prelude and `name` itself; check_source(text, path).
    operation = tracer._args.get("corpus.check_file")
    if operation is None or tracer._depth["prelude.load"] or len(args) < 3:
        return
    if args[2] != operation[1]:
        tracer.extra["corpus.dep_ms"] += elapsed * 1000.0


_AFTER = {
    "syntax.tokenize": _after_tokenize,
    "kernel.int_canon": _after_int_canon,
    "modality.cell_search": _after_cell_search,
    "lattice.poly_meet": _after_poly,
    "lattice.poly_join": _after_poly,
    "kernel.check_source": _after_check_source,
}
