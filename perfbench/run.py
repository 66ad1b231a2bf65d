#!/usr/bin/env python3
"""trikernel benchmark: one workload per process, outputs checked, one JSON line.

    python3 perfbench/run.py --workload corpus|check|interval --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds of operations
until S seconds have passed and at least MIN_OPS operations were made, checks
every verdict against expectations computed here, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (p50_ms, p90_ms, ops_per_s,
peak_rss_mb, setup_s); with --trace 1 they are the per-layer ones, from rounds
run under the tracer, alternating with untraced rounds that give the overhead.
See README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from calibrate import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STDLIB_REL = os.path.join("src", "trikernel", "stdlib")
STDLIB = os.path.join(ROOT, STDLIB_REL)
SCHEMA = os.path.join(ROOT, "docs", "diagnostic.schema.json")
TRACE_CHILD = os.path.join(HERE, "trace_check.py")

MIN_OPS = 100  # so that p90_ms has ten samples beyond it
SETUP_PROBES = 7  # fresh processes whose set-up time is reported as a median
INTERVAL_POOL = 4  # distinct interval rounds generated per seed
CHILD_TIMEOUT_S = 60

WORKLOADS = ("corpus", "check", "interval")

# (metric, key in the tracer's snapshot, unit); every value is per operation
# except trace.overhead_pct.
PER_LAYER = (
    ("syntax.tokenize_ms", "syntax.tokenize_ms", "ms/op"),
    ("syntax.parse_ms", "syntax.parse_ms", "ms/op"),
    ("syntax.tokens", "syntax.tokens", "count/op"),
    ("prelude.loads", "prelude.load_calls", "count/op"),
    ("prelude.load_ms", "prelude.load_ms", "ms/op"),
    ("corpus.check_source_calls", "kernel.check_source_calls", "count/op"),
    ("corpus.dep_ms", "corpus.dep_ms", "ms/op"),
    ("kernel.decls", "kernel.decl_calls", "count/op"),
    ("kernel.decl_ms", "kernel.decl_ms", "ms/op"),
    ("kernel.whnf_calls", "kernel.whnf_calls", "count/op"),
    ("kernel.conv_calls", "kernel.conv_calls", "count/op"),
    ("kernel.conv_ms", "kernel.conv_ms", "ms/op"),
    ("core.subst_calls", "core.subst_calls", "count/op"),
    ("core.shift_calls", "core.shift_calls", "count/op"),
    ("core.apply_cell_calls", "core.apply_cell_calls", "count/op"),
    ("kernel.access_cell_calls", "kernel.access_cell_calls", "count/op"),
    ("kernel.access_cell_ms", "kernel.access_cell_ms", "ms/op"),
    ("modality.normalize_calls", "modality.normalize_calls", "count/op"),
    ("kernel.int_canon_calls", "kernel.int_canon_calls", "count/op"),
    ("kernel.int_canon_ms", "kernel.int_canon_ms", "ms/op"),
    ("kernel.int_canon_monomials", "kernel.int_canon_monomials", "count/op"),
    ("lattice.poly_meet_calls", "lattice.poly_meet_calls", "count/op"),
    ("lattice.poly_join_calls", "lattice.poly_join_calls", "count/op"),
    ("lattice.monomials_out", "lattice.monomials_out", "count/op"),
    ("modality.cell_search_calls", "modality.cell_search_calls", "count/op"),
    ("modality.cell_search_ms", "modality.cell_search_ms", "ms/op"),
    ("modality.cell_search_misses", "modality.cell_search_misses", "count/op"),
    ("cli.import_ms", "cli.import_ms", "ms/op"),
    ("cli.python_start_ms", "cli.python_start_ms", "ms/op"),
    ("self_ms.corpus", "self_ms.corpus", "ms/op"),
    ("self_ms.prelude", "self_ms.prelude", "ms/op"),
    ("self_ms.kernel.check_source", "self_ms.kernel.check_source", "ms/op"),
    ("self_ms.syntax.tokenize", "self_ms.syntax.tokenize", "ms/op"),
    ("self_ms.syntax.parse", "self_ms.syntax.parse", "ms/op"),
    ("self_ms.kernel.decl", "self_ms.kernel.decl", "ms/op"),
    ("self_ms.kernel.whnf", "self_ms.kernel.whnf", "ms/op"),
    ("self_ms.kernel.conv", "self_ms.kernel.conv", "ms/op"),
    ("self_ms.kernel.int_canon", "self_ms.kernel.int_canon", "ms/op"),
    ("self_ms.kernel.access_cell", "self_ms.kernel.access_cell", "ms/op"),
    ("self_ms.modality.cell_search", "self_ms.modality.cell_search", "ms/op"),
    ("self_ms.core", "self_ms.core", "ms/op"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a broken child)."""


def read_manifest() -> list[tuple[str, str, list[str]]]:
    """(file, expectation, deps) per manifest line, parsed independently of
    trikernel.corpus: expectation is "pass" or "CODE:LINE:COLUMN"."""
    out = []
    with open(os.path.join(STDLIB, "manifest.txt"), encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            file, expect, deps, _anchors = (p.strip() for p in line.split("|"))
            out.append((file, expect, [d for d in deps.split(",") if d]))
    return out


def verdict(diags: list[tuple[str, int, int, str]]) -> str:
    """Return "pass", or CODE:LINE:COLUMN of the first of the diagnostics,
    each given as (code, line, column, file)."""
    if not diags:
        return "pass"
    code, line, column, _file = diags[0]
    return f"{code}:{line}:{column}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Workloads.  Each has warm_up() and run_round(), which yields
# (start, end, failed) per operation, in perf_counter seconds, and records
# wrong outputs in self.errors.
# ---------------------------------------------------------------------------


class Corpus:
    """One operation: the verdict on one manifest file from corpus.check_file,
    which checks the prelude, the file's dependencies and the file in a fresh
    Checker.  Every round is the whole manifest in order; the seed is unused."""

    def __init__(self, seed: int):
        from trikernel import corpus

        self.corpus = corpus
        self.manifest = corpus.load_manifest(STDLIB)
        self.expected = [(file, expect) for file, expect, _ in read_manifest()]
        self.errors: list[str] = []

    def _one(self, file: str, expect: str) -> tuple[float, float]:
        start = time.perf_counter()
        result = self.corpus.check_file(self.manifest, file, STDLIB)
        end = time.perf_counter()
        diags = [(d.code, d.line, d.column, d.file) for d in result.diagnostics]
        got = verdict(diags)
        if got != expect or any(d[3] != file for d in diags[:1]):
            self.errors.append(f"{file}: expected {expect}, got {got} {diags[:1]}")
        return start, end

    def warm_up(self) -> None:
        self._one(*self.expected[0])

    def run_round(self):
        for file, expect in self.expected:
            yield *self._one(file, expect), False


class Check:
    """One operation: a fresh `python -m trikernel.cli check --json FILE`
    process.  Rounds rotate through the manifest files without dependencies,
    in a seeded order."""

    def __init__(self, seed: int):
        import jsonschema

        with open(SCHEMA, encoding="utf-8") as handle:
            self.validator = jsonschema.Draft7Validator(json.load(handle))
        self.files = [(f, e) for f, e, deps in read_manifest() if not deps]
        self.rng = random.Random(seed)
        self.env = child_env()
        self.errors: list[str] = []
        self.traces: list[dict] = []

    def _spawn(self, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return start, time.perf_counter(), proc

    def _one(self, file: str, expect: str, traced: bool = False) -> tuple[float, float]:
        path = os.path.join(STDLIB_REL, file)
        if traced:
            argv = [sys.executable, TRACE_CHILD, path]
        else:
            argv = [sys.executable, "-m", "trikernel.cli", "check", "--json", path]
        start, end, proc = self._spawn(argv)
        self._verify(file, expect, path, proc)
        if traced:
            marker = "PERFBENCH-TRACE "
            found = [line for line in proc.stderr.splitlines() if line.startswith(marker)]
            if not found:
                raise BenchError(f"traced check of {file} wrote no trace: {proc.stderr[-500:]}")
            self.traces.append(json.loads(found[-1][len(marker):]))
        return start, end

    def _verify(self, file: str, expect: str, path: str, proc) -> None:
        want_rc = 0 if expect == "pass" else 1
        diags = []
        for line in proc.stdout.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                self.errors.append(f"{file}: not a JSON line: {line[:200]!r}")
                continue
            for problem in self.validator.iter_errors(obj):
                self.errors.append(f"{file}: schema: {problem.message}")
            diags.append((obj.get("code"), obj.get("line"), obj.get("column"), obj.get("file")))
        got = verdict(diags)
        if proc.returncode != want_rc or got != expect or any(d[3] != path for d in diags):
            self.errors.append(f"{file}: expected exit {want_rc} and {expect}, got exit "
                               f"{proc.returncode} and {got}; stderr {proc.stderr[-300:]!r}")

    def warm_up(self) -> None:
        self._one(*self.files[0])

    def order(self) -> list[tuple[str, str]]:
        return self.rng.sample(self.files, len(self.files))

    def run_round(self):
        for file, expect in self.order():
            yield *self._one(file, expect), False


class Interval:
    """One operation: one generated module checked by a fresh Checker without
    the prelude.  See intervalgen.make_round for the families."""

    def __init__(self, seed: int):
        from trikernel.kernel import Checker

        import intervalgen

        self.Checker = Checker
        rng = random.Random(seed)
        self.pool = [intervalgen.make_round(rng) for _ in range(INTERVAL_POOL)]
        self.next_round = 0
        self.errors: list[str] = []

    def _one(self, case) -> tuple[float, float, bool]:
        checker = self.Checker()
        start = time.perf_counter()
        diags = checker.check_source(case.text, case.name + ".ttt")
        end = time.perf_counter()
        first = diags[0] if diags else None
        if case.family == "congruence" and first is not None and first.code == "E-CONV":
            return start, end, True  # the known false negative: counted as failed
        if first is not None:
            self.errors.append(f"{case.name}: {first.code}: {first.message}\n{case.text}")
        return start, end, False

    def warm_up(self) -> None:
        for case in self.pool[0]:
            self._one(case)

    def run_round(self):
        cases = self.pool[self.next_round % len(self.pool)]
        self.next_round += 1
        for case in cases:
            yield self._one(case)


def make_workload(name: str, seed: int):
    if not os.path.isfile(os.path.join(SRC, "trikernel", "kernel.py")):
        raise BenchError(f"no trikernel sources under {SRC}")
    sys.path.insert(0, SRC)
    return {"corpus": Corpus, "check": Check, "interval": Interval}[name](seed)


def set_up(name: str, seed: int):
    workload = make_workload(name, seed)
    workload.warm_up()
    if workload.errors:
        raise BenchError("warm-up output is wrong: " + workload.errors[0])
    return workload


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(workload, seconds: float) -> tuple[list[float], list[float], int]:
    """Whole rounds until `seconds` have passed and MIN_OPS were made, with
    calibration units sampled during and between operations.  Returns the
    operations' wall times, the same rescaled to reference speed, and the
    number that failed."""
    clock = Clock()
    spans: list[tuple[float, float]] = []
    failed = 0
    begin = time.perf_counter()
    with clock.sampling():
        clock.between()
        while True:
            for start, end, fail in workload.run_round():
                spans.append((start, end))
                failed += fail
                clock.between()
            if time.perf_counter() - begin >= seconds and len(spans) >= MIN_OPS:
                break
    inline = not isinstance(workload, Check)
    wall = [end - start for start, end in spans]
    scaled = [clock.rescale(start, end, inline) for start, end in spans]
    return wall, scaled, failed


def setup_seconds(args) -> float:
    """Median time of fresh processes from spawn to the moment each would
    start its first timed operation, rescaled by the units each sampled."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-1000:]}")
        ready, units, scale = (float(x) for x in proc.stdout.split()[-3:])
        samples.append((ready - spawned - units) * scale)
    return statistics.median(samples)


def probe(args) -> tuple[float, float, float]:
    """Set up as a run would, sampling calibration units meanwhile.  Returns
    the monotonic time when set-up ended, the seconds the units took out of
    it, and the factor to reference speed."""
    clock = Clock()
    with clock.sampling():
        set_up(args.workload, args.seed)
    ready = time.monotonic()
    units = [end - start for start, end in zip(clock.starts, clock.ends)]
    # The check warm-up runs in a child, beside this process's units.
    spent = sum(units) if args.workload != "check" else 0.0
    return ready, spent, clock.scale()


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "check" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(args, workload) -> dict:
    wall, scaled, failed = measure(workload, args.seconds)
    rss = peak_rss_mb(args.workload)
    ms = [t * 1000.0 for t in scaled]
    print(f"wall time: p50 {statistics.median(wall) * 1000:.2f} ms, "
          f"{len(wall) / sum(wall):.3f} ops/s before rescaling", file=sys.stderr)
    metrics = {
        "p50_ms": (statistics.median(ms), "ms"),
        "p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_seconds(args), "s"),
    }
    return result(workload, len(wall), failed, metrics)


def traced(args, workload) -> dict:
    """Alternate traced and untraced rounds; report per-operation layer
    figures from the traced ones and the overhead against the untraced."""
    from tracer import Tracer

    plain: list[float] = []
    under: list[float] = []
    attempted = failed = 0
    totals: dict = {}
    python_start: list[float] = []
    begin = time.perf_counter()
    while True:
        if args.workload == "check":
            for file, expect in workload.order():
                start, end = workload._one(file, expect)
                plain.append(end - start)
                start, end = workload._one(file, expect, traced=True)
                under.append(end - start)
                start, end, _ = workload._spawn([sys.executable, "-c", "pass"])
                python_start.append(end - start)
            for snap in workload.traces:
                for key, value in snap.items():
                    totals[key] = totals.get(key, 0) + value
            workload.traces.clear()
        else:
            # Trace a whole interval pool at a time, so that per-operation
            # counts average over the same modules in every run.
            rounds = INTERVAL_POOL if args.workload == "interval" else 1
            tracer = Tracer()
            with tracer.installed():
                for _ in range(rounds):
                    for start, end, fail in workload.run_round():
                        under.append(end - start)
                        failed += fail
            for key, value in tracer.snapshot().items():
                totals[key] = totals.get(key, 0) + value
            for _ in range(rounds):
                for start, end, fail in workload.run_round():
                    plain.append(end - start)
                    failed += fail
        attempted = len(plain) + len(under)
        if time.perf_counter() - begin >= args.seconds and attempted >= MIN_OPS:
            break
    if python_start:
        totals["cli.python_start_ms"] = sum(python_start) * 1000.0
    ops = len(under)
    metrics = {name: (totals.get(key, 0) / ops, unit) for name, key, unit in PER_LAYER}
    overhead = (sum(under) / len(under)) / (sum(plain) / len(plain)) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return result(workload, attempted, failed, metrics)


def result(workload, attempted: int, failed: int, metrics: dict) -> dict:
    for problem in workload.errors[:5]:
        print(f"wrong output: {problem}", file=sys.stderr)
    return {
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(*probe(args))
            return 0
        workload = set_up(args.workload, args.seed)
        out = traced(args, workload) if args.trace else end_to_end(args, workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
