"""Corpus harness: run the checked library against its manifest.

Each file is checked in a fresh checker seeded with the entries of the
prelude and of its declared dependencies that it reaches, so every file is
independently re-checkable; an entry that it does not reach is not
elaborated, and cannot fail it.  A run checks every dependency whole, as its
own manifest entry, and the whole prelude once, so an ill-typed entry that
no file reaches still fails it.
The manifest also records, per file, which definitional anchors it covers;
the harness confirms the union covers the whole in-scope list.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Optional

from .diagnostics import Diagnostic
from .kernel import Checker
from .prelude import load_prelude, read_text
from .record import record

# Every definitional anchor the corpus must cover.
REQUIRED_ANCHORS = frozenset(
    {
        "simplex-family", "horn", "boundary", "truncated-disjunction",
        "hom-types", "dependent-hom", "identity-arrow",
        "segal", "composition-long-edge",
        "iso", "rezk", "id-to-iso", "groupoid-int-null",
        "simplicial-predicate", "simplicial-universe",
        "covariant-family", "total-type", "covariant-transport",
        "amazing-covariance", "acov-universe",
        "space-universe", "mor-to-fun", "glue",
        "directed-univalence-statement", "space-segal-statement",
        "space-rezk-statement",
        "full-subcategory", "truncated-spaces", "finset",
        "monoid", "monoid-hom", "naturality-statement",
    }
)


class ManifestError(ValueError):
    """A manifest that does not describe a corpus: a malformed line, a file
    listed twice, an unknown dependency or a dependency cycle."""


@record
class ManifestEntry:
    file: str
    expect_code: Optional[str]  # None means the file must pass
    expect_line: Optional[int]
    expect_column: Optional[int]
    deps: list[str]
    anchors: list[str]


@record
class Manifest:
    entries: list[ManifestEntry]
    substitution: list[str] = []
    # by file: its entry and its transitive dependencies (`_dep_closures`)
    files: dict[str, tuple[ManifestEntry, list[str]]] = {}

    def entry(self, name: str) -> ManifestEntry:
        return self.files[name][0]

    def anchor_set(self) -> set[str]:
        out: set[str] = set()
        for e in self.entries:
            out.update(e.anchors)
        return out


@record
class FileResult:
    file: str
    expected: str
    actual: str
    ok: bool
    diagnostics: list[Diagnostic] = []


@record
class CorpusReport:
    results: list[FileResult]
    problems: list[str] = []

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.problems

    def render(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.ok else "FAIL"
            lines.append(f"{status:4s} {r.file:28s} expected {r.expected}, got {r.actual}")
        for p in self.problems:
            lines.append(f"problem: {p}")
        lines.append(f"corpus: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def default_stdlib_dir() -> str:
    return str(resources.files("trikernel") / "stdlib")


# The most digits an expected line or column may have.
_POSITION_DIGITS = 9


def _items(text: str) -> list[str]:
    """The non-empty items of a comma-separated manifest list, stripped."""
    return [item for item in map(str.strip, text.split(",")) if item]


def parse_manifest(text: str) -> Manifest:
    entries: list[ManifestEntry] = []
    substitution: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("!substitution:"):
                substitution = _items(body[len("!substitution:"):])
            continue
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ManifestError(f"malformed manifest line: {raw!r}")
        file, expect, deps, anchors = parts
        code = line_no = col_no = None
        if expect != "pass":
            code, *where = expect.split(":")
            if not code or len(where) not in (0, 2) or not all(w.isdecimal() for w in where):
                raise ManifestError(
                    f"malformed expectation {expect!r}, not pass, CODE or CODE:LINE:COLUMN")
            if where:
                if max(map(len, where)) > _POSITION_DIGITS:
                    raise ManifestError(f"line or column of more than {_POSITION_DIGITS} "
                                        f"digits in the expectation for {file}")
                line_no, col_no = map(int, where)
        entries.append(
            ManifestEntry(
                file=file,
                expect_code=code,
                expect_line=line_no,
                expect_column=col_no,
                deps=_items(deps),
                anchors=_items(anchors),
            )
        )
    by_file: dict[str, ManifestEntry] = {}
    for e in entries:
        if by_file.setdefault(e.file, e) is not e:
            raise ManifestError(f"{e.file} is listed twice")
    closures = _dep_closures(by_file)
    return Manifest(entries, substitution, {f: (e, closures[f]) for f, e in by_file.items()})


def _dep_closures(by_file: dict[str, ManifestEntry]) -> dict[str, list[str]]:
    """Each file's transitive dependencies, each after its own, in the order
    a depth-first walk from the file first meets them, by one post-order walk
    over the graph; a ManifestError if a dependency names no entry or the
    dependencies form a cycle."""
    closures: dict[str, list[str]] = {}

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = " -> ".join(path[path.index(name):] + [name])
            raise ManifestError(f"dependency cycle: {cycle}")
        if name not in closures:
            closure: dict[str, None] = {}  # ordered, each once
            for d in by_file[name].deps:
                if d not in by_file:
                    raise ManifestError(f"{name} depends on {d}, which has no entry")
                visit(d, path + [name])
                closure.update(dict.fromkeys(closures[d] + [d]))
            closures[name] = list(closure)

    for name in by_file:
        visit(name, [])
    return closures


def load_manifest(stdlib_dir: Optional[str] = None) -> Manifest:
    path = os.path.join(stdlib_dir or default_stdlib_dir(), "manifest.txt")
    try:
        return parse_manifest(read_text(path))
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def check_file(
    manifest: Manifest,
    name: str,
    stdlib_dir: Optional[str] = None,
    prelude_path: Optional[str] = None,
) -> FileResult:
    """The verdict on `name`, checked cold after the prelude and its
    transitive dependencies.

    With the shipped prelude, the prelude and each dependency are checked
    as their slices for `name`'s text (`prelude.slice_texts`), so an entry
    of a dependency that `name` does not reach is not elaborated; with a
    named `prelude_path` (or TTT_PRELUDE) all of them are checked whole.
    """
    base = stdlib_dir or default_stdlib_dir()
    entry, deps = manifest.files[name]
    *dep_texts, text = [read_text(os.path.join(base, file)) for file in deps + [name]]
    checker = Checker()
    # slices dep_texts in place, with the prelude, when the prelude is sliced
    diags = load_prelude(checker, prelude_path, text, dep_texts)
    if diags:
        return FileResult(name, "prelude ok", "prelude failed", False, diags)
    for dep, dep_text in zip(deps, dep_texts):
        dep_diags = checker.check_source(dep_text, dep)
        if dep_diags:
            return FileResult(name, "dependencies ok", f"dependency {dep} failed",
                              False, dep_diags)
    diags = checker.check_source(text, name)

    expected = entry.expect_code or "pass"
    if entry.expect_line is not None:
        expected = f"{entry.expect_code}:{entry.expect_line}:{entry.expect_column}"
    if entry.expect_code is None:
        actual = "pass" if not diags else "; ".join(d.code for d in diags)
        return FileResult(name, expected, actual, not diags, diags)
    if not diags:
        return FileResult(name, expected, "pass", False, [])
    got = diags[0]
    actual = f"{got.code}:{got.line}:{got.column}"
    ok = got.code == entry.expect_code and (
        entry.expect_line is None
        or (got.line == entry.expect_line and got.column == entry.expect_column)
    )
    return FileResult(name, expected, actual, ok, diags)


def run_corpus(
    stdlib_dir: Optional[str] = None,
    prelude_path: Optional[str] = None,
) -> CorpusReport:
    manifest = load_manifest(stdlib_dir)
    results = [check_file(manifest, e.file, stdlib_dir, prelude_path) for e in manifest.entries]
    report = CorpusReport(results)
    # each file reaches only part of the shipped prelude; check it all once
    for diag in load_prelude(Checker(), prelude_path):
        report.problems.append(f"prelude: {diag.render()}")

    missing = REQUIRED_ANCHORS - manifest.anchor_set()
    for anchor in sorted(missing):
        report.problems.append(f"anchor {anchor!r} not covered by any corpus file")
    if not manifest.substitution:
        report.problems.append("manifest does not document the statement substitution")
    covered = manifest.anchor_set()
    for anchor in manifest.substitution:
        if anchor not in covered:
            report.problems.append(
                f"documented substitution anchor {anchor!r} is not in the corpus"
            )
    return report
