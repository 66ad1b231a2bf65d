"""Prelude loading and integrity verification.

The prelude file carries marker comments (#tier, #covers, #statement-only)
that attach to the next declaration; verification re-checks every entry and
confirms the ten named principles are each covered exactly once.  A file
can be checked with only the slice of the prelude and its dependencies that
it reaches.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Optional

from .diagnostics import Diagnostic
from .kernel import Checker
from .record import record
from .syntax import WORD

AXIOM_TAGS = (
    "interval-lattice",
    "path-lock-rule",
    "interval-involution",
    "univalence",
    "crisp-identity-induction",
    "interval-detects-discreteness",
    "interval-global-points",
    "cubes-separate",
    "simplicial-stability",
    "algebra-duality",
)

ENV_VAR = "TTT_PRELUDE"


@record
class PreludeEntry:
    name: str
    kind: str  # "def" | "axiom"
    tier: str = "infra"
    covers: Optional[str] = None
    statement_only: bool = False
    line: int = 0


@record
class PreludeReport:
    entries: list[PreludeEntry]
    diagnostics: list[Diagnostic]
    coverage: dict[str, Optional[str]] = {}
    tier_counts: dict[str, int] = {}
    problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.problems

    def render(self) -> str:
        lines = []
        status = "ok" if self.ok else "FAILED"
        lines.append(f"prelude: {len(self.entries)} entries, {status}")
        for tag in AXIOM_TAGS:
            holder = self.coverage.get(tag)
            mark = holder if holder else "MISSING"
            lines.append(f"  principle {tag:32s} -> {mark}")
        for tier, count in sorted(self.tier_counts.items()):
            lines.append(f"  tier {tier}: {count}")
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        for diag in self.diagnostics:
            lines.append(f"  {diag.render()}")
        return "\n".join(lines)


def default_prelude_path() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return str(resources.files("trikernel") / "prelude.ttt")


def read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; a file that cannot be opened or
    decoded raises an OSError whose message names `path`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def read_prelude(path: Optional[str] = None) -> tuple[str, str]:
    actual = path or default_prelude_path()
    return read_text(actual), actual


def _scan(text: str):
    """(offset, line number, stripped line, entry head) of each line of `text`.

    The head is (kind, name) on a line that starts a `def` or `axiom` entry,
    and None elsewhere, also on such a line with no name, which the parser
    rejects; an entry runs to the next line that starts one.
    """
    offset = 0
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        stripped, head = line.strip(), None
        if stripped.startswith(("def ", "axiom ")):
            kind, rest = stripped.split(None, 1)
            name = rest.split(":", 1)[0].split()
            head = (kind, name[0]) if name else None
        yield offset, lineno, stripped, head
        offset += len(line)


def parse_metadata(text: str) -> list[PreludeEntry]:
    entries: list[PreludeEntry] = []
    tier: Optional[str] = None
    covers: Optional[str] = None
    statement_only = False
    for _, lineno, stripped, head in _scan(text):
        if stripped.startswith("--"):
            body = stripped[2:].strip()
            if body.startswith("#tier:"):
                tier = body[len("#tier:"):].strip()
            elif body.startswith("#covers:"):
                covers = body[len("#covers:"):].strip()
            elif body.startswith("#statement-only"):
                statement_only = True
            continue
        if head is not None:
            kind, name = head
            entries.append(
                PreludeEntry(
                    name=name,
                    kind=kind,
                    tier=tier or ("core" if covers else "infra"),
                    covers=covers,
                    statement_only=statement_only,
                    line=lineno,
                )
            )
            tier, covers, statement_only = None, None, False
    return entries


def slice_texts(texts: list[str], uses: str) -> list[str]:
    """Each of `texts` with every entry that `uses` cannot reach blanked out.

    One closure runs over the entries of all the texts, keyed by name: an
    entry is reached when its name is a word of `uses`, of the text before
    any text's first entry (a top-level `check`, say), or of a reached
    entry.  Any word counts, so a shadowing binder or a word in a comment
    only keeps more entries.  Checking an entry reads only the globals it
    names, so the slices, checked in order, give every name of `uses` the
    global the whole texts would.  A dropped entry keeps its newlines and
    has every other character made a space, so offsets, lines and columns
    stay exact.
    """
    spans: dict[str, list[tuple[int, int, int]]] = {}
    todo = set(WORD.findall(uses))
    for index, text in enumerate(texts):
        heads = [(offset, head[1]) for offset, _, _, head in _scan(text) if head is not None]
        todo.update(WORD.findall(text, 0, heads[0][0] if heads else len(text)))
        for (start, name), (end, _) in zip(heads, heads[1:] + [(len(text), "")]):
            spans.setdefault(name, []).append((index, start, end))
    dropped = set().union(*spans.values())
    while todo:
        for index, start, end in spans.pop(todo.pop(), ()):
            dropped.discard((index, start, end))
            todo.update(WORD.findall(texts[index], start, end))
    cuts: list[list[tuple[int, int]]] = [[] for _ in texts]
    for index, start, end in dropped:
        cuts[index].append((start, end))
    return [_blanked(text, sorted(cut)) for text, cut in zip(texts, cuts)]


def _blanked(text: str, cuts: list[tuple[int, int]]) -> str:
    """`text` with each span of the ordered `cuts` blanked except for its newlines."""
    out, last = [], 0
    for start, end in cuts:
        blank = "\n".join(" " * len(line) for line in text[start:end].split("\n"))
        out += [text[last:start], blank]
        last = end
    out.append(text[last:])
    return "".join(out)


def load_prelude(
    checker: Checker,
    path: Optional[str] = None,
    uses: Optional[str] = None,
    deps: Optional[list[str]] = None,
) -> list[Diagnostic]:
    """Check the prelude into the given checker; returns its diagnostics.

    Given `uses`, the shipped prelude (`path` and TTT_PRELUDE each unset or
    empty) is checked as its slice for `uses`; a prelude named by either is
    always checked whole, so an ill-typed entry that `uses` never reaches is
    still reported.  `deps`, the texts of the modules the caller checks next, in
    order, are sliced in place with the prelude, by one closure over them
    all, and are left whole when the prelude is.
    """
    text, actual = read_prelude(path)
    if uses is not None and not (path or os.environ.get(ENV_VAR)):
        text, *sliced = slice_texts([text, *(deps or [])], uses)
        if deps is not None:
            deps[:] = sliced
    return checker.check_source(text, actual)


def verify_prelude(path: Optional[str] = None) -> PreludeReport:
    """Full integrity report: entries check, coverage table, tier counts."""
    text, actual = read_prelude(path)
    entries = parse_metadata(text)
    checker = Checker()
    diagnostics = checker.check_source(text, actual)
    report = PreludeReport(entries=entries, diagnostics=diagnostics)

    coverage: dict[str, Optional[str]] = {tag: None for tag in AXIOM_TAGS}
    for entry in entries:
        if entry.covers is not None:
            if entry.covers not in coverage:
                report.problems.append(
                    f"{entry.name} covers unknown principle {entry.covers!r}"
                )
            elif coverage[entry.covers] is not None:
                report.problems.append(
                    f"principle {entry.covers!r} covered twice "
                    f"({coverage[entry.covers]} and {entry.name})"
                )
            else:
                coverage[entry.covers] = entry.name
    for tag, holder in coverage.items():
        if holder is None:
            report.problems.append(f"principle {tag!r} has no covering entry")
    report.coverage = coverage

    for entry in entries:
        report.tier_counts[entry.tier] = report.tier_counts.get(entry.tier, 0) + 1

    if not diagnostics:
        declared = {e.name for e in entries}
        missing = declared - set(checker.globals)
        for name in sorted(missing):
            report.problems.append(f"entry {name} did not reach the checker")
    return report
