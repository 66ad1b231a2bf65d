"""Prelude loading and integrity verification.

The prelude file carries marker comments (#tier, #covers, #statement-only)
that attach to the next declaration; verification re-checks every entry and
confirms the ten named principles are each covered exactly once.  A file
can be checked with only the slice of the prelude and its dependencies that
it reaches (`slice_tokens`): the entries its identifier tokens name, closed
under theirs, so a word in a comment, in braces or in a string keeps no
entry.  `corpus run` still checks the whole prelude, and every dependency
whole as its own manifest entry.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Optional

from .diagnostics import Diagnostic
from .kernel import Checker
from .record import record
from .syntax import ENTRY_HEAD, KEYWORDS, Tokens, lex

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


def _heads(text: str) -> list[tuple[int, str, str]]:
    """(offset of its line, kind, name) of each entry head of `text`, in order.

    A head is `def` or `axiom` first on its line and then its name, as
    `syntax.ENTRY_HEAD` reads them; a keyword cannot be a name.  An entry
    runs to the next head, so a second declaration on a line stays part of
    that line's entry.
    """
    return [(m.start(), m[1], m[2]) for m in ENTRY_HEAD.finditer("\n" + text)
            if m[2] not in KEYWORDS]


def parse_metadata(text: str) -> list[PreludeEntry]:
    entries: list[PreludeEntry] = []
    tier: Optional[str] = None
    covers: Optional[str] = None
    statement_only = False
    heads = {offset: (kind, name) for offset, kind, name in _heads(text)}
    offset = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped, head = line.strip(), heads.get(offset)
        offset += len(line) + 1
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


def slice_tokens(texts: list[str], uses: set[str]) -> list[Tokens]:
    """The tokens of each of `texts` that the identifiers `uses` reach.

    One closure runs over the entries of all the texts (`_heads`), keyed by
    name: an entry is reached when its name is one of `uses`, an identifier
    token of the text before any text's first entry (a top-level `check`,
    say), or an identifier token of a reached entry.  So a word in a comment,
    a braced word or a string reaches nothing, and a shadowing binder only
    keeps more entries.  An entry is tokenized by itself once it is reached,
    so an open `{` or `"` stops at its end.  Checking an entry reads only the
    globals it names, so the slices, checked in order, give every name of
    `uses` the global the whole texts would.

    Each text's kept tokens come in text order, with spans that index the
    text and EOF at its end; where a kept entry does not tokenize, the
    stream has none, and the E-PARSE of the first such entry as its `error`.
    """
    # the text before a text's first head is an entry named "", always reached
    entries: dict[str, list[tuple[int, int, int]]] = {}  # by name: (text, start, end)
    for index, text in enumerate(texts):
        heads = [(0, "", ""), *_heads(text), (len(text), "", "")]
        for (start, _, name), (end, _, _) in zip(heads, heads[1:]):
            entries.setdefault(name, []).append((index, start, end))
    pieces: list[list[tuple[int, Tokens]]] = [[] for _ in texts]  # (start, tokens) kept
    todo = {"", *uses}
    while todo:
        for index, start, end in entries.pop(todo.pop(), ()):
            tokens = lex(texts[index], start, end)
            pieces[index].append((start, tokens))
            todo |= tokens.identifiers()
    return [_joined(parts, len(text)) for parts, text in zip(pieces, texts)]


def _joined(parts: list[tuple[int, Tokens]], end: int) -> Tokens:
    """The streams of `parts`, (start, tokens) pairs of one text, in text
    order, each without its EOF, then EOF at `end`; or a stream with the
    error of the first of them that has one."""
    out = Tokens()
    for _, tokens in sorted(parts, key=lambda part: part[0]):
        if tokens.error is not None:
            out.error = tokens.error
            return out
        out.kinds += tokens.kinds[:-1]
        out.texts += tokens.texts[:-1]
        out.spans += tokens.spans[:-1]
    out.kinds.append("EOF")
    out.texts.append("")
    out.spans.append((end, end))
    return out


def load_prelude(
    checker: Checker,
    path: Optional[str] = None,
    uses: Optional[Tokens] = None,
    deps: Optional[list] = None,
) -> list[Diagnostic]:
    """Check the prelude into the given checker; returns its diagnostics.

    Given `uses`, the tokens of the file that the caller checks next, the
    shipped prelude (`path` and TTT_PRELUDE each unset or empty) is checked
    as its slice for their identifiers (`slice_tokens`), unless the file
    does not tokenize (`uses.error`) and so may name anything.  A prelude
    named by either is always checked whole, so an ill-typed entry that
    `uses` never reaches is still reported.  `deps`, the texts of the
    modules the caller checks before that file, in order, are sliced with
    the prelude, by one closure over them all: each is replaced in place by
    its kept tokens, or by None, for whole, when the prelude is whole.
    """
    text, actual = read_prelude(path)
    tokens, sliced = None, [None] * len(deps or ())
    if uses is not None and uses.error is None and not (path or os.environ.get(ENV_VAR)):
        tokens, *sliced = slice_tokens([text, *(deps or [])], uses.identifiers())
    if deps is not None:
        deps[:] = sliced
    return checker.check_source(text, actual, tokens)


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
