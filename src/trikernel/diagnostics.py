"""Positioned, coded diagnostics shared by the parser, kernel and CLI.

The codes and the JSON format are specified by docs/diagnostic.schema.json.
"""

from __future__ import annotations

import bisect
import json
import re
from typing import Optional, Sequence

from .record import record


class LineMap:
    """Byte offset to 1-based (line, column) translation."""

    def __init__(self, text: str):
        self.starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def locate(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1


@record
class Diagnostic:
    file: str
    code: str
    message: str
    span: tuple[int, int] = (0, 0)
    line: int = 1
    column: int = 1
    expected: Optional[str] = None
    actual: Optional[str] = None

    def located(self, linemap: LineMap) -> "Diagnostic":
        line, col = linemap.locate(self.span[0])
        self.line, self.column = line, col
        return self

    def render(self) -> str:
        head = f"{self.file}:{self.line}:{self.column}: {self.code}: {self.message}"
        if self.expected is not None or self.actual is not None:
            head += f"\n  expected: {self.expected}\n  actual:   {self.actual}"
        return head

    def to_json(self) -> str:
        obj = {
            "file": self.file,
            "code": self.code,
            "message": self.message,
            "start": self.span[0],
            "end": self.span[1],
            "line": self.line,
            "column": self.column,
        }
        if self.expected is not None:
            obj["expected"] = self.expected
        if self.actual is not None:
            obj["actual"] = self.actual
        return json.dumps(obj, sort_keys=True)


class KernelError(Exception):
    """Internal carrier for a single diagnostic; converted at the API edge.

    The kernel leaves `expected` and `actual` as core terms, with the `names`
    of the context they live in, and prints them only for the diagnostic it
    returns (`Checker.run_module`).  Either may instead be a function of no
    arguments, called when the diagnostic is printed, for a term that only
    the printed diagnostic needs.  Text built at the raise site stays text.
    """

    def __init__(self, diagnostic: Diagnostic, expected=None, actual=None,
                 names: Sequence[str] = ()):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.expected, self.actual, self.names = expected, actual, names
