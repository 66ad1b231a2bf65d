"""Command-line driver: check files, query the mode theory and the lattice
solver, and run the corpus harness.

Exit codes: 0 success, 1 diagnostics or failed queries, 2 usage and I/O
errors.  With --json, diagnostics stream as one JSON object per line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import corpus as corpus_mod
from . import syntax
from .core import INT, Ctx
from .diagnostics import Diagnostic, KernelError
from .kernel import Checker, GlobalDef, print_core
from .modality import SEARCH_DEPTH, ModeError, cell_search, format_word, normalize, parse_word
from .prelude import load_prelude, verify_prelude

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


def _emit(diags: list[Diagnostic], as_json: bool) -> None:
    ordered = sorted(diags, key=lambda d: (d.file, d.span[0]))
    for d in ordered:
        if as_json:
            print(d.to_json())
        else:
            print(d.render())


def cmd_check(args) -> int:
    exit_code = EXIT_OK
    collected: list[Diagnostic] = []
    texts = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append((path, handle.read()))
        except FileNotFoundError:
            print(f"error: no such file: {path}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    for path, text in texts:
        checker, tokens = Checker(), syntax.lex(text)
        prelude_diags = load_prelude(checker, args.prelude, tokens)
        if prelude_diags:
            collected.extend(prelude_diags)
            exit_code = EXIT_DIAGNOSTICS
            continue
        diags = checker.check_source(text, path, tokens)
        if diags:
            exit_code = EXIT_DIAGNOSTICS
        collected.extend(diags)
    _emit(collected, args.json)
    return exit_code


def cmd_mode(args) -> int:
    try:
        if args.mode_command == "normalize":
            word = normalize(parse_word(args.word))
            print(format_word(word))
            return EXIT_OK
        src = normalize(parse_word(args.src))
        dst = normalize(parse_word(args.dst))
        found = cell_search(src, dst)
        if found is None:
            print(f"none (depth {SEARCH_DEPTH})")
            return EXIT_DIAGNOSTICS
        print(found.describe())
        return EXIT_OK
    except ModeError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_USAGE


def cmd_lattice(args) -> int:
    """Check each expression against `Int` with no prelude, every word of the
    texts an axiom `NAME : Int`; `nf` prints the form that E-CONV prints."""
    texts = [args.expr] if args.lattice_command == "nf" else [args.lhs, args.rhs]
    checker = Checker()
    for name in {w for text in texts for w in syntax.WORD.findall(text)} - syntax.KEYWORDS:
        checker.globals[name] = GlobalDef(INT, None)
    try:
        terms = [checker.check(Ctx(), syntax.parse_term(text), INT) for text in texts]
        if args.lattice_command == "nf":
            print(print_core(checker._shown(terms[0])))
        else:
            print("true" if checker.conv(*terms) else "false")
        return EXIT_OK
    except KernelError as exc:
        print(f"error: {exc.diagnostic.code}: {exc.diagnostic.message}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: E-DEPTH: expression is nested too deeply (recursion limit)", file=sys.stderr)
        return EXIT_DIAGNOSTICS


def cmd_corpus(args) -> int:
    if args.corpus_command == "run":
        try:
            report = corpus_mod.run_corpus(stdlib_dir=args.stdlib, prelude_path=args.prelude)
        except corpus_mod.ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            for result in report.results:
                for d in result.diagnostics:
                    print(d.to_json())
        print(report.render())
        return EXIT_OK if report.ok else EXIT_DIAGNOSTICS
    report = verify_prelude(args.prelude)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_DIAGNOSTICS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trikernel",
        description="Checker for a modal simplicial type theory with a directed interval",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="type-check .ttt files against the prelude")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--prelude")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_mode = sub.add_parser("mode", help="mode theory queries")
    mode_sub = p_mode.add_subparsers(dest="mode_command")
    p_norm = mode_sub.add_parser("normalize", help="normal form of a modality word")
    p_norm.add_argument("word")
    p_norm.set_defaults(func=cmd_mode)
    p_cell = mode_sub.add_parser("cell", help="search for a 2-cell between words")
    p_cell.add_argument("src")
    p_cell.add_argument("dst")
    p_cell.set_defaults(func=cmd_mode)

    p_lat = sub.add_parser("lattice", help="interval lattice queries")
    lat_sub = p_lat.add_subparsers(dest="lattice_command")
    p_nf = lat_sub.add_parser("nf", help="canonical form of an expression")
    p_nf.add_argument("expr")
    p_nf.set_defaults(func=cmd_lattice)
    p_eq = lat_sub.add_parser("eq", help="decide equality of two expressions")
    p_eq.add_argument("lhs")
    p_eq.add_argument("rhs")
    p_eq.set_defaults(func=cmd_lattice)

    p_corpus = sub.add_parser("corpus", help="run the checked corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command")
    p_run = corpus_sub.add_parser("run", help="check every corpus file against the manifest")
    p_run.add_argument("--stdlib", default=None)
    p_run.add_argument("--prelude")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_corpus)
    p_pre = corpus_sub.add_parser("prelude", help="verify the prelude and its coverage")
    p_pre.add_argument("--prelude")
    p_pre.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:  # a prelude, manifest or library file, named by `read_text`
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
