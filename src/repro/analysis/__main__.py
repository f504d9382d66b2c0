"""Command line for the lint engine.

    python -m repro.analysis [paths...] [--select RULES] [--list-rules]
                             [--explain RULE]

Prints one line per finding and a summary line.  Exits 0 when clean, 1
on findings, and 2 for a missing path or an unknown rule id.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.explain import explain_rule
from repro.analysis.registry import all_checkers
from repro.analysis.scan import lint_paths

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="run the repro.analysis static invariant checks",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (e.g. NES001,NES003)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's description, pragma and a "
                             "minimal violating/clean example pair, then exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.rule}  allow-{checker.pragma:18s} {checker.description}")
        return 0
    if args.explain:
        text = explain_rule(args.explain)
        if text is None:
            print(f"lint: unknown rule {args.explain!r} (try --list-rules)")
            return 2
        print(text, end="")
        return 0

    select = args.select.split(",") if args.select else None
    try:
        findings, suppressed = lint_paths(args.paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"lint: {exc}")
        return 2
    for finding in findings:
        print(finding.render())
    print(f"lint: {len(findings)} finding(s), {len(suppressed)} pragma-suppressed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
