"""``python -m repro.lint`` — the analyzer's command-line front end.

Also backs the ``cocg lint`` subcommand: :func:`configure_parser`
installs the shared flags on any :class:`argparse.ArgumentParser` (or
subparser) and :func:`run_from_args` executes the parsed namespace.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error
(unknown rule id, nonexistent path, malformed baseline, or git failure
under ``--changed``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import LintCache, cache_signature
from repro.lint.engine import lint_paths
from repro.lint.registry import (
    UnknownRuleError,
    all_project_rules,
    all_rules,
    explain_rule,
    resolve_project_rules,
    resolve_rules,
)
from repro.lint.reporters import render_json, render_sarif, render_text

__all__ = ["configure_parser", "build_parser", "run_from_args", "main"]

#: Default on-disk location of the incremental cache.
DEFAULT_CACHE = ".lint_cache.json"


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the lint CLI flags on ``parser`` (shared with ``cocg lint``)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: ./src if present, else .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="report findings only for files git sees as changed "
             "(the analysis still covers the full tree for "
             "cross-module context)",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", type=Path,
        help="additionally write a SARIF 2.1.0 log to PATH",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", type=Path,
        help="subtract findings recorded in this baseline file; "
             "only new findings fail the run",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the --baseline file from the current findings "
             "and exit 0",
    )
    parser.add_argument(
        "--cache", metavar="PATH", type=Path, default=Path(DEFAULT_CACHE),
        help=f"incremental cache location (default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip the whole-program phase (CG010-CG013)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print one rule's rationale and fix recipe "
             "(e.g. --explain CG015) and exit",
    )
    parser.add_argument(
        "--effects-out", metavar="PATH", type=Path,
        help="write the inferred effect signatures (effects.json) "
             "to PATH",
    )
    parser.add_argument(
        "--shard-plan-out", metavar="PATH", type=Path,
        help="write the shard-interference certificate (shardplan.json) "
             "to PATH",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The standalone ``python -m repro.lint`` parser."""
    return configure_parser(argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="CoCG invariant checker "
                    "(per-file CG001-CG009 and CG014, "
                    "whole-program CG010-CG013, "
                    "effect system CG015-CG018, "
                    "shard certification CG019-CG022)",
    ))


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    rules = [part.strip() for part in raw.split(",") if part.strip()]
    if not rules:
        # An explicitly empty selection would silently lint nothing and
        # exit 0 — a CI footgun; fail loudly instead.
        raise UnknownRuleError("empty rule list (expected e.g. CG001,CG005)")
    return rules


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _git_changed_files() -> List[str]:
    """Python files git reports as modified/staged/untracked, relative
    to the current directory."""
    commands = (
        ["git", "diff", "--name-only", "--relative", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    seen: set = set()
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip() or f"exit {proc.returncode}"
            raise RuntimeError(f"--changed: `{' '.join(cmd)}` failed: {detail}")
        seen.update(line.strip() for line in proc.stdout.splitlines()
                    if line.strip().endswith(".py"))
    return sorted(seen)


def _print_rules() -> None:
    for title, registry in (("per-file rules", all_rules()),
                            ("whole-program rules", all_project_rules())):
        print(f"# {title}")
        for rule_id, rule_cls in sorted(registry.items()):
            print(f"{rule_id}  {rule_cls.name:32} {rule_cls.description}")


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint namespace; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    if args.explain is not None:
        try:
            print(explain_rule(args.explain.strip().upper()))
        except UnknownRuleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.update_baseline and args.baseline is None:
        print("error: --update-baseline requires --baseline PATH",
              file=sys.stderr)
        return 2
    paths = args.paths or _default_paths()
    try:
        select = _split_rule_list(args.select)
        ignore = _split_rule_list(args.ignore)
        # Resolve eagerly so unknown rule ids fail before any analysis,
        # and so the cache signature reflects the exact selection.
        rule_ids = [cls.rule_id for cls in resolve_rules(select, ignore)]
        project_ids = ([] if args.no_project else
                       [cls.rule_id
                        for cls in resolve_project_rules(select, ignore)])
        only_paths = _git_changed_files() if args.changed else None
        cache = None
        if not args.no_cache:
            cache = LintCache.load(
                args.cache, cache_signature(rule_ids, project_ids),
            )
        result = lint_paths(
            paths,
            select=select,
            ignore=ignore,
            whole_program=not args.no_project,
            cache=cache,
            only_paths=only_paths,
            effects=args.effects_out is not None,
            shard_plan=args.shard_plan_out is not None,
        )
        if cache is not None:
            cache.save()
        if args.baseline is not None:
            if args.update_baseline:
                n = write_baseline(args.baseline, result.findings)
                print(f"baseline: recorded {n} finding(s) "
                      f"to {args.baseline}")
                return 0
            result.findings = apply_baseline(
                result.findings, load_baseline(args.baseline),
            )
    except (UnknownRuleError, FileNotFoundError,
            RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.effects_out is not None:
        args.effects_out.write_text(result.effects, encoding="utf-8")
    if args.shard_plan_out is not None:
        args.shard_plan_out.write_text(result.shard_plan, encoding="utf-8")
    if args.sarif is not None:
        args.sarif.write_text(render_sarif(result) + "\n", encoding="utf-8")
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
