"""File walking, rule dispatch and the CLI.

The entry point is ``python -m repro.analysis <paths...>``.  A run has
three stages:

1. **Per-file analysis** — every ``.py`` file is parsed and checked
   once, in-process: all per-file rules run, suppressions apply, and
   the module's whole-program facts are extracted.
2. **Whole-program analysis** — the facts of every module feed the
   call-graph rules in :mod:`repro.analysis.interproc`.
3. **Reporting** — ``--select``/``--ignore`` filter by rule id and the
   survivors print as ``file:line:col RULE message`` (or
   ``--format sarif`` for CI annotation).
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.interproc import INTERPROC_RULES, run_project_rules
from repro.analysis.module import ModuleInfo
from repro.analysis.project import ModuleFacts, Project, extract_facts
from repro.analysis.rules import ALL_RULES
from repro.analysis.sarif import render_sarif

__all__ = ["check_source", "check_paths", "check_project_sources",
           "iter_python_files", "UnknownRuleError", "main"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro_cache", ".venv",
                        "node_modules", ".mypy_cache", ".pytest_cache"})

#: Pseudo-rule for unparseable files; always reported unless ignored.
_SYNTAX_RULE = "RPL-E001"


class UnknownRuleError(ValueError):
    """A ``--select``/``--ignore`` id that names no rule."""

    def __init__(self, rule_id: str, suggestions: list[str]) -> None:
        hint = (f" (did you mean {', '.join(suggestions)}?)"
                if suggestions else "")
        super().__init__(f"no such rule: {rule_id}{hint}")
        self.rule_id = rule_id
        self.suggestions = suggestions


def _known_rule_ids() -> list[str]:
    return ([rule.id for rule in ALL_RULES]
            + [rule.id for rule in INTERPROC_RULES] + [_SYNTAX_RULE])


def _validate_rule_ids(ids: Iterable[str] | None) -> set[str] | None:
    if ids is None:
        return None
    known = _known_rule_ids()
    validated: set[str] = set()
    for raw in ids:
        for rule_id in raw.split(","):
            rule_id = rule_id.strip().upper()
            if not rule_id:
                continue
            if rule_id not in known:
                raise UnknownRuleError(
                    rule_id, difflib.get_close_matches(rule_id, known, n=3,
                                                       cutoff=0.4))
            validated.add(rule_id)
    return validated


def _filter(diagnostics: Iterable[Diagnostic],
            select: Iterable[str] | None,
            ignore: Iterable[str] | None) -> list[Diagnostic]:
    wanted = _validate_rule_ids(select)
    unwanted = _validate_rule_ids(ignore) or set()
    kept = []
    for diagnostic in diagnostics:
        if diagnostic.rule in unwanted:
            continue
        if wanted is not None and diagnostic.rule not in wanted \
                and diagnostic.rule != _SYNTAX_RULE:
            continue
        kept.append(diagnostic)
    return sorted(kept)


def _check_module(source: str, path: str
                  ) -> tuple[ModuleInfo | None, list[Diagnostic]]:
    """Parse one module and run every per-file rule on it.

    The diagnostics are unfiltered (every rule, post-suppression); an
    unparseable module yields no :class:`ModuleInfo` and one
    ``RPL-E001`` finding.
    """
    try:
        module = ModuleInfo(source, path)
    except SyntaxError as error:
        return None, [Diagnostic(path=path.replace("\\", "/"),
                                 line=error.lineno or 1,
                                 col=(error.offset or 1),
                                 rule=_SYNTAX_RULE,
                                 message=f"syntax error: {error.msg}")]
    diagnostics: list[Diagnostic] = []
    for rule in ALL_RULES:
        if not rule.applies_to(module.path):
            continue
        for diagnostic in rule.check(module):
            if not module.is_suppressed(diagnostic.rule, diagnostic.line):
                diagnostics.append(diagnostic)
    return module, diagnostics


def check_source(
    source: str,
    path: str,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Check one source string as though it lived at ``path``.

    ``path`` drives rule scoping (tests are exempt from most rules,
    ``RPL-C002`` only watches ``repro/power``+``repro/timing``, ...), so
    fixtures can probe any scope by choosing a virtual path.  Per-file
    rules only — the whole-program rules need a :class:`Project`; see
    :func:`check_project_sources`.
    """
    return _filter(_check_module(source, path)[1], select, ignore)


def check_project_sources(modules: Sequence[tuple[str, str]],
                          *,
                          select: Iterable[str] | None = None,
                          ignore: Iterable[str] | None = None
                          ) -> list[Diagnostic]:
    """Whole-program rules over ``(path, source)`` fixtures."""
    facts = []
    for path, source in modules:
        try:
            facts.append(extract_facts(ModuleInfo(source, path)))
        except SyntaxError:
            continue
    return _filter(run_project_rules(Project(facts)), select, ignore)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (deterministic order)."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for found in sorted(entry.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in found.parts):
                    yield found
        elif entry.suffix == ".py":
            yield entry
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")


def check_paths(paths: Sequence[str | Path],
                *,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None
                ) -> tuple[list[Diagnostic], int]:
    """Check every file under ``paths``; returns (diagnostics, file count).

    Per-file rules run on each module as it is read, then the
    whole-program rules run over the facts of every parsed module.
    """
    _validate_rule_ids(select)
    _validate_rule_ids(ignore)
    files = [path.as_posix() for path in iter_python_files(paths)]
    diagnostics: list[Diagnostic] = []
    facts: list[ModuleFacts] = []
    for path in files:
        module, found = _check_module(
            Path(path).read_text(encoding="utf-8"), path)
        diagnostics.extend(found)
        if module is not None:
            facts.append(extract_facts(module))
    diagnostics.extend(run_project_rules(Project(facts)))
    return _filter(diagnostics, select, ignore), len(files)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.summary}")
    for project_rule in INTERPROC_RULES:
        lines.append(f"{project_rule.id}  {project_rule.name}  "
                     "[whole-program]")
        lines.append(f"    {project_rule.summary}")
    return "\n".join(lines)


def _rule_catalogue() -> list[tuple[str, str, str]]:
    return ([(rule.id, rule.name, rule.summary) for rule in ALL_RULES]
            + [(rule.id, rule.name, rule.summary)
               for rule in INTERPROC_RULES])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: determinism / pool-safety / cache-hygiene "
                    "/ numeric-safety invariant checker with whole-program "
                    "call-graph rules",
        epilog="Suppress a documented false positive with "
               "'# reprolint: disable=RPL-X000' on the offending line, or "
               "'# reprolint: disable-file=RPL-X000' anywhere in the file.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "scripts"],
                        help="files or directories to check "
                             "(default: src scripts)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="only run these rule IDs")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE", help="skip these rule IDs")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        diagnostics, files_checked = check_paths(
            args.paths, select=args.select, ignore=args.ignore)
    except (UnknownRuleError, FileNotFoundError) as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        rendered = render_sarif(diagnostics, _rule_catalogue())
    else:
        rendered = "\n".join(diagnostic.render()
                             for diagnostic in diagnostics)
    if args.output is not None:
        Path(args.output).write_text(rendered + ("\n" if rendered else ""),
                                     encoding="utf-8")
    elif rendered:
        print(rendered)

    if diagnostics:
        print(f"reprolint: {len(diagnostics)} finding(s) in "
              f"{files_checked} file(s)", file=sys.stderr)
        return 1
    print(f"reprolint: clean ({files_checked} file(s) checked)",
          file=sys.stderr)
    return 0
