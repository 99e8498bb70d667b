"""reprolint: AST-based invariant checking for this repository.

The repository's headline guarantees — bit-identical scalar/batch
evaluation, resumable crash-safe cache builds, reproducible sweeps —
rest on invariants that ordinary linters do not know about:

* **determinism** (``RPL-D*``): no unseeded randomness, no wall-clock
  reads in result-producing code, no iteration over unordered sets
  feeding ordered output;
* **pool-safety** (``RPL-P*``): only picklable top-level callables cross
  the ``ProcessPoolExecutor`` boundary, and worker-executed functions do
  not mutate module-level state;
* **cache-hygiene** (``RPL-C*``): every key written through
  :class:`~repro.experiments.datastore.DataStore` is schema-versioned,
  and Cacti-style cost math stays in the one blessed implementation;
* **numeric-safety** (``RPL-N*``): no bare float equality and no silent
  ``float``→``int`` truncation in parameter derivation.

Run it with::

    PYTHONPATH=src python -m repro.analysis src scripts

Each file is parsed and checked once, in-process and uncached; then the
whole-program rules run over the facts of every module.  Findings
print as ``file:line:col RULE message`` and the process exits non-zero
when any survive suppression.  Suppress a documented false
positive with a trailing ``# reprolint: disable=RPL-X000`` comment (or
``# reprolint: disable-file=RPL-X000`` anywhere in the file to suppress
for the whole file).  See ``docs/reprolint.md`` for the rule catalogue.

The implementation is pure-stdlib (``ast`` + ``tokenize``); importing
this package pulls in no third-party dependency.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import (
    UnknownRuleError,
    check_paths,
    check_project_sources,
    check_source,
    main,
)
from repro.analysis.interproc import INTERPROC_RULES, ProjectRule
from repro.analysis.project import ModuleFacts, Project, extract_facts
from repro.analysis.rules import ALL_RULES, Rule, rule_by_id

__all__ = [
    "Diagnostic",
    "Rule",
    "ALL_RULES",
    "rule_by_id",
    "ProjectRule",
    "INTERPROC_RULES",
    "ModuleFacts",
    "Project",
    "extract_facts",
    "check_source",
    "check_paths",
    "check_project_sources",
    "UnknownRuleError",
    "main",
]
