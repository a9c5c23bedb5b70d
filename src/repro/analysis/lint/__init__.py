"""The ``repro check`` lint engine.

:mod:`repro.analysis.lint.engine` owns the machinery (file discovery,
AST parsing, ``noqa``-comment suppression, output formats);
:mod:`repro.analysis.lint.rules` owns the rule catalogue.  Importing
this package registers every rule.
"""

from repro.analysis.lint.engine import (
    ALL_RULES,
    ModuleInfo,
    NoqaMark,
    Violation,
    format_human,
    format_json,
    lint_paths,
)
from repro.analysis.lint import rules  # noqa: F401  (registers the catalogue)

__all__ = [
    "ALL_RULES",
    "ModuleInfo",
    "NoqaMark",
    "Violation",
    "format_human",
    "format_json",
    "lint_paths",
]
