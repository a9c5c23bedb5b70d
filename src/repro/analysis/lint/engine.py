"""Lint engine: per-file model, suppression, output.

The engine is rule-agnostic.  A *module-scope rule* is an object with a
``rule_id``, a one-line ``summary`` and a ``check(module)`` generator
yielding :class:`Violation`; rules register themselves with
:func:`register` (see :mod:`repro.analysis.lint.rules` for the
catalogue).  *Interprocedural passes* — which see the whole
:class:`repro.analysis.index.ProjectIndex` rather than one file — live
in :mod:`repro.analysis.passes` and reuse the same :class:`Violation`
and suppression machinery.

Suppression is per-line: a trailing ``noqa`` comment in either the
historical form (``repro: noqa[DET001,FRAME101]``) or the conventional
form (``noqa: DET001,FRAME101``) silences the named rule(s) on that
line.  A *bare* noqa (no rule list) still blanket-silences the line
but is itself reported as ``SUPP001`` — unscoped suppressions hide
future findings.  There is no baseline: a new rule lands with its
hits fixed (``TestSelfLint`` requires a clean tree).

Beyond noqa, two pragma vocabularies feed the interprocedural passes:

* ``det: reviewed`` (trailing, on a ``def`` line) — the function was
  audited and its impure-looking sinks do not reach the output; the
  determinism pass stops propagating through it.
* ``frame: <f>`` / ``frame: <f> -> <g>`` (trailing on a ``def`` line,
  or a full-line comment for a whole module) — declares the coordinate
  frame of the bbox values a function consumes/produces (``->`` for
  converters); ``frame: any`` marks frame-polymorphic code.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Both noqa spellings: historical ``repro: noqa[DET001]`` and
#: conventional ``noqa: DET001,FRAME101``; a match with neither a
#: bracketed nor a colon list is *bare* (blanket + SUPP001).
_NOQA_RE = re.compile(
    r"#\s*(?:repro:\s*)?noqa(?:\s*\[(?P<bracket>[A-Za-z0-9_,\s]+)\]|:\s*(?P<colon>[A-Za-z0-9_,\s]+))?"
)

#: Trailing ``det: reviewed`` pragma on a ``def`` line.
_DET_REVIEWED_RE = re.compile(r"#\s*det:\s*reviewed\b")

#: Trailing ``frame: observed`` or converter ``frame: observed -> original``.
_FRAME_PRAGMA_RE = re.compile(
    r"#\s*frame:\s*(?P<src>[A-Za-z_]\w*)(?:\s*->\s*(?P<dst>[A-Za-z_]\w*))?"
)

#: Directory names pruned from discovery.  ``fixtures`` holds test
#: inputs with *intentional* violations (tests copy them to a tmp dir
#: before linting them on purpose).
_SKIP_DIRS = {
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "build", "dist",
    "fixtures",
}


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule hit at a location, with a fixit message."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Violation":
        return Violation(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
        )


@dataclass(frozen=True)
class NoqaMark:
    """The suppression state of one line.

    ``blanket`` is a bare noqa (silences every rule except ``SUPP001``,
    which reports the bare noqa itself); ``ids`` are explicitly listed
    rule IDs (which silence exactly those rules, including ``SUPP001``).
    One line can carry both — e.g. a string literal containing a bare
    noqa plus a real trailing ``noqa: SUPP001``.
    """

    blanket: bool = False
    ids: frozenset = frozenset()

    def suppresses(self, rule_id: str) -> bool:
        if rule_id in self.ids:
            return True
        return self.blanket and rule_id != "SUPP001"

    def to_dict(self) -> Dict[str, object]:
        return {"blanket": self.blanket, "ids": sorted(self.ids)}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "NoqaMark":
        return NoqaMark(bool(data["blanket"]), frozenset(data["ids"]))  # type: ignore[arg-type]


class ModuleInfo:
    """One parsed source file, as rules see it."""

    def __init__(self, path: Path, source: str, display_path: str):
        self.path = path
        #: Path as reported in violations (relative to the lint root).
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: Dotted module name (``repro.core.segment``) when the file
        #: lives under a ``repro`` package directory, else ``None`` —
        #: layer-scoped rules key off this.
        self.module = _module_name(path)
        #: line -> suppression state for that line.
        self.noqa: Dict[int, NoqaMark] = _parse_noqa(self.lines)
        #: lines carrying a trailing ``det: reviewed`` pragma.
        self.det_reviewed_lines: Set[int] = {
            i for i, line in enumerate(self.lines, start=1) if _DET_REVIEWED_RE.search(line)
        }
        #: line -> (consumed frame, produced frame) from a trailing
        #: ``frame:`` pragma (both equal unless the ``->`` form is used).
        self.frame_pragmas: Dict[int, Tuple[str, str]] = {}
        #: whole-module frame declared by a full-line ``# frame: X``
        #: comment (``any`` marks frame-polymorphic modules).
        self.module_frame: Optional[str] = None
        for i, line in enumerate(self.lines, start=1):
            m = _FRAME_PRAGMA_RE.search(line)
            if not m:
                continue
            src = m.group("src")
            dst = m.group("dst") or src
            if line.strip().startswith("#"):
                if self.module_frame is None:
                    self.module_frame = src
            else:
                self.frame_pragmas[i] = (src, dst)
        #: alias -> fully qualified module/name, e.g. ``np`` ->
        #: ``numpy``, ``default_rng`` -> ``numpy.random.default_rng``.
        self.import_aliases: Dict[str, str] = _collect_aliases(self.tree)

    def resolve_call_name(self, node: ast.AST) -> Optional[str]:
        """Fully qualified dotted name of a ``Name``/``Attribute``
        chain, resolving the root through the import aliases; ``None``
        for anything dynamic (subscripts, calls, locals)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.import_aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )

    def suppressed(self, violation: Violation) -> bool:
        marked = self.noqa.get(violation.line)
        return marked is not None and marked.suppresses(violation.rule)


def _module_name(path: Path) -> Optional[str]:
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    sub = parts[parts.index("repro"):]
    if sub[-1] == "__init__.py":
        sub = sub[:-1]
    elif sub[-1].endswith(".py"):
        sub[-1] = sub[-1][:-3]
    return ".".join(sub)


def _parse_noqa(lines: Sequence[str]) -> Dict[int, NoqaMark]:
    out: Dict[int, NoqaMark] = {}
    for i, line in enumerate(lines, start=1):
        blanket = False
        ids: Set[str] = set()
        for m in _NOQA_RE.finditer(line):
            listed = m.group("bracket") or m.group("colon")
            if listed is None:
                blanket = True
            else:
                ids.update(r.strip() for r in listed.split(",") if r.strip())
        if blanket or ids:
            out[i] = NoqaMark(blanket, frozenset(ids))
    return out


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name != "*":
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------

#: rule_id -> rule instance, in registration order.
ALL_RULES: Dict[str, "Rule"] = {}


class Rule:
    """Base class: subclass, set ``rule_id``/``summary``, implement
    ``check``.  ``example`` (a minimal violating snippet) and ``fix``
    (what to write instead) feed ``repro check --explain`` so the
    documentation cannot drift from the catalogue.  Registration is
    explicit via :func:`register` so test fixtures can instantiate
    rules without polluting the registry."""

    rule_id: str = ""
    summary: str = ""
    example: str = ""
    fix: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError


def register(cls):
    """Class decorator adding a rule to :data:`ALL_RULES`."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in ALL_RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    ALL_RULES[cls.rule_id] = cls()
    return cls


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield sub


def run_module_rules(
    module: ModuleInfo, active: Sequence[Rule]
) -> List[Violation]:
    """All unsuppressed module-scope rule hits for one parsed file."""
    violations: List[Violation] = []
    for rule in active:
        for v in rule.check(module):
            if not module.suppressed(v):
                violations.append(v)
    return violations


def lint_paths(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> List[Violation]:
    """Lint every ``*.py`` under ``paths`` — module-scope rules *and*
    the interprocedural passes — serially and without a cache.

    Thin wrapper over :func:`repro.analysis.runner.check_project`, kept
    for callers that predate the whole-program framework.  ``rule_ids``
    restricts the run to a subset of the combined catalogue; ``root``
    controls how paths are displayed (defaults to the cwd).
    Unparseable files surface as ``PARSE001`` violations rather than
    crashing the run.  Returns violations sorted by location, with
    noqa suppressions already applied.
    """
    from repro.analysis.runner import check_project

    return check_project(paths, rule_ids=rule_ids, root=root).violations


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def format_human(violations: Sequence[Violation]) -> str:
    if not violations:
        return "repro check: clean"
    lines = [f"{v.location}: {v.rule} {v.message}" for v in violations]
    lines.append(f"repro check: {len(violations)} violation(s)")
    return "\n".join(lines)


def format_json(violations: Sequence[Violation]) -> str:
    return json.dumps([v.to_dict() for v in violations], indent=2)
