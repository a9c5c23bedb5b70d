"""Project-level driver for ``repro check``.

One :func:`check_project` call does the whole job:

1. **Discover** every ``*.py`` under the given paths.
2. **Per-file work** — parse, run the module-scope rules, distill a
   :class:`~repro.analysis.index.ModuleSummary`.  This is the only
   expensive part, so it is the unit of caching (content-hash keyed,
   see :mod:`repro.analysis.cache`).
3. **Index** the summaries into a :class:`ProjectIndex` and run the
   interprocedural passes (:mod:`repro.analysis.passes`) over it.
   Pass findings are never cached — they depend on the whole program.
4. **Merge**: suppress pass findings on noqa'd lines, drop ``DET1xx``
   findings that duplicate a module-scope ``DET0xx`` hit at the same
   location, sort everything by location.

Each stage is timed into a :class:`~repro.instrument.PipelineMetrics`
(``check.files``, ``check.index``, ``check.pass.<id>``) that the CLI
renders with ``--timings``; ``stats["parsed"]`` counts the files parsed
this run (a warm cache run must report 0 — CI asserts it).

Unparseable files become ``PARSE001`` findings instead of crashing the
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import ResultCache, content_hash, engine_fingerprint
from repro.analysis.index import ModuleSummary, ProjectIndex, summarize_module
from repro.analysis.lint import rules as _rules  # noqa: F401  (registers the catalogue)
from repro.analysis.lint.engine import (
    ALL_RULES,
    ModuleInfo,
    Violation,
    iter_python_files,
    run_module_rules,
)
from repro.analysis.passes import TreeProvider, load_catalogue
from repro.instrument import PipelineMetrics

#: Synthetic rule for files the parser rejects.
PARSE_RULE = "PARSE001"


@dataclass
class CheckResult:
    """Everything one ``repro check`` run produced."""

    violations: List[Violation] = field(default_factory=list)
    #: files scanned / parsed this run / served from cache.
    stats: Dict[str, int] = field(default_factory=dict)
    #: per-stage / per-pass wall time (``check.*`` stage names).
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)


def _display(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_project(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
    cache_path: Optional[Path] = None,
) -> CheckResult:
    """Run the full analysis (module rules + passes) over ``paths``.

    ``rule_ids`` restricts the combined catalogue (module rules and
    pass rules alike); ``cache_path`` enables the content-hash result
    cache.
    """
    root = Path(root) if root is not None else Path.cwd()
    active_ids = None if rule_ids is None else set(rule_ids)
    passes = load_catalogue()
    if active_ids is not None:
        known = set(ALL_RULES) | {PARSE_RULE}
        for pass_obj in passes.values():
            known.update(pass_obj.rules)
        unknown = active_ids - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    module_rule_ids = [
        rule_id
        for rule_id in ALL_RULES
        if active_ids is None or rule_id in active_ids
    ]
    fingerprint = engine_fingerprint(module_rule_ids)
    cache = ResultCache(cache_path) if cache_path is not None else None

    # ------------------------------------------------------------------
    # Discovery.
    # ------------------------------------------------------------------
    files: List[Tuple[Path, str]] = []  # (path, display)
    seen_paths = set()
    for path in iter_python_files(paths):
        resolved = path.resolve()
        if resolved in seen_paths:
            continue
        seen_paths.add(resolved)
        files.append((path, _display(path, root)))

    # ------------------------------------------------------------------
    # Per-file stage: cache hit, or parse + module rules + summary.  The
    # parsed trees stay in memory and are lent to the passes.
    # ------------------------------------------------------------------
    active_rules = [
        rule
        for rule_id, rule in ALL_RULES.items()
        if active_ids is None or rule_id in active_ids
    ]
    violations: List[Violation] = []
    summaries: List[ModuleSummary] = []
    parsed_infos: Dict[str, ModuleInfo] = {}
    metrics = PipelineMetrics()
    parsed = 0
    with metrics.stage("check.files"):
        for path, display in files:
            data = path.read_bytes()
            sha = content_hash(data)
            hit = cache.get(display, sha, fingerprint) if cache is not None else None
            if hit is not None:
                summary, cached_violations = hit
                summaries.append(summary)
                violations.extend(cached_violations)
                continue
            parsed += 1
            try:
                info = ModuleInfo(path, data.decode("utf-8", errors="replace"), display)
            except SyntaxError as exc:
                violations.append(
                    Violation(
                        path=display,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        rule=PARSE_RULE,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            parsed_infos[display] = info
            file_violations = run_module_rules(info, active_rules)
            summary = summarize_module(info)
            summaries.append(summary)
            violations.extend(file_violations)
            if cache is not None:
                cache.put(display, sha, fingerprint, summary, file_violations)

    # ------------------------------------------------------------------
    # Whole-program stage.
    # ------------------------------------------------------------------
    with metrics.stage("check.index"):
        index = ProjectIndex(summaries)

    display_to_path = {d: p for p, d in files}

    def _load_tree(display: str) -> Optional[ModuleInfo]:
        path = display_to_path.get(display)
        if path is None:
            return None
        try:
            return ModuleInfo(path, path.read_text(encoding="utf-8"), display)
        except (OSError, SyntaxError):
            return None

    trees = TreeProvider(_load_tree)
    for display, info in parsed_infos.items():
        trees.seed(display, info)

    module_hit_lines = {
        (v.path, v.line) for v in violations if v.rule.startswith("DET0")
    }
    for pass_obj in passes.values():
        pass_rules = [
            rule_id
            for rule_id in pass_obj.rules
            if active_ids is None or rule_id in active_ids
        ]
        if not pass_rules:
            continue
        with metrics.stage(f"check.pass.{pass_obj.pass_id}"):
            for v in pass_obj.run(index, trees):
                if v.rule not in pass_rules:
                    continue
                # DET1xx only surfaces what module-scope analysis cannot see.
                if v.rule.startswith("DET1") and (v.path, v.line) in module_hit_lines:
                    continue
                summary = index.files.get(v.path)
                if summary is not None and summary.suppressed(v.line, v.rule):
                    continue
                violations.append(v)

    if cache is not None:
        cache.save()

    stats = {
        "files": len(files),
        "parsed": parsed,
        "cached": len(files) - parsed,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
    }
    return CheckResult(
        violations=sorted(violations), stats=stats, metrics=metrics
    )
