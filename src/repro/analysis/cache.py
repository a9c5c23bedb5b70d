"""Content-hash-keyed result cache for ``repro check``.

A full-repo lint parses ~200 files and walks every AST several times;
between two consecutive runs almost nothing changes.  The cache stores,
per file, the module's :class:`~repro.analysis.index.ModuleSummary`
and its module-scope rule violations, keyed by

* the SHA-256 of the file's bytes (content, not mtime — a ``touch``
  must not bust the cache, an edit must), and
* an *engine fingerprint* covering the engine schema version and the
  active module-scope rule set (a new or changed rule invalidates
  everything, as it must).

Interprocedural pass findings are **never** cached: they depend on the
whole index, are cheap to recompute from summaries, and caching them
would reintroduce exactly the stale-cross-module-result bug this layer
exists to catch.

Entries for files not seen in the current run are dropped on save, so
the cache file tracks the tree instead of growing without bound.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.index import ModuleSummary
from repro.analysis.lint.engine import Violation

#: Bump when the summary schema or violation semantics change shape —
#: old cache files are then ignored wholesale instead of misread.
#: /2: flow-sensitive facts and their pragmas joined the summary schema.
#: /3: metric emissions and the METRIC_NAMES registry (repro.obs)
#: joined the summary schema.
#: /4: abstract-interpretation value summaries, contract sites and a
#: proof pragma joined the summary schema.
#: /5: the value summaries, contract sites and proof pragma left it.
#: /6: the flow-sensitive facts and their pragmas left it.
CACHE_SCHEMA = "repro.check.cache/6"


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def engine_fingerprint(rule_ids: Sequence[str]) -> str:
    """Identity of the analysis configuration a cached entry is valid
    for: schema version + the active module-scope rule IDs."""
    return f"{CACHE_SCHEMA}::{','.join(sorted(rule_ids))}"


class ResultCache:
    """Per-file (summary, violations) store on disk.

    Corrupt or schema-mismatched cache files are treated as empty —
    the cache may never turn into a correctness hazard.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._entries: Dict[str, Dict[str, object]] = {}
        self._seen: set = set()
        self.hits = 0
        self.misses = 0
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text(encoding="utf-8"))
                if isinstance(data, dict) and data.get("schema") == CACHE_SCHEMA:
                    self._entries = dict(data.get("entries", {}))
            except (ValueError, OSError):
                self._entries = {}

    def get(
        self, display_path: str, sha: str, fingerprint: str
    ) -> Optional[Tuple[ModuleSummary, List[Violation]]]:
        self._seen.add(display_path)
        entry = self._entries.get(display_path)
        if (
            entry is None
            or entry.get("sha") != sha
            or entry.get("fingerprint") != fingerprint
        ):
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_dict(entry["summary"])  # type: ignore[arg-type]
            violations = [Violation.from_dict(v) for v in entry["violations"]]  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return summary, violations

    def put(
        self,
        display_path: str,
        sha: str,
        fingerprint: str,
        summary: ModuleSummary,
        violations: Sequence[Violation],
    ) -> None:
        self._seen.add(display_path)
        self._entries[display_path] = {
            "sha": sha,
            "fingerprint": fingerprint,
            "summary": summary.to_dict(),
            "violations": [v.to_dict() for v in violations],
        }

    def save(self) -> None:
        """Persist atomically: serialise to a sibling tmp file, then
        ``os.replace`` it over the target.  Concurrent ``repro check``
        processes saving the same cache each land a complete file —
        last writer wins — instead of interleaving partial writes into
        a corrupt one."""
        entries = {
            path: entry
            for path, entry in sorted(self._entries.items())
            if path in self._seen
        }
        payload = {"schema": CACHE_SCHEMA, "entries": entries}
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
