"""The whole-program machinery: ProjectIndex, result cache, runner, CLI.

Covers the index's summaries and resolution (imports with scopes, the
approximate call graph, re-export chains, importer liveness), the
content-hash cache (warm-run speedup, per-file invalidation, fingerprint
busting, corruption tolerance), whole-run findings (module rules and
passes together) and the ``repro check`` CLI surface (--explain,
--cache, --stats, --timings).
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.cache import CACHE_SCHEMA, ResultCache, engine_fingerprint
from repro.analysis.index import ModuleSummary, ProjectIndex, summarize_module
from repro.analysis.lint.engine import ModuleInfo
from repro.analysis.runner import check_project

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _run_check_with_cache(tree: Path, root: Path, cache: Path) -> None:
    """Child-process body for the concurrent cache-save race test."""
    check_project([tree], root=root, cache_path=cache)


def make_summary(tmp_path: Path, rel: str, source: str) -> ModuleSummary:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return summarize_module(ModuleInfo(path, source, rel))


class TestModuleSummary:
    def test_import_scopes(self, tmp_path):
        summary = make_summary(
            tmp_path,
            "repro/core/mod.py",
            "import math\n"
            "from repro.geometry import BBox\n"
            "\n"
            "\n"
            "def lazy():\n"
            "    from repro.perf.runner import CorpusRunner\n"
            "    return CorpusRunner\n",
        )
        scopes = {(r.module, r.scope) for r in summary.imports}
        assert ("math", "module") in scopes
        assert ("repro.geometry", "module") in scopes
        assert ("repro.perf.runner", "lazy") in scopes

    def test_event_registry_and_emissions(self, tmp_path):
        summary = make_summary(
            tmp_path,
            "repro/trace/mod.py",
            'EVENT_NAMES = frozenset({"a.b", "c.d"})\n'
            "\n"
            "\n"
            "def go(tracer):\n"
            '    tracer.event("a.b", n=1)\n',
        )
        assert summary.event_registry is not None
        assert sorted(summary.event_registry[0]) == ["a.b", "c.d"]
        assert [name for name, _ in summary.events] == ["a.b"]

    def test_reexport_only_detection(self, tmp_path):
        shim = make_summary(
            tmp_path,
            "repro/core/shim.py",
            '"""Shim."""\n\nfrom repro.core.real import thing\n\n__all__ = ["thing"]\n',
        )
        assert shim.reexport_only and shim.all_names == ["thing"]
        real = make_summary(
            tmp_path, "repro/core/real.py", "def thing():\n    return 1\n"
        )
        assert not real.reexport_only

    def test_roundtrip_through_plain_data(self, tmp_path):
        summary = make_summary(
            tmp_path,
            "repro/core/rt.py",
            "from repro.geometry import BBox\n"
            "\n"
            "\n"
            "class Walker:\n"
            "    def step(self):  # det: reviewed\n"
            "        return self.jump()\n"
            "\n"
            "    def jump(self):\n"
            "        return BBox(0, 0, 1, 1)\n",
        )
        clone = ModuleSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
        assert clone.module == summary.module == "repro.core.rt"
        assert set(clone.functions) == {"Walker.step", "Walker.jump"}
        assert clone.functions["Walker.step"].det_reviewed
        assert clone.classes == summary.classes
        assert [r.to_dict() for r in clone.imports] == [
            r.to_dict() for r in summary.imports
        ]


class TestProjectIndex:
    def build(self, tmp_path, files):
        summaries = [make_summary(tmp_path, rel, src) for rel, src in files.items()]
        return ProjectIndex(summaries)

    def test_cross_module_call_resolution(self, tmp_path):
        index = self.build(
            tmp_path,
            {
                "repro/core/a.py": (
                    "from repro.core.b import helper\n"
                    "\n"
                    "\n"
                    "def top():\n"
                    "    return helper()\n"
                ),
                "repro/core/b.py": "def helper():\n    return 1\n",
            },
        )
        graph = index.call_graph()
        assert graph["repro.core.a::top"] == ["repro.core.b::helper"]

    def test_self_method_and_reexport_chain(self, tmp_path):
        index = self.build(
            tmp_path,
            {
                "repro/pkg/__init__.py": "from repro.pkg.impl import work\n",
                "repro/pkg/impl.py": "def work():\n    return 2\n",
                "repro/use.py": (
                    "from repro.pkg import work\n"
                    "\n"
                    "\n"
                    "class Runner:\n"
                    "    def go(self):\n"
                    "        return self.step()\n"
                    "\n"
                    "    def step(self):\n"
                    "        return work()\n"
                ),
            },
        )
        graph = index.call_graph()
        assert graph["repro.use::Runner.go"] == ["repro.use::Runner.step"]
        assert graph["repro.use::Runner.step"] == ["repro.pkg.impl::work"]

    def test_importers_of_sees_parent_package_pull(self, tmp_path):
        index = self.build(
            tmp_path,
            {
                "repro/pkg/__init__.py": "from repro.pkg.impl import work\n",
                "repro/pkg/impl.py": "def work():\n    return 2\n",
                "repro/use.py": "from repro.pkg import work\n",
            },
        )
        importers = dict(index.importers_of("repro.pkg.impl"))
        assert "repro/pkg/__init__.py" in importers
        # `from repro.pkg import work` pulls impl's name via the parent.
        assert index.resolves_name("repro.pkg", "work")
        assert not index.resolves_name("repro.pkg", "missing")


def write_tree(tmp_path: Path, n: int = 40) -> Path:
    """A plain (non-package) tree big enough for timing comparisons."""
    tree = tmp_path / "tree"
    tree.mkdir()
    body = "\n".join(
        f"def fn_{i}(x):\n"
        f"    y = x + {i}\n"
        f"    items = sorted([y, {i}])\n"
        f"    return sum(items)\n"
        for i in range(30)
    )
    for i in range(n):
        (tree / f"mod_{i:03d}.py").write_text(f'"""Module {i}."""\n\n{body}\n')
    return tree


class TestResultCache:
    def test_warm_run_hits_and_is_faster(self, tmp_path):
        tree = write_tree(tmp_path, n=60)
        cache = tmp_path / "cache.json"
        t0 = time.perf_counter()
        cold = check_project([tree], root=tmp_path, cache_path=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = check_project([tree], root=tmp_path, cache_path=cache)
        warm_s = time.perf_counter() - t0
        assert cold.stats["cached"] == 0 and cold.stats["parsed"] == 60
        assert warm.stats["cached"] == 60 and warm.stats["parsed"] == 0
        assert warm.violations == cold.violations
        print(f"cold={cold_s:.3f}s warm={warm_s:.3f}s ratio={cold_s / warm_s:.1f}x")
        assert warm_s < cold_s

    def test_edit_invalidates_only_that_file(self, tmp_path):
        tree = write_tree(tmp_path, n=5)
        cache = tmp_path / "cache.json"
        check_project([tree], root=tmp_path, cache_path=cache)
        target = tree / "mod_002.py"
        target.write_text(target.read_text() + "\n\nimport random\nV = random.random()\n")
        result = check_project([tree], root=tmp_path, cache_path=cache)
        assert result.stats["parsed"] == 1 and result.stats["cached"] == 4
        assert [v.rule for v in result.violations] == ["DET001"]
        # A touch without a content change stays cached.
        result = check_project([tree], root=tmp_path, cache_path=cache)
        assert result.stats["parsed"] == 0

    def test_rule_set_change_busts_fingerprint(self, tmp_path):
        tree = write_tree(tmp_path, n=3)
        cache = tmp_path / "cache.json"
        check_project([tree], root=tmp_path, cache_path=cache)
        result = check_project(
            [tree], root=tmp_path, cache_path=cache, rule_ids=["DET001"]
        )
        assert result.stats["parsed"] == 3

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        tree = write_tree(tmp_path, n=2)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        result = check_project([tree], root=tmp_path, cache_path=cache)
        assert result.stats["parsed"] == 2
        # And the save overwrote it with a valid file.
        data = json.loads(cache.read_text())
        assert data["schema"] == CACHE_SCHEMA and len(data["entries"]) == 2

    def test_unseen_entries_evicted_on_save(self, tmp_path):
        tree = write_tree(tmp_path, n=3)
        cache = tmp_path / "cache.json"
        check_project([tree], root=tmp_path, cache_path=cache)
        (tree / "mod_000.py").unlink()
        check_project([tree], root=tmp_path, cache_path=cache)
        data = json.loads(cache.read_text())
        assert sorted(data["entries"]) == ["tree/mod_001.py", "tree/mod_002.py"]

    def test_fingerprint_depends_on_rules(self):
        assert engine_fingerprint(["A", "B"]) == engine_fingerprint(["B", "A"])
        assert engine_fingerprint(["A"]) != engine_fingerprint(["A", "B"])

    def test_cache_never_returns_mismatched_sha(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        summary = ModuleSummary(display_path="x.py", module=None)
        cache.put("x.py", "sha1", "fp", summary, [])
        assert cache.get("x.py", "sha2", "fp") is None
        assert cache.get("x.py", "sha1", "other-fp") is None
        assert cache.get("x.py", "sha1", "fp") is not None

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_concurrent_saves_never_corrupt_the_cache(self, tmp_path):
        """Two ``repro check --cache`` processes racing on the same
        cache file must each land a complete file (atomic tmp-file
        rename, last writer wins) — never an interleaved corrupt one."""
        tree = write_tree(tmp_path, n=12)
        cache = tmp_path / "cache.json"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_run_check_with_cache, args=(tree, tmp_path, cache)
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert all(p.exitcode == 0 for p in procs)
        data = json.loads(cache.read_text())
        assert data["schema"] == CACHE_SCHEMA and len(data["entries"]) == 12
        # No orphaned tmp files, and the survivor is fully warm.
        assert list(tmp_path.glob("cache.json.*.tmp")) == []
        warm = check_project([tree], root=tmp_path, cache_path=cache)
        assert warm.stats["cached"] == 12 and warm.stats["parsed"] == 0


class TestCheckProjectFindings:
    def test_module_rule_findings_on_a_dirty_tree(self, tmp_path):
        tree = write_tree(tmp_path, n=8)
        (tree / "dirty_a.py").write_text("import random\nV = random.random()\n")
        (tree / "dirty_b.py").write_text("def f(xs=[]):\n    return xs\n")
        result = check_project([tree], root=tmp_path)
        assert [v.rule for v in result.violations] == ["DET001", "MUT001"]

    def test_pass_findings_on_a_copied_fixture(self, tmp_path):
        import shutil

        fixture = (
            Path(__file__).resolve().parent / "fixtures" / "analysis" / "impure_lazy_import"
        )
        tree = tmp_path / "fx"
        shutil.copytree(fixture, tree)
        result = check_project([tree], root=tree)
        assert [v.rule for v in result.violations] == ["DET101"]


class TestCli:
    def test_explain_pass_rule(self, capsys):
        assert repro_main(["check", "--explain", "DET101"]) == 0
        out = capsys.readouterr().out
        assert "DET101" in out and "Example:" in out and "Fix:" in out

    def test_explain_module_rule(self, capsys):
        assert repro_main(["check", "--explain", "MUT001"]) == 0
        out = capsys.readouterr().out
        assert "mutable default" in out.lower()

    def test_explain_unknown_rule(self, capsys):
        assert repro_main(["check", "--explain", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_covers_every_registered_rule(self, capsys):
        """Exhaustiveness gate: every rule the engine can emit — the
        per-file catalogue, every pass family, and the parse sentinel —
        must explain itself with a worked example and a fix."""
        from repro.analysis.lint import ALL_RULES
        from repro.analysis.passes import load_catalogue
        from repro.analysis.runner import PARSE_RULE

        rule_ids = set(ALL_RULES)
        for pass_obj in load_catalogue().values():
            rule_ids.update(pass_obj.rules)
        rule_ids.add(PARSE_RULE)
        for rule_id in sorted(rule_ids):
            assert repro_main(["check", "--explain", rule_id]) == 0, rule_id
            out = capsys.readouterr().out
            assert "Example:" in out, f"{rule_id} has no example"
            assert "Fix:" in out, f"{rule_id} has no fix"

    def test_cache_and_stats_flags(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "c.json"
        assert repro_main(
            ["check", str(tmp_path), "--cache", str(cache), "--stats"]
        ) == 0
        assert "1 parsed" in capsys.readouterr().err
        assert repro_main(
            ["check", str(tmp_path), "--cache", str(cache), "--stats"]
        ) == 0
        assert "1 from cache" in capsys.readouterr().err
        assert repro_main(["check", str(tmp_path), "--stats"]) == 0  # no --cache: cold
        assert "0 from cache" in capsys.readouterr().err

    def test_stats_line_matches_the_lint_cache_gate(self, tmp_path, capsys):
        """``make lint-cache`` greps the warm run's stats line for
        ``file(s), 0 parsed,`` — keep the wording it anchors on."""
        for i in range(10):
            (tmp_path / f"mod_{i}.py").write_text("def f(x):\n    return x + 1\n")
        cache = tmp_path / "c.json"
        assert repro_main(
            ["check", str(tmp_path), "--cache", str(cache), "--stats"]
        ) == 0
        cold = capsys.readouterr().err
        assert "10 file(s), 10 parsed, 0 from cache" in cold
        assert "file(s), 0 parsed," not in cold
        assert repro_main(
            ["check", str(tmp_path), "--cache", str(cache), "--stats"]
        ) == 0
        warm = capsys.readouterr().err
        assert "10 file(s), 0 parsed, 10 from cache" in warm

    def test_timings_flag_prints_stage_table(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def f(x):\n    return x\n")
        assert repro_main(["check", str(tmp_path), "--timings"]) == 0
        err = capsys.readouterr().err
        assert "repro check timings" in err
        assert "check.files" in err and "check.index" in err
        assert "check.pass.determinism" in err


class TestRuleValidation:
    def test_pass_rule_ids_accepted(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = check_project([tmp_path], rule_ids=["DET101", "FRAME101"], root=tmp_path)
        assert result.violations == []

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            check_project([tmp_path], rule_ids=["NOPE999"], root=tmp_path)
