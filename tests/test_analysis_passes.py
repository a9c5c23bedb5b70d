"""The interprocedural pass families (DET1xx / FRAME1xx / DEAD / SCHEMA).

Each pass family is proven against an on-disk fixture package under
``tests/fixtures/analysis/`` that is *invisible* to the module-scope
rules — the same tree is linted twice, once with only the per-file
catalogue (clean) and once with the passes (finding) — plus targeted
inline fixtures for the escape hatches (pragmas, noqa, importers).

Fixture trees are copied to a tmp dir before linting: the ``fixtures``
directory itself is pruned from discovery so the repo's own self-lint
stays clean.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.lint import ALL_RULES
from repro.analysis.runner import check_project

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"

#: The per-file catalogue only — what `repro check` could see before the
#: whole-program framework existed.
MODULE_RULES = list(ALL_RULES)


def copy_fixture(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def run_tree(tree: Path, rule_ids=None):
    return check_project([tree], rule_ids=rule_ids, root=tree).violations


class TestDeterminismPass:
    def test_lazy_import_chain_reaches_wall_clock(self, tmp_path):
        tree = copy_fixture(tmp_path, "impure_lazy_import")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["DET101"]
        v = violations[0]
        assert v.path == "repro/harness/clock.py"
        assert "time.time" in v.message
        # The call chain names every hop back to the entry point.
        assert "helper <- stamp <- segment" in v.message

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "impure_lazy_import")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_det_reviewed_pragma_stops_propagation(self, tmp_path):
        tree = copy_fixture(tmp_path, "impure_lazy_import")
        clock = tree / "repro" / "harness" / "clock.py"
        clock.write_text(
            clock.read_text().replace("def helper():", "def helper():  # det: reviewed")
        )
        assert run_tree(tree) == []

    def test_unreachable_sink_is_clean(self, tmp_path):
        tree = copy_fixture(tmp_path, "impure_lazy_import")
        segment = tree / "repro" / "core" / "segment.py"
        segment.write_text("def segment(doc):\n    return doc\n")
        assert run_tree(tree) == []

    def test_noqa_suppresses_the_sink_line(self, tmp_path):
        tree = copy_fixture(tmp_path, "impure_lazy_import")
        clock = tree / "repro" / "harness" / "clock.py"
        clock.write_text(
            clock.read_text().replace(
                "return time.time()", "return time.time()  # noqa: DET101"
            )
        )
        assert run_tree(tree) == []


class TestFramesPass:
    def test_cross_frame_iou_flagged_once(self, tmp_path):
        tree = copy_fixture(tmp_path, "frame_mix_iou")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["FRAME101"]
        v = violations[0]
        assert v.path == "repro/layout/mix.py"
        assert "observed" in v.message and "original" in v.message
        # Only mixed_overlap's iou line — not the same-frame or the
        # converted (.scale breaks taint) variants.
        source_line = (tree / v.path).read_text().splitlines()[v.line - 1]
        assert "a.iou(b)" in source_line

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "frame_mix_iou")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_call_site_violating_declared_frame(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "use.py").write_text(
            "def span(box):  # frame: observed\n"
            "    return box.x2\n"
            "\n"
            "\n"
            "def layout_box(node):  # frame: original\n"
            "    return node.box\n"
            "\n"
            "\n"
            "def bad(node):\n"
            "    return span(layout_box(node))\n"
        )
        violations = run_tree(tmp_path)
        assert [v.rule for v in violations] == ["FRAME102"]
        assert "frame: observed" in violations[0].message

    def test_converter_returning_unconverted_value(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "conv.py").write_text(
            "def rotate_back(box, angle):  # frame: observed -> original\n"
            "    return box\n"
        )
        violations = run_tree(tmp_path)
        assert [v.rule for v in violations] == ["FRAME102"]
        assert "returns a observed-frame value" in violations[0].message

    def test_public_geometry_api_without_frame(self, tmp_path):
        target = tmp_path / "repro" / "geometry"
        target.mkdir(parents=True)
        (target / "extra.py").write_text(
            "def overlap_ratio(box_a, box_b):\n    return 0.0\n"
        )
        violations = run_tree(tmp_path)
        assert [v.rule for v in violations] == ["FRAME103"]

    def test_module_frame_pragma_silences_frame103(self, tmp_path):
        target = tmp_path / "repro" / "geometry"
        target.mkdir(parents=True)
        (target / "extra.py").write_text(
            "# frame: any\n"
            "def overlap_ratio(box_a, box_b):\n    return 0.0\n"
        )
        assert run_tree(tmp_path) == []

    def test_noqa_suppresses_frame_finding(self, tmp_path):
        tree = copy_fixture(tmp_path, "frame_mix_iou")
        mix = tree / "repro" / "layout" / "mix.py"
        mix.write_text(
            mix.read_text().replace(
                "return a.iou(b)\n\n\ndef same", "return a.iou(b)  # noqa: FRAME101\n\n\ndef same"
            )
        )
        assert run_tree(tree) == []


class TestExportsPass:
    def test_dead_shim_flagged(self, tmp_path):
        tree = copy_fixture(tmp_path, "dead_shim")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["DEAD001"]
        v = violations[0]
        assert v.path == "repro/core/old_merge.py"
        assert "repro.core.old_merge" in v.message
        # merging.py has a live importer and is not a shim hit.

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "dead_shim")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_shim_with_importer_is_alive(self, tmp_path):
        tree = copy_fixture(tmp_path, "dead_shim")
        (tree / "repro" / "harness" / "legacy.py").write_text(
            "from repro.core.old_merge import merge_pass\n"
            "\n"
            "\n"
            "def legacy(blocks):\n"
            "    return merge_pass(blocks)\n"
        )
        assert run_tree(tree) == []

    def test_unresolvable_from_import(self, tmp_path):
        tree = copy_fixture(tmp_path, "dead_shim")
        run = tree / "repro" / "harness" / "run.py"
        run.write_text(
            run.read_text().replace(
                "from repro.core.merging import merge_pass",
                "from repro.core.merging import merge_passes",
            ).replace("return merge_pass(blocks)", "return merge_passes(blocks)")
        )
        violations = run_tree(tree)
        rules = [v.rule for v in violations]
        assert "DEAD002" in rules
        dead002 = next(v for v in violations if v.rule == "DEAD002")
        assert "merge_passes" in dead002.message

    def test_getattr_module_exempt_from_dead002(self, tmp_path):
        tree = copy_fixture(tmp_path, "dead_shim")
        merging = tree / "repro" / "core" / "merging.py"
        merging.write_text(
            merging.read_text()
            + "\n\ndef __getattr__(name):\n    raise AttributeError(name)\n"
        )
        run = tree / "repro" / "harness" / "run.py"
        run.write_text(
            run.read_text().replace("import merge_pass", "import merge_anything")
            .replace("merge_pass(blocks)", "merge_anything(blocks)")
        )
        # The shim itself is still dead, but the unknowable name pulled
        # through __getattr__ is not a DEAD002 hit.
        assert [v.rule for v in run_tree(tree)] == ["DEAD001"]


class TestSchemaPass:
    def test_unregistered_and_stale_names(self, tmp_path):
        tree = copy_fixture(tmp_path, "unregistered_event")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["SCHEMA001", "SCHEMA002"]
        schema1 = violations[0]
        assert schema1.path == "repro/core/emit.py"
        assert "cut.descision" in schema1.message
        schema2 = violations[1]
        assert schema2.path == "repro/trace/tracer.py"
        assert "ocr.retry" in schema2.message

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "unregistered_event")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_registering_the_name_fixes_schema001(self, tmp_path):
        tree = copy_fixture(tmp_path, "unregistered_event")
        registry = tree / "repro" / "trace" / "tracer.py"
        registry.write_text(
            'EVENT_NAMES = frozenset({"cut.decision", "cut.descision"})\n'
        )
        assert run_tree(tree) == []

    def test_no_registry_means_pass_is_inert(self, tmp_path):
        tree = copy_fixture(tmp_path, "unregistered_event")
        (tree / "repro" / "trace" / "tracer.py").write_text("X = 1\n")
        assert run_tree(tree) == []

    def test_event_in_nonpackage_code_out_of_scope(self, tmp_path):
        tree = copy_fixture(tmp_path, "unregistered_event")
        emit = tree / "repro" / "core" / "emit.py"
        emit.write_text(
            emit.read_text().replace('"cut.descision"', '"cut.decision"')
        )
        (tree / "repro" / "trace" / "tracer.py").write_text(
            'EVENT_NAMES = frozenset({"cut.decision"})\n'
        )
        # A stray event emitted from outside any repro package (a test,
        # a script) is not the schema's business.
        (tree / "script.py").write_text(
            "def poke(tracer):\n    tracer.event('stray')\n"
        )
        assert run_tree(tree) == []


class TestObsPass:
    def test_undeclared_and_stale_names(self, tmp_path):
        tree = copy_fixture(tmp_path, "undeclared_metric")
        violations = run_tree(tree)
        assert sorted(v.rule for v in violations) == ["OBS002", "OBS003"]
        by_rule = {v.rule: v for v in violations}
        obs2 = by_rule["OBS002"]
        assert obs2.path == "repro/perf/emit.py"
        assert "repro.docs.procesed" in obs2.message
        obs3 = by_rule["OBS003"]
        assert obs3.path == "repro/obs/names.py"
        assert "repro.docs.skipped" in obs3.message

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "undeclared_metric")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_declaring_the_name_fixes_obs002(self, tmp_path):
        tree = copy_fixture(tmp_path, "undeclared_metric")
        names = tree / "repro" / "obs" / "names.py"
        names.write_text(
            'METRIC_NAMES = {\n'
            '    "repro.docs.processed": "counter",\n'
            '    "repro.docs.procesed": "counter",\n'
            '}\n'
        )
        assert run_tree(tree) == []

    def test_no_registry_means_pass_is_inert(self, tmp_path):
        tree = copy_fixture(tmp_path, "undeclared_metric")
        (tree / "repro" / "obs" / "names.py").write_text("X = 1\n")
        assert run_tree(tree) == []

    def test_emission_in_nonpackage_code_out_of_scope(self, tmp_path):
        tree = copy_fixture(tmp_path, "undeclared_metric")
        emit = tree / "repro" / "perf" / "emit.py"
        emit.write_text(
            emit.read_text().replace('"repro.docs.procesed"', '"repro.docs.processed"')
        )
        (tree / "repro" / "obs" / "names.py").write_text(
            'METRIC_NAMES = {"repro.docs.processed": "counter"}\n'
        )
        # A synthetic metric driven from a test or script is not the
        # registry's business.
        (tree / "script.py").write_text(
            "def poke(reg):\n    reg.counter('stray').inc()\n"
        )
        assert run_tree(tree) == []


class TestConcurrencyPass:
    def test_worker_reachable_alias_write_flagged(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_worker_global")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["CONC101"]
        v = violations[0]
        assert v.path == "repro/core/cache.py"
        assert "module state '_CACHE'" in v.message
        assert "via alias 'cache'" in v.message
        # The chain crosses the file boundary back to the worker entry.
        assert "warm_cache <- _worker_main" in v.message

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_worker_global")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_conc_ambient_pragma_sanctions_the_writer(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_worker_global")
        cache = tree / "repro" / "core" / "cache.py"
        cache.write_text(
            cache.read_text().replace(
                "def warm_cache(config):", "def warm_cache(config):  # conc: ambient"
            )
        )
        assert run_tree(tree) == []

    def test_write_without_worker_path_is_clean(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_worker_global")
        runner = tree / "repro" / "perf" / "runner.py"
        runner.write_text("def _worker_main(config):\n    return config\n")
        assert run_tree(tree) == []

    def test_configured_worker_entries_exist_under_src(self):
        """CONC101/102 find worker code through hard-coded names; a
        rename must fail here instead of silently disarming the rules."""
        import ast

        from repro.analysis.passes.concurrency import BOUNDARY_MODULES, WORKER_ENTRIES

        src = Path(__file__).resolve().parents[1] / "src"

        def module_path(name):
            path = src.joinpath(*name.split(".")).with_suffix(".py")
            assert path.is_file(), f"{name} is not a module under src/"
            return path

        for module in BOUNDARY_MODULES:
            module_path(module)
        assert WORKER_ENTRIES
        for module, names in WORKER_ENTRIES.items():
            tree = ast.parse(module_path(module).read_text())
            defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            for name in names:
                assert name in defined, f"worker entry {module}.{name} is not a function"

    def test_lambda_into_process_boundary(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_pickle_boundary")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["CONC102"]
        v = violations[0]
        assert "lambda" in v.message and "dispatch" in v.message
        # dispatch_ok ships a module-level function: only one finding.
        source_line = (tree / v.path).read_text().splitlines()[v.line - 1]
        assert "pool.submit(handler, doc)" in source_line

    def test_pickle_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_pickle_boundary")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_fork_after_transitive_thread_start(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_fork_after_thread")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["CONC103"]
        v = violations[0]
        assert v.path == "repro/perf/pool.py"
        # serve flagged (start via helper, then fork); serve_safe clean.
        assert "in serve;" in v.message
        assert "via start_watcher" in v.message

    def test_fork_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_fork_after_thread")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_pool_created_at_import_time(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_import_pool")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["CONC103"]
        assert "at import time" in violations[0].message

    def test_noqa_suppresses_conc_finding(self, tmp_path):
        tree = copy_fixture(tmp_path, "conc_import_pool")
        boot = tree / "repro" / "perf" / "boot.py"
        boot.write_text(
            boot.read_text().replace(
                "POOL = ProcessPoolExecutor(2)",
                "POOL = ProcessPoolExecutor(2)  # noqa: CONC103",
            )
        )
        assert run_tree(tree) == []


class TestExceptionFlowPass:
    def test_fault_escapes_to_unguarded_root(self, tmp_path):
        tree = copy_fixture(tmp_path, "exc_fault_escape")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["EXC101"]
        v = violations[0]
        assert v.path == "repro/harness/entry.py"
        # Blame lands on the leaky root only — the guarded sibling
        # catches the type at the boundary and stays clean.
        assert "segment_all" in v.message
        assert "segment_guarded" not in v.message
        assert "raised at repro/core/stage.py" in v.message
        assert "segment_all -> cut_region" in v.message

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "exc_fault_escape")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_exc_boundary_pragma_accepts_the_escape(self, tmp_path):
        tree = copy_fixture(tmp_path, "exc_fault_escape")
        entry = tree / "repro" / "harness" / "entry.py"
        entry.write_text(
            entry.read_text().replace(
                "def segment_all(regions):",
                "def segment_all(regions):  # exc: boundary",
            )
        )
        assert run_tree(tree) == []

    def test_silent_swallow_path_flagged(self, tmp_path):
        tree = copy_fixture(tmp_path, "exc_silent_path")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["EXC102"]
        v = violations[0]
        # drain records on one path only; drain_ok records on every
        # path and must stay clean — a pure path property.
        assert "in drain " in v.message
        source_line = (tree / v.path).read_text().splitlines()[v.line - 1]
        assert "except Exception as exc:" in source_line

    def test_swallow_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "exc_silent_path")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_exc001_superseded_by_flow_finding_on_same_line(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "ingest.py").write_text(
            "class DocumentFailure(Exception):\n"
            "    pass\n"
            "\n"
            "\n"
            "def load(run, doc):\n"
            "    try:\n"
            "        return run(doc)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        # Module rules alone: the syntactic EXC001.
        module_only = run_tree(tmp_path, rule_ids=MODULE_RULES)
        assert [v.rule for v in module_only] == ["EXC001"]
        # Full catalogue: the flow-sensitive finding supersedes it —
        # one finding on that line, not two.
        full = run_tree(tmp_path)
        assert [v.rule for v in full] == ["EXC102"]
        assert full[0].line == module_only[0].line


class TestResourceLifecyclePass:
    def test_leaking_path_flagged_safe_variants_clean(self, tmp_path):
        tree = copy_fixture(tmp_path, "rsrc_lifecycle")
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["RSRC101", "RSRC102"]
        leak, reuse = violations
        # flush_rows leaks on the early return; the with-block and the
        # ownership-transferring return are exempt.
        assert leak.path == "repro/harness/leak.py"
        assert "file handle 'fh'" in leak.message and "flush_rows" in leak.message
        source_line = (tree / leak.path).read_text().splitlines()[leak.line - 1]
        assert 'open(path, "w")' in source_line
        # write_tail uses the handle after every path closed it.
        assert reuse.path == "repro/harness/reuse.py"
        assert ".close()" in reuse.message
        source_line = (tree / reuse.path).read_text().splitlines()[reuse.line - 1]
        assert "fh.write(tail)" in source_line

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "rsrc_lifecycle")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_releasing_every_path_fixes_the_leak(self, tmp_path):
        tree = copy_fixture(tmp_path, "rsrc_lifecycle")
        leak = tree / "repro" / "harness" / "leak.py"
        leak.write_text(
            leak.read_text().replace(
                "    if not rows:\n        return 0\n",
                "    if not rows:\n        fh.close()\n        return 0\n",
            )
        )
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["RSRC102"]

    def test_noqa_suppresses_rsrc_finding(self, tmp_path):
        tree = copy_fixture(tmp_path, "rsrc_lifecycle")
        reuse = tree / "repro" / "harness" / "reuse.py"
        reuse.write_text(
            reuse.read_text().replace(
                "fh.write(tail)", "fh.write(tail)  # noqa: RSRC102"
            )
        )
        violations = run_tree(tree)
        assert [v.rule for v in violations] == ["RSRC101"]


class TestRealTreeIsClean:
    def test_repo_passes_its_own_whole_program_analysis(self):
        repo = Path(__file__).resolve().parents[1]
        violations = check_project([repo / "src", repo / "tests"], root=repo).violations
        assert violations == [], [f"{v.location} {v.rule}" for v in violations]
