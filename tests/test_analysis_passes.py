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


class TestRealTreeIsClean:
    def test_repo_passes_its_own_whole_program_analysis(self):
        repo = Path(__file__).resolve().parents[1]
        violations = check_project([repo / "src", repo / "tests"], root=repo).violations
        assert violations == [], [f"{v.location} {v.rule}" for v in violations]
