"""The ``repro check`` lint engine, its rule catalogue, and the two
whole-tree checks that run the program instead of analysing it.

Fixture-driven: every rule is exercised three ways — a positive hit, a
clean counterpart, and the hit suppressed with ``# repro: noqa[RULE]``.
The suppression case is generated from the positive one (append the
noqa comment to the reported line), so the noqa machinery is proven
against the exact line each rule reports.

``TestNameRegistries`` and ``TestImportsResolve`` check what no single
file shows: that the trace-event and metric registries match their
emitters both ways, and that every ``from repro.X import N`` resolves.
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.lint import (
    ALL_RULES,
    format_human,
    format_json,
    lint_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path: Path, source: str, rel_path: str, rules=None):
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([tmp_path], rule_ids=rules, root=tmp_path)


#: (rule_id, path the file pretends to live at, dirty source, clean source).
#: Each dirty source triggers its rule exactly once.
FIXTURES = [
    (
        "DET001",
        "mod.py",
        "import random\nvalue = random.random()\n",
        "import numpy as np\nvalue = np.random.default_rng(0).random()\n",
    ),
    (
        "DET001",
        "np_legacy.py",
        "import numpy as np\nvalue = np.random.rand(3)\n",
        "import numpy as np\nvalue = np.random.default_rng(7).random(3)\n",
    ),
    (
        "DET001",
        "entropy.py",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        "from numpy.random import default_rng\nrng = default_rng(0)\n",
    ),
    (
        # Lives in repro/nlp (a deterministic layer outside repro.core)
        # so the perf_counter clean counterpart is not an OBS001 hit.
        "DET002",
        "repro/nlp/stamp.py",
        "import time\n\ndef stamp():\n    return time.time()\n",
        "import time\n\ndef took():\n    return time.perf_counter()\n",
    ),
    (
        "OBS001",
        "repro/core/hot.py",
        "import time\n\ndef took():\n    return time.perf_counter()\n",
        "def timed(metrics, work):\n"
        "    with metrics.stage('segment'):\n"
        "        return work()\n",
    ),
    (
        "DET003",
        "mod.py",
        "def f(xs):\n    return [x for x in set(xs)]\n",
        "def f(xs):\n    return [x for x in sorted(set(xs))]\n",
    ),
    (
        "MUT001",
        "mod.py",
        "def f(xs=[]):\n    return xs\n",
        "def f(xs=None):\n    return xs or []\n",
    ),
    (
        "EXC001",
        "mod.py",
        "try:\n    work = 1\nexcept Exception:\n    pass\n",
        "try:\n    work = 1\nexcept ValueError:\n    work = 0\n",
    ),
    (
        "LAYER001",
        "repro/core/bad.py",
        "from repro.synth import generate_corpus\n",
        "from repro.datasets import entity_vocabulary\n",
    ),
    (
        "LAYER002",
        "repro/geometry/bad.py",
        "from repro.doc import Document\n",
        "from repro.geometry.bbox import BBox\n",
    ),
    (
        "LAYER003",
        "repro/baselines/bad.py",
        "from repro.core.segment import VS2Segmenter\n",
        "from repro.core.select import Extraction\n",
    ),
    (
        "FRAME001",
        "mod.py",
        "def mid(b):\n    return b.x + b.w / 2\n",
        "def mid(b):\n    return b.centroid[0]\n",
    ),
    (
        "FRAME002",
        "mod.py",
        "from repro.geometry import BBox\n\ndef load(t):\n    return BBox(*t)\n",
        "from repro.geometry import BBox\n\ndef load(t):\n    return BBox.from_tuple(t)\n",
    ),
    (
        "RES001",
        "repro/core/wait.py",
        "import time\n\ndef backoff(attempt):\n    time.sleep(0.05 * attempt)\n",
        "def backoff(clock, attempt):\n    clock.charge(0.05 * attempt)\n",
    ),
    (
        "RES002",
        "repro/core/swallow.py",
        "def safe(run, doc):\n"
        "    try:\n"
        "        return run(doc)\n"
        "    except Exception:\n"
        "        return None\n",
        "def safe(run, doc, failures):\n"
        "    try:\n"
        "        return run(doc)\n"
        "    except Exception as exc:\n"
        "        failures.append(DocumentFailure(doc, exc))\n"
        "        return None\n",
    ),
]

_CASE_IDS = [f"{rule}:{path}" for rule, path, _, _ in FIXTURES]


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id, rel_path, dirty, clean", FIXTURES, ids=_CASE_IDS)
    def test_positive_hit(self, tmp_path, rule_id, rel_path, dirty, clean):
        violations = run_lint(tmp_path, dirty, rel_path)
        assert [v.rule for v in violations] == [rule_id]
        v = violations[0]
        assert v.path == rel_path and v.line >= 1
        assert rule_id in f"{v.location}: {v.rule} {v.message}" and ":" in v.location

    @pytest.mark.parametrize("rule_id, rel_path, dirty, clean", FIXTURES, ids=_CASE_IDS)
    def test_clean_counterpart(self, tmp_path, rule_id, rel_path, dirty, clean):
        assert run_lint(tmp_path, clean, rel_path) == []

    @pytest.mark.parametrize("rule_id, rel_path, dirty, clean", FIXTURES, ids=_CASE_IDS)
    def test_noqa_suppresses_reported_line(self, tmp_path, rule_id, rel_path, dirty, clean):
        violations = run_lint(tmp_path, dirty, rel_path)
        lines = dirty.splitlines()
        lines[violations[0].line - 1] += f"  # repro: noqa[{rule_id}]"  # noqa: SUPP001
        assert run_lint(tmp_path, "\n".join(lines) + "\n", rel_path) == []


class TestResilienceFixturePackages:
    """The on-disk RES001/RES002 fixture trees, including the two
    sanctioned escape hatches (the budget module, registered isolation
    sites) that inline fixtures cannot express."""

    def _lint(self, tmp_path, name):
        import shutil

        src = REPO_ROOT / "tests" / "fixtures" / "analysis" / name
        dst = tmp_path / name
        shutil.copytree(src, dst)
        return lint_paths([dst], root=dst)

    def test_bare_sleep_flagged_only_outside_budget_module(self, tmp_path):
        violations = self._lint(tmp_path, "bare_sleep_backoff")
        assert [(v.rule, v.path) for v in violations] == [
            ("RES001", "repro/core/retry.py")
        ]

    def test_broad_except_exempt_only_at_isolation_sites(self, tmp_path):
        violations = self._lint(tmp_path, "swallow_without_failure")
        assert [(v.rule, v.path) for v in violations] == [
            ("RES002", "repro/core/chunk.py")
        ]


class TestSuppression:
    def test_blanket_noqa_silences_rules_but_reports_supp001(self, tmp_path):
        source = "import random\nvalue = random.random()  # repro: noqa\n"  # noqa: SUPP001
        violations = run_lint(tmp_path, source, "mod.py")
        assert [v.rule for v in violations] == ["SUPP001"]
        assert violations[0].line == 2

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        source = "import random\nvalue = random.random()  # repro: noqa[MUT001]\n"
        assert [v.rule for v in run_lint(tmp_path, source, "mod.py")] == ["DET001"]

    def test_conventional_colon_list_form(self, tmp_path):
        source = "import random\nvalue = random.random()  # noqa: DET001,MUT001\n"
        assert run_lint(tmp_path, source, "mod.py") == []

    def test_colon_form_for_other_rule_does_not_suppress(self, tmp_path):
        source = "import random\nvalue = random.random()  # noqa: MUT001\n"
        assert [v.rule for v in run_lint(tmp_path, source, "mod.py")] == ["DET001"]

    def test_supp001_suppressed_only_by_explicit_listing(self, tmp_path):
        source = "import random\nvalue = random.random()  # repro: noqa , and # noqa: SUPP001\n"  # noqa: SUPP001
        assert run_lint(tmp_path, source, "mod.py") == []


class TestEngine:
    def test_rule_catalogue_is_complete(self):
        expected = {
            "DET001", "DET002", "DET003",
            "LAYER001", "LAYER002", "LAYER003",
            "FRAME001", "FRAME002",
            "MUT001", "EXC001",
            "OBS001",
            "RES001", "RES002",
        }
        assert expected <= set(ALL_RULES)
        for rule in ALL_RULES.values():
            assert rule.summary

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_paths([tmp_path], rule_ids=["NOPE999"])

    def test_rule_subset_restricts_run(self, tmp_path):
        source = "import random\n\ndef f(xs=[]):\n    return random.random()\n"
        violations = run_lint(tmp_path, source, "mod.py", rules=["MUT001"])
        assert [v.rule for v in violations] == ["MUT001"]

    def test_unparseable_file_reports_parse001(self, tmp_path):
        violations = run_lint(tmp_path, "def broken(:\n", "mod.py")
        assert [v.rule for v in violations] == ["PARSE001"]

    def test_findings_across_files_in_location_order(self, tmp_path):
        (tmp_path / "dirty_a.py").write_text("import random\nV = random.random()\n")
        (tmp_path / "dirty_b.py").write_text("def f(xs=[]):\n    return xs\n")
        (tmp_path / "clean.py").write_text("def f(x):\n    return x + 1\n")
        violations = lint_paths([tmp_path, tmp_path / "dirty_a.py"], root=tmp_path)
        assert [(v.path, v.rule) for v in violations] == [
            ("dirty_a.py", "DET001"), ("dirty_b.py", "MUT001"),
        ]

    def test_violations_sorted_by_location(self, tmp_path):
        source = (
            "import random\n"
            "def f(xs=[]):\n"
            "    return random.random()\n"
        )
        violations = run_lint(tmp_path, source, "mod.py")
        assert violations == sorted(violations)

    def test_type_checking_imports_exempt_from_layering(self, tmp_path):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.perf.runner import CorpusRunner\n"
        )
        assert run_lint(tmp_path, source, "repro/core/typed.py") == []

    def test_function_local_import_is_the_layering_escape_hatch(self, tmp_path):
        source = (
            "def run_corpus():\n"
            "    from repro.perf.runner import CorpusRunner\n"
            "    return CorpusRunner\n"
        )
        assert run_lint(tmp_path, source, "repro/core/lazy.py") == []


class TestOutput:
    def test_json_format(self, tmp_path):
        import json

        violations = run_lint(tmp_path, "import random\nv = random.random()\n", "mod.py")
        payload = json.loads(format_json(violations))
        assert payload[0]["rule"] == "DET001"
        assert set(payload[0]) == {"path", "line", "col", "rule", "message"}

    def test_human_format(self, tmp_path):
        violations = run_lint(tmp_path, "import random\nv = random.random()\n", "mod.py")
        text = format_human(violations)
        assert "mod.py:2:" in text and "DET001" in text and "1 violation(s)" in text
        assert format_human([]) == "repro check: clean"


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert repro_main(["check", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_nonzero_with_rule_and_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nvalue = random.random()\n")
        assert repro_main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py:2:" in out

    def test_list_rules(self, capsys):
        assert repro_main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "LAYER003" in out
        assert len(out.splitlines()) == len(ALL_RULES) == 14

    def test_rules_takes_one_comma_separated_value(self, tmp_path, capsys):
        """Paths after ``--rules`` stay paths: ``--rules DET001 DIR``."""
        (tmp_path / "bad.py").write_text(
            "import random\n\ndef f(xs=[]):\n    return random.random()\n"
        )
        assert repro_main(["check", "--rules", "MUT001", str(tmp_path)]) == 1
        assert "MUT001" in capsys.readouterr().out
        assert repro_main(["check", "--rules", "DET001,MUT001", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "MUT001" in out
        assert repro_main(["check", "--rules", "EXC001", str(tmp_path)]) == 0

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["check", "--rules", "DET001,NOPE999", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "NOPE999" in err and "Traceback" not in err

    def test_missing_path_is_an_error_not_a_clean_run(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        missing = tmp_path / "no_such_dir"
        assert repro_main(["check", str(tmp_path), str(missing)]) == 2
        out, err = capsys.readouterr()
        assert "clean" not in out and str(missing) in err

    def test_explain_module_rule(self, capsys):
        assert repro_main(["check", "--explain", "MUT001"]) == 0
        out = capsys.readouterr().out
        assert "mutable default" in out.lower()

    def test_explain_unknown_rule(self, capsys):
        assert repro_main(["check", "--explain", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_covers_every_registered_rule(self, capsys):
        """Exhaustiveness gate: every rule the engine can emit — the
        catalogue and the parse sentinel — must explain itself with a
        worked example and a fix."""
        from repro.analysis.lint.engine import PARSE_RULE

        for rule_id in sorted(set(ALL_RULES) | {PARSE_RULE}):
            assert repro_main(["check", "--explain", rule_id]) == 0, rule_id
            out = capsys.readouterr().out
            assert "Example:" in out, f"{rule_id} has no example"
            assert "Fix:" in out, f"{rule_id} has no fix"


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """The repo's own src/ and tests/ hold zero violations — new
        rules must ship with their hits fixed, not baselined."""
        violations = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert violations == [], format_human(violations)


@functools.lru_cache(maxsize=None)
def _parsed(top: str):
    """``(path, AST)`` of every Python file under ``top``, fixtures aside."""
    return [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        if "fixtures" not in path.relative_to(REPO_ROOT).parts
    ]


def _literal_names(methods) -> dict:
    """name -> first ``path:line`` of a ``<x>.<method>("name", ...)``
    call in ``src/repro``, for ``method`` in ``methods``."""
    found: dict = {}
    for path, tree in _parsed("src/repro"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                found.setdefault(node.args[0].value, where)
    return found


class TestNameRegistries:
    """The trace-event and metric vocabularies are closed: consumers key
    on the strings.  Every literal name the program emits must be
    registered, and every registered name must still have an emitter."""

    def test_event_names_match_their_emitters(self):
        from repro.trace.tracer import EVENT_NAMES

        emitted = _literal_names({"event"})
        unregistered = {n: w for n, w in emitted.items() if n not in EVENT_NAMES}
        assert unregistered == {}, "emitted but not in EVENT_NAMES"
        assert sorted(set(EVENT_NAMES) - set(emitted)) == [], "registered but never emitted"

    def test_metric_names_match_their_emitters(self):
        from repro.obs.names import METRIC_NAMES

        emitted = _literal_names({"counter", "gauge", "histogram"})
        undeclared = {n: w for n, w in emitted.items() if n not in METRIC_NAMES}
        assert undeclared == {}, "emitted but not in METRIC_NAMES"
        assert sorted(set(METRIC_NAMES) - set(emitted)) == [], "declared but never emitted"


class TestImportsResolve:
    def test_every_from_repro_import_resolves(self):
        """``from repro.X import N`` anywhere in ``src/repro``, ``tests``
        or ``tools`` — function bodies included, where a broken import
        only fails on the path that reaches it — names an attribute or
        a submodule of the imported ``repro.X``."""
        unresolved = []
        files = _parsed("src/repro") + _parsed("tests") + _parsed("tools")
        for path, tree in files:
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and node.module
                    and node.module.split(".")[0] == "repro"
                ):
                    continue
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                try:
                    module = importlib.import_module(node.module)
                except ModuleNotFoundError:
                    unresolved.append(f"{where}: no module {node.module}")
                    continue
                for alias in node.names:
                    if alias.name == "*" or hasattr(module, alias.name):
                        continue
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        unresolved.append(f"{where}: {node.module} has no {alias.name}")
        assert unresolved == []
