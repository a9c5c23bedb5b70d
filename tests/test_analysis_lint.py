"""The ``repro check`` lint engine and its rule catalogue.

Fixture-driven: every rule is exercised three ways — a positive hit, a
clean counterpart, and the hit suppressed with ``# repro: noqa[RULE]``.
The suppression case is generated from the positive one (append the
noqa comment to the reported line), so the noqa machinery is proven
against the exact line each rule reports.
"""

from __future__ import annotations

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
        source = "import random\nvalue = random.random()  # noqa: DET001,FRAME101\n"
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


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """The repo's own src/ and tests/ hold zero violations — new
        rules must ship with their hits fixed, not baselined."""
        violations = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert violations == [], format_human(violations)
