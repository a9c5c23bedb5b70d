"""The proof layer: BND1xx hazards, PROOF1xx classification, the
committed ledger, and the runtime contract-skip loop it licenses.

Fixture trees under ``tests/fixtures/analysis/`` hold the deliberately
broken code (a prefix-indexing package full of definite hazards, and a
contract site whose post-conditions are refutable); the runtime-skip
tests run against the *committed* ``proof_ledger.json`` plus mutated
copies of it, so a ledger that drifts from the source fails here before
it fails in CI.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.contracts import (
    CONTRACT_STATS,
    contracts,
    contracts_mode,
    use_proof_ledger,
)
from repro.analysis.lint import ALL_RULES
from repro.analysis.proofs import (
    HAZARD_OBLIGATION,
    PROOF_SCHEMA,
    PROVED,
    VIOLATED,
    build_ledger,
    classify_sites,
    ledger_to_json,
    load_ledger,
)
from repro.analysis.runner import check_project

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_LEDGER = REPO_ROOT / "proof_ledger.json"

MODULE_RULES = list(ALL_RULES)


def copy_fixture(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def run_tree(tree: Path, rule_ids=None):
    return check_project([tree], rule_ids=rule_ids, root=tree).violations


@pytest.fixture
def disarm_ledger():
    """Every runtime-skip test must leave the process fully armed."""
    yield
    use_proof_ledger(None)


class TestBoundsPass:
    def test_definite_hazards_reported(self, tmp_path):
        tree = copy_fixture(tmp_path, "bounds_hazard")
        violations = run_tree(tree)
        assert [(v.rule, v.line) for v in violations] == [
            ("BND101", 13),
            ("BND102", 19),
            ("BND103", 24),
        ]
        assert all(v.path == "repro/geometry/prefix.py" for v in violations)
        by_rule = {v.rule: v.message for v in violations}
        assert "out of bounds on every execution" in by_rule["BND101"]
        assert "reduceat" in by_rule["BND102"]
        assert "negative" in by_rule["BND103"]

    def test_module_rules_alone_cannot_see_it(self, tmp_path):
        tree = copy_fixture(tmp_path, "bounds_hazard")
        assert run_tree(tree, rule_ids=MODULE_RULES) == []

    def test_noqa_suppresses_one_hazard_line(self, tmp_path):
        tree = copy_fixture(tmp_path, "bounds_hazard")
        prefix = tree / "repro" / "geometry" / "prefix.py"
        prefix.write_text(
            prefix.read_text().replace(
                "return row_prefix[n]", "return row_prefix[n]  # noqa: BND101"
            )
        )
        assert [v.rule for v in run_tree(tree)] == ["BND102", "BND103"]

    def test_in_range_indexing_is_clean(self, tmp_path):
        tree = copy_fixture(tmp_path, "bounds_hazard")
        prefix = tree / "repro" / "geometry" / "prefix.py"
        prefix.write_text(
            "def last_prefix(row_prefix):\n"
            "    n = len(row_prefix)\n"
            "    return row_prefix[n - 1]\n"
        )
        assert run_tree(tree) == []


class TestProofPass:
    def test_violated_obligations_with_interprocedural_chain(self, tmp_path):
        tree = copy_fixture(tmp_path, "proofs_violation")
        violations = run_tree(tree)
        proof = [v for v in violations if v.rule == "PROOF101"]
        assert len(proof) == 2
        assert all(v.line == 24 and v.path == "repro/optimize/front.py" for v in proof)
        messages = "\n".join(v.message for v in proof)
        assert "'front-indices-in-range' is VIOLATED" in messages
        # The hazard obligation names the witness chain back to the site.
        assert f"'{HAZARD_OBLIGATION}' is VIOLATED" in messages
        assert "offsets <- stamp <- bad_front" in messages
        # The underlying hazard is reported at its own site too.
        assert ("BND101", 16) in [(v.rule, v.line) for v in violations]

    def test_proof_assumed_pragma_never_masks_violated(self, tmp_path):
        tree = copy_fixture(tmp_path, "proofs_violation")
        front = tree / "repro" / "optimize" / "front.py"
        front.write_text(
            front.read_text().replace(
                "def bad_front(points):",
                "def bad_front(points):  # proof: assumed",
            )
        )
        assert "PROOF101" in {v.rule for v in run_tree(tree)}

    def test_unproven_site_is_not_a_lint_failure(self, tmp_path):
        tree = copy_fixture(tmp_path, "proofs_violation")
        front = tree / "repro" / "optimize" / "front.py"
        front.write_text(
            "from repro.analysis.contracts import check_pareto_front, checked\n"
            "\n\n"
            "@checked(post=lambda front, points: check_pareto_front(points, front))\n"
            "def bad_front(points):\n"
            "    return [0]\n"
        )
        assert run_tree(tree) == []


class TestLedger:
    def test_classify_sites_statuses(self, tmp_path):
        tree = copy_fixture(tmp_path, "proofs_violation")
        result = check_project([tree], root=tree)
        sites = classify_sites(result.index)
        assert [s.key for s in sites] == ["repro.optimize.front::bad_front"]
        site = sites[0]
        assert site.checks == ["check_pareto_front"]
        statuses = {n: ob["status"] for n, ob in site.obligations.items()}
        assert statuses["front-indices-in-range"] == VIOLATED
        assert statuses[HAZARD_OBLIGATION] == VIOLATED
        assert site.violated() and not site.discharged

    def test_build_ledger_deterministic(self, tmp_path):
        tree = copy_fixture(tmp_path, "proofs_violation")
        index = check_project([tree], root=tree).index
        first = ledger_to_json(build_ledger(index, tree))
        second = ledger_to_json(build_ledger(index, tree))
        assert first == second
        data = json.loads(first)
        assert data["schema"] == PROOF_SCHEMA
        entry = data["sites"]["repro.optimize.front::bad_front"]
        assert entry["path"] == "repro/optimize/front.py"
        assert entry["line"] == 24
        assert len(entry["source_sha256"]) == 64
        assert entry["checks"] == ["check_pareto_front"]

    def test_committed_ledger_loads_and_has_proved_obligations(self):
        """The repo ships a ledger with at least three PROVED
        post-condition obligations (the PR's acceptance floor)."""
        ledger = load_ledger(COMMITTED_LEDGER)
        assert ledger is not None, "committed proof_ledger.json missing or foreign"
        proved = [
            (key, name)
            for key, entry in ledger["sites"].items()
            for name, ob in entry["obligations"].items()
            if ob["status"] == PROVED
        ]
        assert len(proved) >= 3, proved
        # At least one site is fully discharged — the one the runtime
        # skip loop and the overhead bench lean on.
        assert any(
            all(ob["status"] in ("PROVED", "ASSUMED") for ob in e["obligations"].values())
            for e in ledger["sites"].values()
        )

    def test_cli_write_then_verify_then_drift(self, tmp_path, monkeypatch, capsys):
        tree = copy_fixture(tmp_path, "proofs_violation")
        front = tree / "repro" / "optimize" / "front.py"
        front.write_text(
            "from repro.analysis.contracts import check_pareto_front, checked\n"
            "\n\n"
            "@checked(post=lambda front, points: check_pareto_front(points, front))\n"
            "def front_fn(points):\n"
            "    return [0]\n"
        )
        monkeypatch.chdir(tmp_path)
        # Missing ledger is a gate failure, not a crash.
        assert repro_main(["check", str(tree), "--proofs"]) == 3
        assert "missing" in capsys.readouterr().err
        assert repro_main(["check", str(tree), "--write-proofs"]) == 0
        assert "wrote proof ledger" in capsys.readouterr().out
        assert repro_main(["check", str(tree), "--proofs"]) == 0
        assert "up to date" in capsys.readouterr().out
        # Any source change makes the committed ledger stale.
        front.write_text(front.read_text() + "\n# touched\n")
        assert repro_main(["check", str(tree), "--proofs"]) == 3
        err = capsys.readouterr().err
        assert "stale" in err and "--write-proofs" in err


class TestRuntimeSkip:
    def _call_pareto(self):
        from repro.optimize.pareto import pareto_front

        return pareto_front([(3, 1), (1, 3), (2, 2), (0, 0)])

    def test_ledger_skips_fully_discharged_site(self, disarm_ledger):
        with contracts():
            before = dict(CONTRACT_STATS)
            full = self._call_pareto()
            assert CONTRACT_STATS["checked"] == before["checked"] + 1
            assert use_proof_ledger(str(COMMITTED_LEDGER))
            assert contracts_mode() == "ledger-skip"
            armed = dict(CONTRACT_STATS)
            skipped = self._call_pareto()
            assert CONTRACT_STATS["skipped"] == armed["skipped"] + 1
            assert CONTRACT_STATS["checked"] == armed["checked"]
        assert skipped == full

    def test_source_sha_mismatch_keeps_checking(self, tmp_path, disarm_ledger):
        data = json.loads(COMMITTED_LEDGER.read_text())
        entry = data["sites"]["repro.optimize.pareto::pareto_front"]
        entry["source_sha256"] = "0" * 64
        stale = tmp_path / "stale_ledger.json"
        stale.write_text(json.dumps(data))
        assert use_proof_ledger(str(stale))
        with contracts():
            before = dict(CONTRACT_STATS)
            self._call_pareto()
            assert CONTRACT_STATS["checked"] == before["checked"] + 1
            assert CONTRACT_STATS["skipped"] == before["skipped"]

    def test_undischarged_obligation_blocks_skip(self, tmp_path, disarm_ledger):
        data = json.loads(COMMITTED_LEDGER.read_text())
        entry = data["sites"]["repro.optimize.pareto::pareto_front"]
        next(iter(entry["obligations"].values()))["status"] = "UNPROVEN"
        partial = tmp_path / "partial_ledger.json"
        partial.write_text(json.dumps(data))
        assert use_proof_ledger(str(partial))
        with contracts():
            before = dict(CONTRACT_STATS)
            self._call_pareto()
            assert CONTRACT_STATS["checked"] == before["checked"] + 1
            assert CONTRACT_STATS["skipped"] == before["skipped"]

    def test_disarm_restores_full_checking(self, disarm_ledger):
        assert use_proof_ledger(str(COMMITTED_LEDGER))
        assert not use_proof_ledger(None)
        with contracts():
            assert contracts_mode() == "checked"
            before = dict(CONTRACT_STATS)
            self._call_pareto()
            assert CONTRACT_STATS["checked"] == before["checked"] + 1
            assert CONTRACT_STATS["skipped"] == before["skipped"]

    def test_unloadable_ledger_never_arms(self, tmp_path, disarm_ledger):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert not use_proof_ledger(str(bad))
        # Mode depends on whether contracts are globally enabled
        # (REPRO_CONTRACTS=1 runs this suite too) — but it must never
        # be ledger-skip after a failed load.
        assert contracts_mode() != "ledger-skip"

    def test_env_var_arms_ledger_at_import(self):
        """``REPRO_PROOF_LEDGER`` must work from a cold interpreter —
        the way a production run would arm it."""
        code = (
            "from repro.analysis.contracts import CONTRACT_STATS, contracts_mode\n"
            "from repro.optimize.pareto import pareto_front\n"
            "assert contracts_mode() == 'ledger-skip', contracts_mode()\n"
            "pareto_front([(1, 2), (2, 1)])\n"
            "assert CONTRACT_STATS == {'checked': 0, 'skipped': 1}, CONTRACT_STATS\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env.update(
            REPRO_CONTRACTS="1",
            REPRO_PROOF_LEDGER=str(COMMITTED_LEDGER),
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestExtractionByteIdentity:
    def test_ledger_skip_run_matches_full_check_run(self, disarm_ledger):
        """The PR's closing acceptance criterion: with contracts on, a
        ledger-armed run produces byte-identical extraction output to a
        full-check run — skipping proofs must never change results."""
        from repro.core.config import VS2Config
        from repro.core.pipeline import VS2Pipeline
        from repro.ocr.cache import TranscriptionCache
        from repro.synth import generate_corpus

        corpus = generate_corpus("D2", n=3, seed=0)
        cache = TranscriptionCache()

        def run_all():
            pipeline = VS2Pipeline("D2", config=VS2Config.for_dataset("D2"), cache=cache)
            return [repr(pipeline.run(doc).extractions) for doc in corpus]

        with contracts():
            full = run_all()
            assert use_proof_ledger(str(COMMITTED_LEDGER))
            armed = run_all()
        assert armed == full
