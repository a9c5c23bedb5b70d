"""The repository run through its own ``repro check`` the way
``make lint`` runs it: the CLI, from the repo root, over ``src`` and
``tests``.  ``make test`` runs that target first, so the command
itself, with its cwd-relative paths and default root, must pass."""

from __future__ import annotations

from pathlib import Path

from repro.__main__ import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestRealTreeIsClean:
    def test_repo_passes_its_own_whole_program_analysis(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert repro_main(["check", "src", "tests"]) == 0
        assert capsys.readouterr().out.strip() == "repro check: clean"
