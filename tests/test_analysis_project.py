"""``repro check`` over a project tree: the rule selection handed to
``lint_paths``, the one entry point, is validated as a whole before any
file is read."""

from __future__ import annotations

import pytest

from repro.analysis.lint import lint_paths


class TestRuleValidation:
    def test_unknown_rule_rejected(self, tmp_path):
        """One unknown ID among known ones fails the run and is the only
        ID the error names; it wins over the ``PARSE001`` the
        unparseable file in the tree would otherwise report."""
        (tmp_path / "broken.py").write_text("def broken(:\n")
        with pytest.raises(ValueError, match="unknown rule") as exc:
            lint_paths([tmp_path], rule_ids=["DET001", "NOPE999"], root=tmp_path)
        assert "NOPE999" in str(exc.value)
        assert "DET001" not in str(exc.value)
