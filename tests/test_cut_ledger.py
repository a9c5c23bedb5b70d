"""The ``cut.decision`` ledger: canonical serialisation, diffing, and
the profile-vs-reference equivalence oracle on a real (tiny) pipeline
run."""

from __future__ import annotations

import json

import repro.core.segment as segment
from repro.core.config import VS2Config
from repro.core.pipeline import VS2Pipeline
from repro.geometry.cuts import reference_interior_cut_sets
from repro.ocr.cache import TranscriptionCache
from repro.synth import generate_corpus
from repro.trace import Tracer, cut_ledger, ledger_diff, ledger_lines


def _traced_decisions() -> Tracer:
    tracer = Tracer()
    with tracer.span("doc", index=0, doc_id="X-0"):
        with tracer.span("segment"):
            tracer.event(
                "cut.decision",
                orientation="horizontal",
                position=12.5,
                accepted=True,
                reason="delimiter",
            )
            tracer.event("merge.decision", merged=True)  # not a cut event
            tracer.event(
                "cut.decision",
                orientation="vertical",
                position=40.0,
                accepted=False,
                reason="below_floor",
            )
    return tracer


def test_cut_ledger_extracts_only_cut_decisions():
    roots = _traced_decisions().drain()
    ledger = cut_ledger(roots)
    assert len(ledger) == 2
    paths = [path for path, _ in ledger]
    assert paths == ["doc[0]/segment", "doc[0]/segment"]
    assert ledger[0][1]["reason"] == "delimiter"
    assert ledger[1][1]["reason"] == "below_floor"


def test_ledger_lines_are_canonical_json():
    lines = ledger_lines(_traced_decisions().drain())
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert row["span"] == "doc[0]/segment"
        # Canonical form: keys sorted, so equal decisions serialise to
        # equal bytes regardless of attribute insertion order.
        assert line == json.dumps(row, sort_keys=True)


def test_ledger_records_the_named_events():
    tracer = _traced_decisions()
    with tracer.span("doc", index=1, doc_id="X-1"):
        with tracer.span("segment.merge"):
            tracer.event("merge.decision", merged=False, reason="sc_below_theta")
            tracer.event("merge.pass", merges=0)
    roots = tracer.drain()
    assert [row["event"] for _, row in cut_ledger(roots)] == ["cut.decision"] * 2
    merges = cut_ledger(roots, ("merge.decision", "merge.pass"))
    assert merges == [
        ("doc[0]/segment", {"event": "merge.decision", "merged": True}),
        ("doc[1]/segment.merge", {"event": "merge.decision", "merged": False, "reason": "sc_below_theta"}),
        ("doc[1]/segment.merge", {"event": "merge.pass", "merges": 0}),
    ]
    mixed = [json.loads(line) for line in ledger_lines(roots, ("cut.decision", "merge.pass"))]
    assert [row["event"] for row in mixed] == ["cut.decision", "cut.decision", "merge.pass"]
    assert ledger_lines(roots, ()) == []


def test_ledger_diff_empty_on_identical_and_names_divergence():
    lines = ledger_lines(_traced_decisions().drain())
    assert ledger_diff(lines, list(lines)) == []
    changed = list(lines)
    changed[1] = changed[1].replace("below_floor", "delimiter")
    diff = ledger_diff(lines, changed, "naive", "fast")
    assert diff, "a changed decision must produce a non-empty diff"
    assert diff[0].startswith("--- naive")
    assert any(line.startswith("+") and "delimiter" in line for line in diff)


class _NoProfiles:
    """Stands in for ``ProfileStore``: the reference side builds no
    projection profile."""

    def profile_for(self, *args):
        return None


def _reference_cuts(grid, orientation, profile=None):
    return reference_interior_cut_sets(grid, orientation)


def test_fast_and_naive_ledgers_identical_on_small_corpus(monkeypatch):
    """The acceptance gate in miniature: two docs of D2 segmented with
    the prefix-sum profiles and with the per-slope reference scan
    swapped in (sharing one transcription cache, so both see identical
    observed documents) must make byte-identical cut decisions."""
    corpus = generate_corpus("D2", n=2, seed=0)
    cache = TranscriptionCache()
    ledgers = {}
    for fast in (True, False):
        if not fast:
            monkeypatch.setattr(segment, "ProfileStore", _NoProfiles)
            monkeypatch.setattr(segment, "interior_cut_sets", _reference_cuts)
        config = VS2Config.for_dataset("D2")
        tracer = Tracer()
        pipeline = VS2Pipeline("D2", config=config, cache=cache, tracer=tracer)
        for i, doc in enumerate(corpus):
            with tracer.span("doc", index=i, doc_id=doc.doc_id):
                pipeline.run(doc)
        ledgers[fast] = ledger_lines(tracer.drain())
    assert ledgers[True], "no cut.decision events traced"
    diff = ledger_diff(ledgers[False], ledgers[True], "reference-cuts", "profile-cuts")
    assert not diff, "profile and reference cut decisions diverge:\n" + "\n".join(diff[:20])
