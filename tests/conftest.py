"""Shared fixtures: small corpora and transcriptions, session-scoped
so the expensive generation/segmentation work runs once, and a check
that no test leaves a child process behind."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.ocr import OcrEngine
from repro.ocr.deskew import deskew
from repro.synth import generate_corpus


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail a test that leaves a ``multiprocessing`` child running.

    A pool that is never closed leaks its workers and their pipes, and
    neither raises a ``ResourceWarning``; this catches it.  Leftovers
    are killed so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join(timeout=10)
    assert not left, f"test left child processes running: {left}"


@pytest.fixture(scope="session")
def ocr_engine():
    return OcrEngine(seed=7)


@pytest.fixture(scope="session")
def d1_corpus():
    return generate_corpus("D1", n=6, seed=1)


@pytest.fixture(scope="session")
def d2_corpus():
    return generate_corpus("D2", n=8, seed=1)


@pytest.fixture(scope="session")
def d3_corpus():
    return generate_corpus("D3", n=8, seed=1)


def _clean(corpus, engine):
    out = []
    for doc in corpus:
        observed, angle = deskew(engine.transcribe(doc).as_document(doc))
        out.append((doc, observed, angle))
    return out


@pytest.fixture(scope="session")
def d1_cleaned(d1_corpus, ocr_engine):
    return _clean(d1_corpus, ocr_engine)


@pytest.fixture(scope="session")
def d2_cleaned(d2_corpus, ocr_engine):
    return _clean(d2_corpus, ocr_engine)


@pytest.fixture(scope="session")
def d3_cleaned(d3_corpus, ocr_engine):
    return _clean(d3_corpus, ocr_engine)
