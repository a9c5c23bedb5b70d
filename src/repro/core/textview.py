"""One document's block text, derived once (§5.1.2, §5.2, §5.3).

Semantic merging (Eq. 1), the lexico-syntactic pattern search and the
textual term of Eq. 2 all read the transcriptions of the same layout
nodes.  A :class:`TextView` lives for one document —
:meth:`repro.core.pipeline.VS2Pipeline.run` creates it and drops it
when the document is done — and memoises what those consumers derive
from a node's words:

* the reading-order lines and transcription (:meth:`LayoutNode.text`),
  keyed by the node's atoms (their identities, in order);
* the normalised transcription (:func:`repro.core.select.block_text`),
  keyed by the transcription;
* the cleaned text a pattern searches, with its words, chunks, TIMEX /
  geocode / NER spans and Event Place verdict
  (:class:`repro.core.patterns.TextAnalysis`), keyed by the searched
  text;
* the mean word vector of Eq. 1 / Eq. 2 and its norm, keyed by the
  transcription.

Exactness: an entry is the value the uncached function returns for
its key, and the key is everything that value is computed from, so a
memoised read is bit for bit a fresh computation.  Nothing is keyed by
``node_id`` — :meth:`LayoutTree.collapse_unary` hands a surviving node
its child's atoms in place.  Cached vectors are read-only, and nothing
the view holds is reachable from a
:class:`~repro.core.pipeline.PipelineResult`.

Every consumer also runs without a view (a library call, a test): it
then builds a throwaway one, so there is one code path either way.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.patterns import TextAnalysis
from repro.doc.document import group_into_lines, join_lines
from repro.doc.elements import AtomicElement, TextElement
from repro.doc.layout_tree import LayoutNode
from repro.embeddings import WordEmbedding, default_embedding
from repro.nlp.tokenizer import normalize_text

#: A node's words grouped into reading-order lines.
Lines = Tuple[Tuple[TextElement, ...], ...]


class TextView:
    """Memoised text analyses of one document's layout nodes."""

    def __init__(self, embedding: Optional[WordEmbedding] = None):
        self.embedding = embedding or default_embedding()
        # Atom identities -> (the atoms, kept alive so no identity is
        # reused while the entry exists; lines; transcription).
        self._nodes: Dict[Tuple[int, ...], Tuple[Sequence[AtomicElement], Lines, str]] = {}
        self._normalized: Dict[str, str] = {}
        self._analyses: Dict[str, TextAnalysis] = {}
        self._vectors: Dict[str, Tuple[np.ndarray, float]] = {}

    def _node(self, node: LayoutNode) -> Tuple[Sequence[AtomicElement], Lines, str]:
        key = tuple(map(id, node.atoms))
        entry = self._nodes.get(key)
        if entry is None:
            lines = tuple(tuple(line) for line in group_into_lines(node.text_atoms))
            entry = self._nodes[key] = (tuple(node.atoms), lines, join_lines(lines))
        return entry

    def lines(self, node: LayoutNode) -> Lines:
        """``group_into_lines(node.text_atoms)``."""
        return self._node(node)[1]

    def text(self, node: LayoutNode) -> str:
        """``node.text()``: the reading-order transcription."""
        return self._node(node)[2]

    def block_text(self, node: LayoutNode) -> str:
        """``normalize_text(node.text())``."""
        text = self.text(node)
        normalized = self._normalized.get(text)
        if normalized is None:
            normalized = self._normalized[text] = normalize_text(text)
        return normalized

    def analysis(self, text: str) -> TextAnalysis:
        """``TextAnalysis(text)``, shared by every pattern searching
        ``text``."""
        analysis = self._analyses.get(text)
        if analysis is None:
            analysis = self._analyses[text] = TextAnalysis(text)
        return analysis

    def vector(self, text: str) -> Tuple[np.ndarray, float]:
        """``embedding.embed_text(text)`` (read-only) and its norm."""
        entry = self._vectors.get(text)
        if entry is None:
            vec = self.embedding.embed_text(text).view()
            vec.flags.writeable = False
            entry = self._vectors[text] = (vec, float(np.linalg.norm(vec)))
        return entry


def text_view(view: Optional[TextView], embedding: Optional[WordEmbedding] = None) -> TextView:
    """``view``, or a fresh one over ``embedding`` when the caller has
    none.  A view embeds with one model: passing another is an error."""
    if view is None:
        return TextView(embedding)
    if embedding is not None and embedding is not view.embedding:
        raise ValueError("the text view embeds with a different model")
    return view
