"""Static word embeddings: hashing + topical components.

Design constraints (from how Eq. 1 / Eq. 2 use the model):

* deterministic — same word, same vector, across processes and runs;
* OCR-robust — a word with one or two garbled characters should stay
  close to its clean form (character n-gram hashing gives this);
* topically coherent — words of one semantic field should be mutually
  closer than words of different fields (topic lexicons give this).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nlp import gazetteers as gaz
from repro.nlp.tokenizer import words as tokenize_words

DIM = 64

#: Words whose vectors a :class:`WordEmbedding` keeps, least recently
#: used evicted first.  A D2 stream of 1,200 posters has ~7.3k distinct
#: words, so the bound never binds there; on D1's open OCR vocabulary
#: it keeps a long-lived worker's memo flat at the cost of ~1% more
#: recomputed words than an unbounded memo.
MEMO_WORDS = 8192


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors; 0 when either is a zero vector."""
    return cosine_of(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def cosine_of(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """:func:`cosine_similarity` of ``a`` and ``b`` given their norms
    ``na`` and ``nb`` (as ``float(np.linalg.norm(...))``)."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@lru_cache(maxsize=65536)
def _stable_unit_vector(key: str, dim: int) -> np.ndarray:
    """A deterministic pseudo-random unit vector for ``key``.

    Derived from a SHA-256 digest so it is stable across Python hash
    randomisation and platforms.  Memoised — the digest + RNG round
    costs ~30 µs and the same n-gram keys recur across every word of a
    corpus.  Treat the returned array as read-only.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class HashEmbedding:
    """Character n-gram hash embedding.

    A word's vector is the normalised sum of stable unit vectors of its
    padded character n-grams (n = 3..5, fastText-style).  Single-edit
    corruptions perturb only a few n-grams, so OCR-noised words remain
    close to their originals — the property semantic merging needs to
    survive low-quality transcription.
    """

    def __init__(self, dim: int = DIM, n_min: int = 3, n_max: int = 5):
        if n_min < 1 or n_max < n_min:
            raise ValueError("bad n-gram range")
        self.dim = dim
        self.n_min = n_min
        self.n_max = n_max

    def _ngrams(self, word: str) -> List[str]:
        padded = f"<{word}>"
        grams = []
        for n in range(self.n_min, self.n_max + 1):
            grams.extend(padded[i : i + n] for i in range(max(len(padded) - n + 1, 0)))
        return grams or [padded]

    def embed(self, word: str) -> np.ndarray:
        total = np.zeros(self.dim)
        for gram in self._ngrams(word.lower()):
            total += _stable_unit_vector("ng:" + gram, self.dim)
        norm = np.linalg.norm(total)
        return total / norm if norm > 0 else total


#: Topic lexicons: semantic fields of the corpora's vocabulary.
_TOPIC_LEXICONS: Dict[str, frozenset] = {
    "person": gaz.FIRST_NAMES | gaz.LAST_NAMES | gaz.NAME_PREFIXES,
    "organization": gaz.ORG_SUFFIXES | gaz.ORG_HEAD_WORDS,
    "place": gaz.CITIES | gaz.STATES | gaz.STREET_SUFFIXES | gaz.STREET_NAMES | gaz.VENUE_WORDS,
    "time": gaz.MONTHS | gaz.WEEKDAYS | gaz.TIME_WORDS,
    "event": gaz.EVENT_WORDS,
    "property": gaz.PROPERTY_WORDS,
    "contact": gaz.CONTACT_WORDS,
}


class TopicEmbedding:
    """Lexicon-topic components.

    Each topic owns a stable unit direction; a word in a topic lexicon
    maps to that direction (a word in several lexicons gets their
    normalised sum; an unknown word gets the zero vector).
    """

    def __init__(self, dim: int = DIM, lexicons: Optional[Dict[str, frozenset]] = None):
        self.dim = dim
        self.lexicons = dict(_TOPIC_LEXICONS if lexicons is None else lexicons)
        self._directions = {
            topic: _stable_unit_vector("topic:" + topic, dim) for topic in self.lexicons
        }

    def topics_of(self, word: str) -> List[str]:
        lower = word.lower().strip(".,")
        return [t for t, lex in self.lexicons.items() if lower in lex]

    def embed(self, word: str) -> np.ndarray:
        topics = self.topics_of(word)
        if not topics:
            # Real distributional embeddings place ordinary prose words
            # in a common region, away from digits and rare names.  A
            # weak shared "prose" component reproduces that: any two
            # sentences have baseline similarity, topical sentences
            # more, while numbers and names contribute nothing.
            if word.isalpha() and len(word) > 2:
                return 0.5 * self._directions_for(["__prose__"])
            return np.zeros(self.dim)
        return self._directions_for(topics)

    def _directions_for(self, topics: Sequence[str]) -> np.ndarray:
        total = np.zeros(self.dim)
        for topic in topics:
            total += self._directions.get(topic, _stable_unit_vector("topic:" + topic, self.dim))
        norm = np.linalg.norm(total)
        return total / norm if norm > 0 else total


class WordEmbedding:
    """The default model: hash base + topic component.

    ``topic_weight`` balances morphological robustness against topical
    coherence; 0.6 empirically separates semantic fields while leaving
    headroom for OCR-noise matching.
    """

    def __init__(self, dim: int = DIM, topic_weight: float = 0.6):
        if not 0.0 <= topic_weight <= 1.0:
            raise ValueError("topic_weight must be in [0, 1]")
        self.dim = dim
        self.topic_weight = topic_weight
        self._hash = HashEmbedding(dim)
        self._topic = TopicEmbedding(dim)
        self._memo: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def embed(self, word: str) -> np.ndarray:
        """The word's unit vector (zero for a word with no n-gram or
        topic signal).  Memoised per lower-cased word, at most
        :data:`MEMO_WORDS` of them; treat the result as read-only."""
        key = word.lower()
        memo = self._memo
        vec = memo.get(key)
        if vec is not None:
            memo.move_to_end(key)
            return vec
        base = self._hash.embed(key) * (1.0 - self.topic_weight)
        topic = self._topic.embed(key) * self.topic_weight
        vec = base + topic
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        memo[key] = vec
        if len(memo) > MEMO_WORDS:
            memo.popitem(last=False)
        return vec

    def embed_text(self, text: str) -> np.ndarray:
        """Mean vector of the words of ``text`` (zero for empty text).

        Text is OCR-repaired first (the cleaning step): glyph-confused
        words would otherwise fall out of the topic lexicons and
        silently zero the semantic terms of Eq. 1 / Eq. 2.  Stopwords
        are dropped (§5.2's preprocessing) so function words do not
        dilute area-level similarity.
        """
        from repro.nlp.fuzzy import repair_ocr_text
        from repro.nlp.tokenizer import STOPWORDS

        word_list = tokenize_words(repair_ocr_text(text))
        content = [w for w in word_list if w not in STOPWORDS]
        word_list = content or word_list
        if not word_list:
            return np.zeros(self.dim)
        return np.mean([self.embed(w) for w in word_list], axis=0)

    def embed_words(self, word_list: Iterable[str]) -> np.ndarray:
        vecs = [self.embed(w) for w in word_list]
        if not vecs:
            return np.zeros(self.dim)
        return np.mean(vecs, axis=0)

    def similarity(self, a: str, b: str) -> float:
        return cosine_similarity(self.embed(a), self.embed(b))

    def text_similarity(self, a: str, b: str) -> float:
        return cosine_similarity(self.embed_text(a), self.embed_text(b))


_DEFAULT: Optional[WordEmbedding] = None


def default_embedding() -> WordEmbedding:
    """Process-wide shared default model (memo reuse matters: every
    node vector of Eq. 1 and Eq. 2 is a mean of word vectors, and a
    corpus repeats most of its words)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = WordEmbedding()
    return _DEFAULT
