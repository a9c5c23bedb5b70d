"""Word embeddings (Word2Vec stand-in) and the trainable SVD path."""

import numpy as np
import pytest

from repro.embeddings import vectors
from repro.embeddings import (
    HashEmbedding,
    TopicEmbedding,
    WordEmbedding,
    cosine_similarity,
    default_embedding,
    train_svd_embedding,
)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)


class TestHashEmbedding:
    def test_deterministic(self):
        e = HashEmbedding()
        assert np.allclose(e.embed("concert"), HashEmbedding().embed("concert"))

    def test_case_insensitive(self):
        e = HashEmbedding()
        assert np.allclose(e.embed("Concert"), e.embed("concert"))

    def test_ocr_noise_robustness(self):
        """Single-character corruption keeps the word near its original —
        the property semantic merging needs on noisy transcriptions."""
        e = HashEmbedding()
        noisy = cosine_similarity(e.embed("refreshments"), e.embed("refre5hments"))
        unrelated = cosine_similarity(e.embed("refreshments"), e.embed("mortgage"))
        assert noisy > 0.5
        assert noisy > unrelated + 0.3

    def test_unit_norm(self):
        assert np.linalg.norm(HashEmbedding().embed("hello")) == pytest.approx(1.0)

    def test_bad_ngram_range(self):
        with pytest.raises(ValueError):
            HashEmbedding(n_min=3, n_max=2)


class TestTopicEmbedding:
    def test_same_topic_words_aligned(self):
        t = TopicEmbedding()
        assert cosine_similarity(t.embed("concert"), t.embed("festival")) == pytest.approx(1.0)

    def test_different_topics_unaligned(self):
        t = TopicEmbedding()
        sim = cosine_similarity(t.embed("concert"), t.embed("bathroom"))
        assert abs(sim) < 0.5

    def test_unknown_word_gets_weak_prose_component(self):
        t = TopicEmbedding()
        vec = t.embed("zxqwv")
        assert 0 < float(abs(vec).sum()) and float((vec ** 2).sum()) < 0.5

    def test_numeric_token_zero(self):
        assert not TopicEmbedding().embed("1234").any()

    def test_topics_of(self):
        assert "event" in TopicEmbedding().topics_of("concert")


class TestWordEmbedding:
    def test_bad_weight(self):
        with pytest.raises(ValueError):
            WordEmbedding(topic_weight=2.0)

    def test_topical_similarity_dominates(self):
        e = WordEmbedding()
        same_field = e.similarity("concert", "festival")
        cross_field = e.similarity("concert", "bathroom")
        assert same_field > cross_field + 0.3

    def test_embed_text_empty(self):
        assert not WordEmbedding().embed_text("").any()

    def test_embed_text_repairs_ocr(self):
        e = WordEmbedding()
        sim = cosine_similarity(
            e.embed_text("Li9ht reFre5hments"), e.embed_text("Light refreshments")
        )
        assert sim > 0.9

    def test_embed_text_drops_stopwords(self):
        e = WordEmbedding()
        sim = cosine_similarity(
            e.embed_text("the concert of the year"), e.embed_text("concert year")
        )
        assert sim > 0.95

    def test_default_embedding_is_shared(self):
        assert default_embedding() is default_embedding()

    def test_word_memo_is_bounded_and_keeps_recent_words(self, monkeypatch):
        monkeypatch.setattr(vectors, "MEMO_WORDS", 3)
        e = WordEmbedding()
        for word in ("concert", "festival", "bathroom"):
            e.embed(word)
        e.embed("Concert")  # a hit refreshes the word
        e.embed("mortgage")
        assert list(e._memo) == ["bathroom", "concert", "mortgage"]

    def test_memoised_and_evicted_vectors_are_bitwise_unchanged(self, monkeypatch):
        def blended(word):
            key = word.lower()
            vec = HashEmbedding().embed(key) * (1.0 - 0.6) + TopicEmbedding().embed(key) * 0.6
            return vec / np.linalg.norm(vec)

        monkeypatch.setattr(vectors, "MEMO_WORDS", 2)
        e = WordEmbedding()
        words = ["concert", "Refre5hments", "1234", "concert"]
        first = [e.embed(w) for w in words]  # the second "concert" was evicted
        again = [e.embed(w) for w in words]
        for word, a, b in zip(words, first, again):
            assert np.array_equal(a, blended(word)) and np.array_equal(b, blended(word)), word


class TestSvdEmbedding:
    def corpus(self):
        return [
            "the concert starts at eight tonight",
            "a festival with live music and food",
            "the concert features live music",
            "festival tickets are on sale now",
            "concert tickets available at the door",
            "the festival hosts a concert stage",
        ] * 4

    def test_training_shapes(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert emb.dim <= 8
        assert "concert" in emb

    def test_oov_is_zero(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert not emb.embed("zxqwv").any()

    def test_cooccurring_words_related(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        related = emb.similarity("concert", "festival")
        assert "concert" in emb and "festival" in emb
        assert related > -0.2  # co-occurring words never strongly opposed

    def test_most_similar_excludes_self(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert "concert" not in emb.most_similar("concert", k=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_svd_embedding(["one"], dim=4, min_count=5)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            train_svd_embedding(self.corpus(), dim=0)
