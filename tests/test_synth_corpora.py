"""Synthetic corpora: determinism, ground-truth integrity, distributions."""

import pytest

from repro.datasets import (
    D2_ENTITIES,
    D3_ENTITIES,
    all_field_descriptors,
    entity_vocabulary,
    form_faces,
)
from repro.synth import generate_corpus, train_test_split


class TestDeterminism:
    @pytest.mark.parametrize("dataset", ["D1", "D2", "D3"])
    def test_same_seed_same_corpus(self, dataset):
        a = generate_corpus(dataset, n=3, seed=5)
        b = generate_corpus(dataset, n=3, seed=5)
        for da, db in zip(a, b):
            assert da.doc_id == db.doc_id
            assert len(da.elements) == len(db.elements)
            assert [e.text for e in da.text_elements] == [e.text for e in db.text_elements]
            assert [x.bbox for x in da.elements] == [x.bbox for x in db.elements]

    @pytest.mark.parametrize("dataset", ["D1", "D2", "D3"])
    def test_different_seed_differs(self, dataset):
        a = generate_corpus(dataset, n=2, seed=1)
        b = generate_corpus(dataset, n=2, seed=2)
        assert [e.text for e in a[0].text_elements] != [e.text for e in b[0].text_elements]

    def test_prefix_stability(self):
        """Growing a corpus extends it; early documents are unchanged."""
        small = generate_corpus("D2", n=3, seed=4)
        large = generate_corpus("D2", n=6, seed=4)
        assert [e.text for e in small[2].text_elements] == [
            e.text for e in large[2].text_elements
        ]

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            generate_corpus("D9", n=1)


class TestGroundTruth:
    @pytest.mark.parametrize("dataset", ["D1", "D2", "D3"])
    def test_annotations_have_text_and_area(self, dataset):
        for doc in generate_corpus(dataset, n=3, seed=2):
            assert doc.annotations
            for a in doc.annotations:
                assert a.text.strip()
                assert a.bbox.area > 0

    def test_d2_every_entity_annotated_once(self):
        for doc in generate_corpus("D2", n=5, seed=3):
            types = [a.entity_type for a in doc.annotations]
            assert sorted(types) == sorted(D2_ENTITIES)

    def test_d3_every_entity_annotated_once(self):
        for doc in generate_corpus("D3", n=5, seed=3):
            types = [a.entity_type for a in doc.annotations]
            assert sorted(types) == sorted(D3_ENTITIES)

    def test_annotation_text_words_appear_in_document(self):
        for doc in generate_corpus("D2", n=3, seed=1):
            words = {e.text for e in doc.text_elements}
            for a in doc.annotations:
                present = [w for w in a.text.split() if w in words]
                assert len(present) >= len(a.text.split()) * 0.6


class TestD1Faces:
    def test_twenty_faces(self):
        assert len(form_faces()) == 20

    def test_field_count_matches_paper(self):
        assert len(all_field_descriptors()) == 1369

    def test_descriptors_unique(self):
        descriptors = all_field_descriptors()
        assert len(set(descriptors)) == len(descriptors)

    def test_faces_deterministic(self):
        from repro.datasets import build_faces

        a = build_faces()
        b = build_faces()
        assert [f.fields for f in a] == [f.fields for f in b]

    def test_field_values_annotated_with_descriptor(self):
        doc = generate_corpus("D1", n=1, seed=0)[0]
        for a in doc.annotations:
            assert a.field_descriptor is not None

    def test_fill_rate_controls_annotations(self):
        from repro.synth.tax_forms import TaxFormGenerator

        full = TaxFormGenerator(seed=0, fill_rate=1.0).generate("x", 0)
        assert len(full.annotations) >= 60
        with pytest.raises(ValueError):
            TaxFormGenerator(fill_rate=0.0)


class TestD2Distribution:
    def test_mobile_fraction(self):
        corpus = generate_corpus("D2", n=60, seed=0)
        sources = corpus.by_source()
        mobile = sources.get("mobile", 0)
        assert 0.45 < mobile / len(corpus) < 0.80  # paper: 1375/2190 ≈ 0.63

    def test_mobile_documents_rotated(self):
        corpus = generate_corpus("D2", n=20, seed=0)
        mobile = [d for d in corpus if d.source == "mobile"][0]
        upright = [d for d in corpus if d.source == "pdf"][0]
        # rotated pages have words at visibly slanted baselines
        from repro.ocr.deskew import estimate_skew

        assert abs(estimate_skew(mobile)) > abs(estimate_skew(upright))


class TestD3Html:
    def test_every_flyer_has_dom(self):
        for doc in generate_corpus("D3", n=4, seed=0):
            assert doc.html is not None
            assert doc.html.find("body") is not None

    def test_dom_nodes_carry_boxes(self):
        doc = generate_corpus("D3", n=1, seed=0)[0]
        boxed = [n for n in doc.html.walk() if n.bbox is not None]
        assert len(boxed) >= 6


class TestSplit:
    def test_disjoint_and_complete(self):
        corpus = generate_corpus("D2", n=10, seed=0)
        train, test = train_test_split(corpus, 0.6, seed=1)
        assert len(train) + len(test) == len(corpus)
        assert not ({d.doc_id for d in train} & {d.doc_id for d in test})

    def test_fraction_bounds(self):
        corpus = generate_corpus("D2", n=4, seed=0)
        with pytest.raises(ValueError):
            train_test_split(corpus, 1.5)


class TestVocabulary:
    def test_entity_vocabulary(self):
        assert entity_vocabulary("D2") == D2_ENTITIES
        assert entity_vocabulary("D3") == D3_ENTITIES
        assert len(entity_vocabulary("D1")) == 1369
