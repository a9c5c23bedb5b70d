"""Chunker, NER, TIMEX, geocode, hypernyms, verbnet, Lesk."""

import pytest

from repro.nlp import hypernyms, verbnet
from repro.nlp.chunker import chunk, find_svo, noun_phrases, verb_phrases
from repro.nlp.geocode import geocode, has_valid_geocode, recognize_addresses
from repro.nlp.lesk import ENTITY_GLOSSES, LeskCandidate, gloss_overlap, lesk_select
from repro.nlp.ner import entities_of, recognize_entities
from repro.nlp.timex import has_timex, recognize_timex


class TestChunker:
    def test_np_with_determiner_and_modifier(self):
        nps = noun_phrases("the grand concert")
        assert len(nps) == 1
        assert nps[0].text == "the grand concert"
        assert nps[0].has_modifier()

    def test_vp(self):
        vps = verb_phrases("they hosted a party")
        assert any(v.text == "hosted" for v in vps)

    def test_svo(self):
        triples = find_svo(chunk("The club hosted a concert"))
        assert len(triples) == 1
        assert triples[0].verb.text == "hosted"

    def test_np_head(self):
        np = noun_phrases("the big red barn")[0]
        assert np.head.text == "barn"

    def test_chunk_offsets(self):
        text = "visit the old museum"
        np = noun_phrases(text)[0]
        assert text[np.start : np.end] == np.text


class TestTimex:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("April 12, 2026", "DATE"),
            ("12 April 2026", "DATE"),
            ("04/12/2026", "DATE"),
            ("2026-04-12", "DATE"),
            ("Friday", "DATE"),
            ("7:30 pm", "TIME"),
            ("19:45", "TIME"),
            ("7 pm - 9 pm", "DURATION"),
        ],
    )
    def test_kinds(self, text, kind):
        spans = recognize_timex(text)
        assert spans, text
        assert spans[0].timex_type == kind

    def test_normalized_date(self):
        t = recognize_timex("April 12, 2026")[0]
        assert t.value == "2026-04-12"

    def test_normalized_time_pm(self):
        t = recognize_timex("7:30 pm")[0]
        assert t.value == "T19:30"

    def test_no_match_on_plain_text(self):
        assert not has_timex("nothing temporal here")

    def test_no_overlapping_spans(self):
        spans = recognize_timex("Friday, Mar 4, 9:15 am - 3:30 pm")
        for a in spans:
            for b in spans:
                if a is not b:
                    assert a.end <= b.start or b.end <= a.start


class TestGeocode:
    def test_full_address(self):
        g = geocode("visit 123 Maple Street, Columbus, OH 43210")
        assert g is not None and g.confidence >= 0.9

    def test_street_only(self):
        assert has_valid_geocode("456 Oak Avenue")

    def test_city_state_zip_without_street(self):
        matches = recognize_addresses("Columbus, OH 43210")
        assert matches and matches[0].is_valid

    def test_rejects_plain_text(self):
        assert geocode("call now for details") is None

    def test_rejects_bare_number(self):
        assert geocode("we sold 1500 units") is None


class TestNer:
    def test_person_from_gazetteer(self):
        found = entities_of("hosted by Sarah Johnson", ["PERSON"])
        assert any(e.text == "Sarah Johnson" for e in found)

    def test_organization_suffix(self):
        found = entities_of("the Acme Arts Foundation presents", ["ORGANIZATION"])
        assert any("Foundation" in e.text for e in found)

    def test_phone(self):
        found = entities_of("call (614) 555-0199 now", ["PHONE"])
        assert found and found[0].text == "(614) 555-0199"

    def test_email(self):
        found = entities_of("write to jo.smith@example.com", ["EMAIL"])
        assert found

    def test_money(self):
        assert entities_of("priced at $450,000", ["MONEY"])

    def test_title_case_noise_produces_candidates(self):
        """Fig. 3: capitalised runs yield low-confidence Person FPs."""
        found = recognize_entities("Maple Street Parking Available")
        assert found  # over-triggering is the documented behaviour

    def test_spans_non_overlapping(self):
        text = "Dr. Emma Reed of Acme Realty LLC, call 614-555-0100 or e@a.com"
        spans = recognize_entities(text)
        for a in spans:
            for b in spans:
                if a is not b:
                    assert a.end <= b.start or b.end <= a.start


class TestHypernyms:
    def test_measure_chain(self):
        assert "measure" in hypernyms.hypernym_chain("acres")

    def test_structure(self):
        assert hypernyms.has_sense("bedrooms", "structure")

    def test_estate(self):
        assert hypernyms.has_sense("property", "estate")

    def test_alias(self):
        assert hypernyms.has_sense("sqft", "measure")

    def test_unknown_word_empty(self):
        assert hypernyms.hypernym_chain("zxqv") == []

    def test_chain_terminates_at_entity(self):
        for w in sorted(hypernyms.known_words()):
            chain = hypernyms.hypernym_chain(w)
            assert chain[-1] == "entity"

    def test_any_has_sense(self):
        assert hypernyms.any_has_sense(["random", "acres"], ["measure"])
        assert not hypernyms.any_has_sense(["random"], ["measure"])


class TestVerbnet:
    def test_organizer_senses(self):
        assert "captain" in verbnet.verb_senses("hosted")
        assert "reflexive_appearance" in verbnet.verb_senses("presented")
        assert "create" in verbnet.verb_senses("founded")

    def test_unknown_verb(self):
        assert verbnet.verb_senses("zxqv") == []

    def test_has_sense_unknown_class_raises(self):
        with pytest.raises(KeyError):
            verbnet.has_sense("host", "flying")

    def test_any_has_sense(self):
        assert verbnet.any_has_sense(["walked", "organized"], verbnet.ORGANIZER_SENSES)


class TestLesk:
    def test_gloss_overlap_counts_shared_content_words(self):
        assert gloss_overlap("the broker phone number", "phone call number") == 2

    def test_select_prefers_matching_context(self):
        candidates = [
            LeskCandidate("John Smith", "Join us for an evening of jazz"),
            LeskCandidate("Jane Doe", "hosted by Jane Doe and sponsors"),
        ]
        assert lesk_select(candidates, "event_organizer") == 1

    def test_select_empty_raises(self):
        with pytest.raises(ValueError):
            lesk_select([], "event_title")

    def test_all_datasets_have_glosses(self):
        from repro.datasets import entity_vocabulary

        for ds in ("D2", "D3"):
            for entity in entity_vocabulary(ds):
                assert entity in ENTITY_GLOSSES
