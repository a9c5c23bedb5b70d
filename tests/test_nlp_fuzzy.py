"""Fuzzy matching and OCR repair."""

import pytest
from hypothesis import example, given, strategies as st

from repro.nlp.fuzzy import (
    edit_distance,
    fuzzy_prefix_match,
    normalize_for_match,
    ocr_fold,
    repair_ocr_text,
    similarity_ratio,
)

short_text = st.text(alphabet="abcdef 123", max_size=12)
#: Arbitrary code points (non-ASCII included) up to 200 characters, so
#: the bit-vector masks span several 64-bit words; the small-alphabet
#: branches make the strings share characters, so alignments are
#: non-trivial rather than mostly substitutions.
oracle_text = st.one_of(
    short_text, st.text(alphabet="abcé字 ", max_size=200), st.text(max_size=200)
)


def reference_edit_distance(a: str, b: str) -> int:
    """The quadratic Levenshtein recurrence, one DP row at a time — the
    oracle for the bit-parallel kernel."""
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[i] + 1, current[i - 1] + 1, previous[i - 1] + cost))
        previous = current
    return previous[-1]


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("abc", "abc") == 0

    def test_substitution(self):
        assert edit_distance("abc", "axc") == 1

    def test_insertion(self):
        assert edit_distance("abc", "abxc") == 1

    def test_deletion(self):
        assert edit_distance("abc", "ac") == 1

    def test_cutoff_early_exit(self):
        assert edit_distance("aaaa", "bbbb", cutoff=2) == 3  # cutoff + 1

    @given(oracle_text, oracle_text)
    def test_matches_reference(self, a, b):
        assert edit_distance(a, b) == reference_edit_distance(a, b)

    @given(oracle_text, oracle_text, st.integers(min_value=0, max_value=3))
    @example("ccbac", "abccb", 2)  # distance 4: must report 3, not 4
    def test_cutoff_is_min_of_distance_and_cutoff_plus_one(self, a, b, k):
        assert edit_distance(a, b, k) == min(reference_edit_distance(a, b), k + 1)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(short_text, short_text)
    def test_bounded_by_longer_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))


class TestSimilarityRatio:
    def test_identical(self):
        assert similarity_ratio("abc", "abc") == 1.0

    def test_empty(self):
        assert similarity_ratio("", "") == 1.0

    def test_single_edit(self):
        assert similarity_ratio("abcd", "abce") == 0.75


class TestNormalize:
    def test_strips_punctuation_and_case(self):
        assert normalize_for_match("Wages, Salaries & Tips!") == "wages salaries tips"


class TestOcrFold:
    def test_digit_letter_classes(self):
        assert ocr_fold("l2") == ocr_fold("12")
        assert ocr_fold("O0") == ocr_fold("00")

    def test_distinct_tokens_stay_distinct(self):
        assert ocr_fold("12") != ocr_fold("13")


class TestFuzzyPrefix:
    def test_exact_prefix(self):
        assert fuzzy_prefix_match("wages paid 123", "wages paid") == len("wages paid")

    def test_noisy_prefix(self):
        assert fuzzy_prefix_match("wagcs paid 123", "wages paid") is not None

    def test_rejects_different(self):
        assert fuzzy_prefix_match("total income 50", "wages paid") is None

    def test_empty_prefix(self):
        assert fuzzy_prefix_match("anything", "") is None


class TestRepair:
    def test_digits_in_word_become_letters(self):
        assert repair_ocr_text("Po5ter") == "Poster"

    def test_letters_in_number_become_digits(self):
        assert repair_ocr_text("2l3,893") == "213,893"

    def test_inner_caps_relax(self):
        assert repair_ocr_text("ScreEning") == "Screening"

    def test_acronyms_survive(self):
        assert repair_ocr_text("NASA") == "NASA"

    def test_clean_text_unchanged(self):
        text = "Hosted by the Acme Society at 7:30 pm"
        assert repair_ocr_text(text) == text

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=40))
    def test_length_preserved(self, text):
        """Spans computed on repaired text must stay valid offsets."""
        assert len(repair_ocr_text(text)) == len(text)
