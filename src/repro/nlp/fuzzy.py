"""Fuzzy string matching for OCR-noised text.

D1's extraction matches field descriptors by exact string comparison
(§5.2.1) — but the transcription those strings come from is OCR output,
so "exact" must be read modulo transcription noise.  This module
provides a bit-parallel Levenshtein distance and the prefix-matching
test the selector uses.
"""

from __future__ import annotations

import re
from typing import Dict, Optional


def normalize_for_match(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    text = text.lower()
    text = re.sub(r"[^a-z0-9 ]+", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def edit_distance(a: str, b: str, cutoff: Optional[int] = None) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    With a ``cutoff`` the result is ``min(distance, cutoff + 1)``: the
    exact distance when it is at most ``cutoff``, else ``cutoff + 1``,
    returned as soon as the distance provably exceeds the cutoff.

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form (Myers,
    J. ACM 46(3), 1999; Hyyrö, 2001): one bit per character of the
    shorter string holds the vertical delta (+1 in ``pv``, −1 in
    ``mv``) of one column of the dynamic-programming matrix, and each
    character of the longer string advances the whole column with a
    fixed handful of integer operations.  Python ints are arbitrary
    width, so any length works.  The arithmetic is exact, so the result
    equals the quadratic recurrence (``tests/test_nlp_fuzzy.py`` keeps
    it as the oracle).
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if cutoff is not None and n - m > cutoff:
        return cutoff + 1
    if m == 0:
        return n
    peq: Dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv = mask, 0
    # ``bound`` is the last row's score minus the characters of ``b``
    # still to come — a lower bound on the distance, since each column
    # moves the score by at most one.  It ends equal to the distance.
    # Without a cutoff it can never exceed ``n``, so one loop serves both.
    bound = m - n
    limit = n if cutoff is None else cutoff
    for ch in b:
        # ``x ^ mask`` is ``~x`` on the low m bits, keeping ints positive.
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        # The score moves by +1, 0 or −1 and one character fewer is to
        # come, so the bound moves by 2, 1 or 0.
        if ph & high:
            bound += 2
        elif not mh & high:
            bound += 1
        if bound > limit:
            return limit + 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ((xv | ph) ^ mask)) & mask
        mv = ph & xv
    return bound


def similarity_ratio(a: str, b: str) -> float:
    """1 − normalised edit distance (1.0 = identical)."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance(a, b) / longest


_DIGIT_TO_LETTER = str.maketrans({"0": "o", "1": "l", "5": "s", "8": "b", "9": "g", "2": "z", "6": "b"})
_LETTER_TO_DIGIT = str.maketrans({"o": "0", "O": "0", "l": "1", "I": "1", "s": "5", "S": "5", "B": "8", "z": "2", "Z": "2", "g": "9"})


def repair_ocr_text(text: str) -> str:
    """Heuristic OCR repair, **length preserving** (char-for-char maps
    only, so character spans survive).

    Per token: digits inside a mostly-alphabetic word become their
    usual glyph confusions' letters ("Po5ter" → "Poster"); letters
    inside a mostly-numeric token become digits ("2l3,893" →
    "213,893"); spurious inner capitals relax ("ScreEning" →
    "Screening") unless the token is an acronym.
    """
    out = []
    for token in re.split(r"(\s)", text):  # separators preserved 1:1
        if not token or token.isspace():
            out.append(token)
            continue
        alpha = sum(ch.isalpha() for ch in token)
        digit = sum(ch.isdigit() for ch in token)
        if digit and alpha >= digit and alpha + digit >= 3:
            token = token.translate(_DIGIT_TO_LETTER)
        elif alpha and digit > alpha:
            token = token.translate(_LETTER_TO_DIGIT)
        if (
            len(token) > 2
            and token[0].isalpha()
            and any(ch.isupper() for ch in token[1:])
            and any(ch.islower() for ch in token)
        ):
            token = token[0] + token[1:].lower()
        out.append(token)
    return "".join(out)


_FOLD = str.maketrans(
    {
        "o": "0", "l": "1", "i": "1", "s": "5", "b": "8", "z": "2",
        "g": "9", "c": "e", "q": "0", "d": "0",
    }
)


def ocr_fold(text: str) -> str:
    """Collapse common OCR glyph-confusion classes onto canonical
    characters, so `'l2 Wages'` and `'12 Wages'` compare equal.  Used
    as a cheap prefilter before edit-distance matching."""
    return normalize_for_match(text).translate(_FOLD)


def fuzzy_prefix_match(
    text: str, prefix: str, min_ratio: float = 0.8
) -> Optional[int]:
    """If ``text`` starts with (a noisy rendering of) ``prefix``, return
    the matched prefix length in ``text``; else ``None``.

    Both inputs should be pre-normalised.  The match window flexes by
    ±15% of the prefix length to absorb OCR splits/merges.
    """
    if not prefix:
        return None
    slack = max(2, int(0.15 * len(prefix)))
    best_len: Optional[int] = None
    best_ratio = min_ratio
    for window in range(max(1, len(prefix) - slack), min(len(text), len(prefix) + slack) + 1):
        ratio = similarity_ratio(text[:window], prefix)
        if ratio >= best_ratio:
            best_ratio = ratio
            best_len = window
    return best_len
