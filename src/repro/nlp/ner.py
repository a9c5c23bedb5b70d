"""Named entity recognition (Stanford NER stand-in).

Recognises PERSON, ORGANIZATION, LOCATION, DATE, TIME, MONEY, PHONE and
EMAIL spans using gazetteers, shape rules and the TIMEX/geocode
recognisers.  Like its real counterpart, it over-triggers on
capitalised token runs — which is precisely the behaviour Fig. 3 of the
paper shows on OCR'd posters, where title-case noise produces spurious
Person/Organization candidates for the text-only baseline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.nlp import gazetteers as gaz
from repro.nlp.geocode import GeocodeMatch, recognize_addresses
from repro.nlp.timex import Timex, recognize_timex
from repro.nlp.tokenizer import Token, tokenize

PHONE_RE = re.compile(
    r"(?:\+?1[\s.-]?)?(?:\(\d{3}\)|\d{3})[\s.-]?\d{3}[\s.-]?\d{4}\b"
)
#: RFC-5322-flavoured email pattern (Table 4's Broker Email pattern).
EMAIL_RE = re.compile(
    r"\b[A-Za-z0-9!#$%&'*+/=?^_`{|}~.-]+@[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?"
    r"(?:\.[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?)+\b"
)
MONEY_RE = re.compile(r"[$€£]\s?\d[\d,]*(?:\.\d{1,2})?(?:\s?(?:k|K|M|million))?")


@dataclass(frozen=True)
class Entity:
    """A recognised named entity span."""

    text: str
    start: int
    end: int
    label: str  # PERSON | ORGANIZATION | LOCATION | DATE | TIME | MONEY | PHONE | EMAIL
    confidence: float = 1.0


def _gazetteer_person_score(words: Sequence[str]) -> float:
    clean = [w.lower().strip(".,") for w in words]
    if not clean:
        return 0.0
    hits = 0.0
    if clean[0] in gaz.NAME_PREFIXES:
        hits += 1.0
        clean = clean[1:]
    if clean and clean[0] in gaz.FIRST_NAMES:
        hits += 1.0
    if clean and clean[-1] in gaz.LAST_NAMES:
        hits += 1.0
    return hits / max(len(words), 1)


def _gazetteer_org_score(words: Sequence[str]) -> float:
    clean = [w.lower().strip(".,") for w in words]
    score = 0.0
    if clean and clean[-1] in gaz.ORG_SUFFIXES:
        score += 0.6
    if any(w in gaz.ORG_HEAD_WORDS for w in clean):
        score += 0.3
    if any(w in gaz.VENUE_WORDS for w in clean):
        score += 0.2
    if any(w in ("of", "for") for w in clean):  # "Department of ..."
        score += 0.1
    return min(score, 1.0)


def _capitalized_runs(tokens: Sequence[Token]) -> List[Tuple[int, int]]:
    """Maximal runs of capitalised word tokens (allowing inner '&'/'of')."""
    runs: List[Tuple[int, int]] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.is_word and (t.is_capitalized or t.is_all_caps) and not t.is_numeric:
            j = i + 1
            while j < n:
                u = tokens[j]
                if u.is_word and (u.is_capitalized or u.is_all_caps) and not u.is_numeric:
                    j += 1
                elif u.text in ("&",) or (u.is_word and u.lower in ("of", "for", "and")):
                    # connective allowed only when followed by another cap
                    if j + 1 < n and tokens[j + 1].is_word and tokens[j + 1].is_capitalized:
                        j += 2
                    else:
                        break
                else:
                    break
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def _classify_run(tokens: Sequence[Token]) -> Optional[Tuple[str, float]]:
    words = [t.text for t in tokens]
    person = _gazetteer_person_score(words)
    org = _gazetteer_org_score(words)
    lower = [w.lower().strip(".,") for w in words]
    if any(w in gaz.CITIES or w in gaz.STATES for w in lower) and org < 0.4:
        return ("LOCATION", 0.7)
    if org >= 0.5 and org >= person:
        return ("ORGANIZATION", min(0.55 + org / 2, 1.0))
    if person >= 0.5 and 1 < len(words) <= 4:
        return ("PERSON", min(0.5 + person / 2, 1.0))
    # Shape-only fallback: 2-3 token title-case run → low-confidence
    # PERSON; longer run → low-confidence ORGANIZATION.  These are the
    # false-positive generators on noisy transcriptions (Fig. 3).
    if 1 < len(words) <= 3 and all(w[0].isupper() for w in words):
        return ("PERSON", 0.35 + person / 4)
    if len(words) > 3:
        return ("ORGANIZATION", 0.3 + org / 4)
    return None


def recognize_entities(
    text: str,
    min_confidence: float = 0.3,
    timex: Optional[Sequence[Timex]] = None,
    addresses: Optional[Sequence[GeocodeMatch]] = None,
) -> List[Entity]:
    """All entity spans in ``text`` above ``min_confidence``.

    Regex entities (PHONE / EMAIL / MONEY) are found first and their
    character spans blocked; TIMEX and address recognisers contribute
    DATE/TIME/LOCATION; finally capitalised runs are classified into
    PERSON/ORGANIZATION/LOCATION.  A caller that already ran those two
    recognisers on ``text`` passes their spans as ``timex`` /
    ``addresses`` instead of having them recomputed.
    """
    if timex is None:
        timex = recognize_timex(text)
    if addresses is None:
        addresses = recognize_addresses(text)
    entities: List[Entity] = []
    claimed = [False] * (len(text) + 1)

    def claim(start: int, end: int) -> bool:
        if any(claimed[start:end]):
            return False
        for k in range(start, end):
            claimed[k] = True
        return True

    for label, pattern in (("EMAIL", EMAIL_RE), ("PHONE", PHONE_RE), ("MONEY", MONEY_RE)):
        for m in pattern.finditer(text):
            if claim(m.start(), m.end()):
                entities.append(Entity(m.group(0), m.start(), m.end(), label, 0.95))

    for tm in timex:
        if claim(tm.start, tm.end):
            label = "TIME" if tm.timex_type in ("TIME", "DURATION") else "DATE"
            entities.append(Entity(tm.text, tm.start, tm.end, label, 0.9))

    for g in addresses:
        if g.is_valid and claim(g.start, g.end):
            entities.append(Entity(g.text, g.start, g.end, "LOCATION", g.confidence))

    tokens = tokenize(text)
    free_tokens = [t for t in tokens if not any(claimed[t.start : t.end])]
    for i, j in _capitalized_runs(free_tokens):
        run = free_tokens[i:j]
        result = _classify_run(run)
        if result is None:
            continue
        label, confidence = result
        if confidence < min_confidence:
            continue
        start, end = run[0].start, run[-1].end
        if claim(start, end):
            entities.append(Entity(text[start:end], start, end, label, confidence))

    entities.sort(key=lambda e: e.start)
    return entities


def entities_of(text: str, labels: Sequence[str], min_confidence: float = 0.3) -> List[Entity]:
    wanted = set(labels)
    return [e for e in recognize_entities(text, min_confidence) if e.label in wanted]
