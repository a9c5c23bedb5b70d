"""Lexico-syntactic patterns (§5.2.1, Tables 3 and 4).

Two pattern sources:

* **Curated** — the compiled pattern library exactly as Tables 3 and 4
  state them ("noun phrase with valid geocode tags", "verb phrase with
  captain/create/reflexive_appearance verb-senses", RFC-5322 email
  regex, ...).  This is what the benches run.
* **Mined** — patterns learned from the holdout corpus by maximal
  frequent subtree mining over annotated parse chunks (the distant
  supervision path).  Mined patterns compile to containment matchers
  over a block's parse tree; tests verify they recover the curated
  behaviour.

A pattern, given a block's transcription, returns zero or more
:class:`PatternMatch` spans.  ``scope="block"`` patterns match the
block as a whole (titles, descriptions); ``scope="chunk"`` patterns
return sub-spans (times, addresses, phones, ...).

Parse once, match every pattern: a matcher reads the
:class:`TextAnalysis` of the cleaned block text — its words, chunks,
TIMEX / geocode / NER spans and Event Place verdict, each computed on
first use — so the patterns searching one block share one parse.
Searched through a document's :class:`~repro.core.textview.TextView`,
the analysis is also shared across the whole document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.mining import MiningTree, contains_subtree, decode_tree, encode_tree
from repro.mining.treeminer import FrequentPattern, mine_maximal_subtrees
from repro.nlp import gazetteers as gaz
from repro.nlp import hypernyms, verbnet
from repro.nlp.chunker import Chunk, chunk, find_svo
from repro.nlp.fuzzy import edit_distance, repair_ocr_text
from repro.nlp.geocode import GeocodeMatch, recognize_addresses
from repro.nlp.ner import EMAIL_RE, MONEY_RE, PHONE_RE, Entity, recognize_entities
from repro.nlp.parse import ParseNode, parse_sentence
from repro.nlp.timex import Timex, recognize_timex
from repro.nlp.tokenizer import STOPWORDS, normalize_text
from repro.nlp.tokenizer import words as tokenize_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.textview import TextView


@dataclass(frozen=True)
class PatternMatch:
    """One pattern hit inside a block transcription."""

    text: str
    start: int
    end: int
    strength: float = 1.0  # pattern-level confidence in [0, 1]


class TextAnalysis:
    """A block transcription cleaned for parsing, and the parses pattern
    matchers read, each computed on first use.

    Cleaning before parsing (§5.2): ``text`` is the input normalised,
    then OCR-repaired — length-preserving, so match spans are offsets
    into it.  Every parse is a plain function of ``text``; the NER
    spans reuse the TIMEX and geocode spans they would recompute.
    """

    def __init__(self, text: str):
        self.text = repair_ocr_text(normalize_text(text))

    @cached_property
    def words(self) -> Tuple[str, ...]:
        return tuple(tokenize_words(self.text))

    @cached_property
    def chunks(self) -> Tuple[Chunk, ...]:
        return tuple(chunk(self.text))

    @cached_property
    def timex(self) -> Tuple[Timex, ...]:
        return tuple(recognize_timex(self.text))

    @cached_property
    def addresses(self) -> Tuple[GeocodeMatch, ...]:
        return tuple(recognize_addresses(self.text))

    @cached_property
    def entities(self) -> Tuple[Entity, ...]:
        return tuple(
            recognize_entities(self.text, timex=self.timex, addresses=self.addresses)
        )

    @cached_property
    def place(self) -> Tuple["PatternMatch", ...]:
        """The Event Place matches (read by the place and organizer
        patterns)."""
        return tuple(_match_place(self))


#: A matcher reads a block's analysis (``.text`` is the cleaned text
#: its spans index) and returns its matches.
MatcherFn = Callable[[TextAnalysis], Sequence[PatternMatch]]


@dataclass(frozen=True)
class SyntacticPattern:
    """A named pattern with its matcher."""

    name: str
    matcher: MatcherFn
    scope: str = "chunk"  # "chunk" | "block"

    def find(self, text: str, view: Optional["TextView"] = None) -> List[PatternMatch]:
        """The pattern's matches in ``text``; ``view`` (the document's
        :class:`~repro.core.textview.TextView`) shares the analysis of
        ``text`` with every other pattern searching it."""
        analysis = view.analysis(text) if view is not None else TextAnalysis(text)
        cleaned = analysis.text
        if not cleaned:
            return []
        matches = self.matcher(analysis)
        if self.scope == "block" and matches:
            # Block-scope patterns yield a single whole-block match with
            # the strongest sub-evidence.
            strength = max(m.strength for m in matches)
            matches = [PatternMatch(cleaned, 0, len(cleaned), strength)]
        if cleaned is text:
            return list(matches)
        # Cleaning made a new string, which the view shares between
        # patterns.  Whole-text matches get this search's own copy, so
        # no two extractions share a string object of the view and a
        # pickled result (pickle writes a shared object once) does not
        # depend on which patterns matched the same block.
        own = cleaned[:1] + cleaned[1:]
        return [replace(m, text=own) if m.text is cleaned else m for m in matches]


# ----------------------------------------------------------------------
# Chunk-level matchers
# ----------------------------------------------------------------------
def _match_regex(pattern: "re.Pattern[str]", strength: float = 0.95) -> MatcherFn:
    def matcher(a: TextAnalysis) -> List[PatternMatch]:
        return [
            PatternMatch(m.group(0), m.start(), m.end(), strength)
            for m in pattern.finditer(a.text)
        ]

    return matcher


def _match_timex(a: TextAnalysis) -> List[PatternMatch]:
    """Noun phrases with valid TIMEX3 tags (Table 3, Event Time).

    Adjacent temporal spans (date + clock time) coalesce into one match,
    because the annotated entity is the full "when" expression.
    """
    text, spans = a.text, a.timex
    if not spans:
        return []
    merged: List[List] = [[spans[0].start, spans[0].end]]
    for t in spans[1:]:
        gap = text[merged[-1][1] : t.start]
        if len(gap) <= 12 and not any(ch.isalpha() and ch not in "atonmp,-" for ch in gap.lower()):
            merged[-1][1] = t.end
        elif len(gap.split()) <= 2:
            merged[-1][1] = t.end
        else:
            merged.append([t.start, t.end])
    return [PatternMatch(text[lo:hi], lo, hi, 0.9) for lo, hi in merged]


def _match_geocode(a: TextAnalysis) -> List[PatternMatch]:
    """Noun phrases with valid geocode tags (Tables 3/4)."""
    return [
        PatternMatch(g.text, g.start, g.end, g.confidence)
        for g in a.addresses
        if g.is_valid
    ]


_PLACE_LEADS = ("venue", "location", "where", "at")


def _one_deletions(word: str) -> List[str]:
    """``word`` and every string one character shorter than it."""
    return [word] + [word[:i] + word[i + 1 :] for i in range(len(word))]


#: Venue words by their one-deletion neighbourhoods (SymSpell style):
#: two words within one edit of each other share a neighbour — the
#: common string a substitution leaves when both drop its position, or
#: the shorter word itself after an insertion or deletion.
def _deletion_index(vocabulary: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    index: Dict[str, Tuple[str, ...]] = {}
    for word in sorted(vocabulary):
        for key in dict.fromkeys(_one_deletions(word)):
            index[key] = index.get(key, ()) + (word,)
    return index


_VENUE_NEIGHBOURS = _deletion_index(gaz.VENUE_WORDS)


def _is_venue_word(word: str) -> bool:
    """A venue gazetteer word, or — from 5 letters on — one OCR edit
    away from one ("librory" ≈ "library"): index hits are verified with
    ``edit_distance``, so this is exactly the scan over every venue
    word."""
    if word in gaz.VENUE_WORDS:
        return True
    return len(word) >= 5 and any(
        edit_distance(word, venue, 1) <= 1
        for key in _one_deletions(word)
        for venue in _VENUE_NEIGHBOURS.get(key, ())
    )


def _match_place(a: TextAnalysis) -> List[PatternMatch]:
    """Event Place: geocoded NPs, with a venue-line fallback.

    Transcription noise can break the address grammar; the holdout's
    fixed-format pages also teach the surface pattern "Venue: <venue
    word> ..." which survives noise, so a venue-lead line with a venue
    gazetteer word matches at reduced strength.
    """
    matches = _match_geocode(a)
    if matches:
        return matches
    text = a.text
    first = text.split(":", 1)[0].strip().lower()
    has_lead = any(edit_distance(first, lead, 1) <= 1 for lead in _PLACE_LEADS)
    has_venue_word = any(_is_venue_word(w) for w in dict.fromkeys(a.words))
    has_digits = any(ch.isdigit() for ch in text)
    if has_venue_word and (has_lead or has_digits):
        start = text.find(":") + 1 if has_lead and ":" in text else 0
        span = text[start:].strip()
        offset = text.find(span)
        return [PatternMatch(span, offset, offset + len(span), 0.6)]
    return []


def _match_event_place(a: TextAnalysis) -> Sequence[PatternMatch]:
    """Table 3, Event Place: the block's memoised place verdict."""
    return a.place


def _match_person_org_ngram(a: TextAnalysis) -> List[PatternMatch]:
    """Bigram/trigram of NEs with Person/Organization tags (Table 4)."""
    out = []
    for e in a.entities:
        if e.label not in ("PERSON", "ORGANIZATION"):
            continue
        n_words = len(e.text.split())
        if 2 <= n_words <= 4:
            out.append(PatternMatch(e.text, e.start, e.end, e.confidence))
    return out


def _match_organizer(a: TextAnalysis) -> List[PatternMatch]:
    """Table 3, Event Organizer: (1) verb phrase with captain / create /
    reflexive_appearance senses, (2) NP with Person/Organization NEs.

    A qualifying verb phrase promotes the Person/Org NE that follows it
    ("hosted **by the Acme Society**"); a bare Person/Org NE matches
    with lower strength.
    """
    entities = [e for e in a.entities if e.label in ("PERSON", "ORGANIZATION")]
    out: List[PatternMatch] = []
    organizer_vp_ends: List[int] = []
    for c in a.chunks:
        if c.label != "VP":
            continue
        verbs = [t.text for t, tag in c.tokens if tag.startswith("VB") or tag == "MD"]
        if verbnet.any_has_sense(verbs, verbnet.ORGANIZER_SENSES):
            organizer_vp_ends.append(c.end)
    # A place-shaped line (geocoded address / venue line) is not an
    # organizer mention: unless an organizer verb phrase explicitly
    # promotes an entity there, its Person/Org NEs are venue names.
    is_place_line = bool(a.place)
    for e in entities:
        promoted = any(0 <= e.start - end <= 30 for end in organizer_vp_ends)
        if is_place_line and not promoted:
            continue
        strength = min(0.95, e.confidence + (0.35 if promoted else 0.0))
        out.append(PatternMatch(e.text, e.start, e.end, strength))
    return out


def _has_modified_np(chunks: Sequence[Chunk]) -> bool:
    return any(c.label == "NP" and c.has_modifier() for c in chunks)


_TIME_LEADS_FOR_TITLE = ("date", "when", "time", "schedule")


def _match_title_evidence(a: TextAnalysis) -> List[PatternMatch]:
    """Table 3, Event Title: verb phrase, NP with CD/JJ modifiers, or
    SVO — learned from short holdout titles, which also teach what a
    title is *not*: no sentence punctuation, few function words, no
    organizer-verb lead, no schedule lead."""
    text, ws = a.text, a.words
    token_count = len(ws)
    if not 2 <= token_count <= 12:
        return []
    if ". " in text:
        return []  # running sentences are description material
    stop_ratio = sum(1 for w in ws if w in STOPWORDS) / token_count
    if stop_ratio > 0.35:
        return []
    first = ws[0]
    if any(edit_distance(first, lead, 1) <= 1 for lead in _TIME_LEADS_FOR_TITLE):
        return []
    chunks = a.chunks
    for c in chunks:
        if c.label == "VP" and verbnet.any_has_sense(
            [t.text for t, tag in c.tokens if tag.startswith("VB")],
            verbnet.ORGANIZER_SENSES,
        ):
            return []  # an organizer line, not a title
    strength = 0.0
    if _has_modified_np(chunks):
        strength = max(strength, 0.8)
    if any(
        c.label == "NP" and sum(1 for t in c.tags if t in ("NNP", "NNPS")) >= 2
        for c in chunks
    ):
        # Proper-noun titles: the tagger reads their textual modifiers
        # ("Midnight", "Grand") as NNP, equivalent evidence to JJ.
        strength = max(strength, 0.75)
    if any(c.label == "VP" for c in chunks):
        strength = max(strength, 0.7)
    if find_svo(chunks):
        strength = max(strength, 0.75)
    if any(c.label == "NP" for c in chunks):
        strength = max(strength, 0.5)
    # Blocks dominated by temporal/address/contact surface are not
    # title-shaped, whatever their chunks look like.
    claimed = sum(t.end - t.start for t in a.timex)
    claimed += sum(g.end - g.start for g in a.addresses if g.is_valid)
    if claimed > 0.4 * max(len(text), 1):
        return []
    if PHONE_RE.search(text) or EMAIL_RE.search(text) or MONEY_RE.search(text):
        return []
    # Venue/address-shaped blocks (venue gazetteer word next to street
    # numbers) are place lines, not titles, even when OCR noise broke
    # the geocode grammar above.
    word_set = set(ws)
    if (word_set & gaz.VENUE_WORDS or word_set & gaz.STREET_SUFFIXES) and any(
        ch.isdigit() for ch in text
    ):
        return []
    if strength <= 0:
        return []
    return [PatternMatch(text, 0, len(text), strength)]


def _match_description_evidence(a: TextAnalysis) -> List[PatternMatch]:
    """Table 3, Event Description: SVO or VP or modified NP, over a
    verbose block (descriptions are full sentences)."""
    if len(a.words) < 12:
        return []
    chunks = a.chunks
    strength = 0.0
    if find_svo(chunks):
        strength = max(strength, 0.85)
    if any(c.label == "VP" for c in chunks):
        strength = max(strength, 0.75)
    if _has_modified_np(chunks):
        strength = max(strength, 0.6)
    if strength <= 0:
        return []
    return [PatternMatch(a.text, 0, len(a.text), strength)]


def _match_property_size(a: TextAnalysis) -> List[PatternMatch]:
    """Table 4, Property Size: (1) NP with CD/JJ modifiers and (2) noun
    tags with measure/structure/estate hypernym senses."""
    text = a.text
    out: List[PatternMatch] = []
    for c in a.chunks:
        if c.label != "NP":
            continue
        has_cd = "CD" in c.tags
        senses = hypernyms.any_has_sense(c.word_texts(), ("measure", "structure"))
        if has_cd and senses:
            out.append(PatternMatch(c.text, c.start, c.end, 0.9))
        elif has_cd and c.has_modifier():
            # numeric NP without a size-word — weak evidence
            if any(w in ("sqft", "sq", "ft", "acres", "acre", "beds", "baths", "feet") for w in c.word_texts()):
                out.append(PatternMatch(c.text, c.start, c.end, 0.85))
    # Merge adjacent size NPs ("4 beds" "," "2 baths") into one span.
    merged: List[PatternMatch] = []
    for m in sorted(out, key=lambda m: m.start):
        if merged and m.start - merged[-1].end <= 3:
            prev = merged.pop()
            merged.append(
                PatternMatch(
                    text[prev.start : m.end], prev.start, m.end, max(prev.strength, m.strength)
                )
            )
        else:
            merged.append(m)
    return merged


def _match_property_description(a: TextAnalysis) -> List[PatternMatch]:
    """Table 4, Property Description: property-type mentions plus
    essential details — a verbose block carrying estate vocabulary."""
    ws = a.words
    if len(ws) < 10:
        return []
    estate_hits = sum(
        1 for w in ws if hypernyms.any_has_sense([w], ("estate", "structure"))
    )
    if estate_hits == 0:
        return []
    strength = min(0.5 + 0.1 * estate_hits, 0.9)
    return [PatternMatch(a.text, 0, len(a.text), strength)]


# ----------------------------------------------------------------------
# The curated pattern library (Tables 3 and 4, compiled)
# ----------------------------------------------------------------------
CURATED_PATTERNS: Dict[str, SyntacticPattern] = {
    # --- D2 (Table 3) ---
    "event_title": SyntacticPattern("vp-or-modified-np-or-svo", _match_title_evidence, "block"),
    "event_place": SyntacticPattern("np-with-geocode-or-venue-line", _match_event_place, "chunk"),
    "event_time": SyntacticPattern("np-with-timex3", _match_timex, "chunk"),
    "event_organizer": SyntacticPattern("organizer-vp-or-person-org-np", _match_organizer, "chunk"),
    "event_description": SyntacticPattern("svo-or-vp-or-modified-np", _match_description_evidence, "block"),
    # --- D3 (Table 4) ---
    "broker_name": SyntacticPattern("person-org-ngram", _match_person_org_ngram, "chunk"),
    "broker_phone": SyntacticPattern("phone-regex", _match_regex(PHONE_RE), "chunk"),
    "broker_email": SyntacticPattern("rfc5322-email-regex", _match_regex(EMAIL_RE), "chunk"),
    "property_address": SyntacticPattern("np-with-geocode", _match_geocode, "chunk"),
    "property_size": SyntacticPattern("modified-np-with-size-senses", _match_property_size, "chunk"),
    "property_description": SyntacticPattern("property-type-and-details", _match_property_description, "block"),
}


def curated_pattern_for(entity_type: str) -> SyntacticPattern:
    if entity_type not in CURATED_PATTERNS:
        raise KeyError(f"no curated pattern for entity {entity_type!r}")
    return CURATED_PATTERNS[entity_type]


# ----------------------------------------------------------------------
# Mined patterns (distant supervision path)
# ----------------------------------------------------------------------
def mine_entity_patterns(
    holdout_texts: Sequence[str],
    min_support_fraction: float = 0.25,
    max_nodes: int = 6,
    max_trees: int = 120,
    tree_source: str = "chunks",
) -> List[FrequentPattern]:
    """Learn maximal frequent subtrees from holdout entries.

    Each entry is parsed into a tree — the annotated chunk tree of
    :func:`repro.nlp.parse.parse_sentence` (default) or the dependency
    tree of :func:`repro.nlp.dependency.dependency_mining_tree`
    (``tree_source="dependency"``, the §5.2.1 reading "frequent
    subtrees within the dependency trees") — and the maximal frequent
    subtrees across entries are the entity's syntactic patterns.
    """
    texts = list(holdout_texts)[:max_trees]
    if not texts:
        return []
    if tree_source == "dependency":
        from repro.nlp.dependency import dependency_mining_tree

        trees = [dependency_mining_tree(normalize_text(t)) for t in texts]
    elif tree_source == "chunks":
        trees = [decode_tree(encode_tree(parse_sentence(normalize_text(t)))) for t in texts]
    else:
        raise ValueError(f"unknown tree_source {tree_source!r}")
    min_support = max(2, int(round(min_support_fraction * len(trees))))
    mined = mine_maximal_subtrees(trees, min_support, max_nodes)
    # Patterns made only of structural labels (bare S/NP/O chains with no
    # tag or annotation content) match everything; keep informative ones.
    informative = [
        p
        for p in mined
        if any(
            label not in ("S", "NP", "VP", "O", "-1", "DT", "IN", "PUNCT")
            for label in p.encoding
        )
    ]
    return informative or mined


def compile_mined_pattern(
    mined: Sequence[FrequentPattern],
    scope: str = "chunk",
    min_fraction: float = 0.34,
    max_patterns: int = 150,
) -> SyntacticPattern:
    """Compile mined subtrees into a matcher.

    Candidate spans are the chunks of the text's parse tree: a chunk
    matches when at least ``min_fraction`` of the mined pattern trees
    embed (Zaki's embedded containment) into a miniature ``S → chunk``
    tree; strength is that fraction.  When no single chunk reaches the
    threshold, the whole tree is tested (whole-entry patterns such as
    titles/descriptions), yielding a block-level match.
    """
    ranked = sorted(mined, key=lambda p: (-p.support, -p.size))[:max_patterns]
    trees: List[MiningTree] = [p.tree() for p in ranked]

    def fraction_for(tree: MiningTree) -> float:
        if not trees:
            return 0.0
        hits = sum(1 for t in trees if contains_subtree(tree, t, embedded=True))
        return hits / len(trees)

    def matcher(a: TextAnalysis) -> List[PatternMatch]:
        if not trees:
            return []
        text = a.text
        parsed = parse_sentence(text)
        children = list(parsed.children)
        out: List[PatternMatch] = []
        # Mined patterns may span several adjacent chunks ("Mar 4" +
        # "9:15 am"); scan windows of consecutive chunks, smallest
        # matching window first.
        for width in (1, 2, 3, 4):
            for i in range(0, max(len(children) - width + 1, 0)):
                window = children[i : i + width]
                tokens = [
                    n.token for c in window for n in c.walk() if n.token is not None
                ]
                if not tokens:
                    continue
                mini = ParseNode("S", list(window))
                fraction = fraction_for(decode_tree(encode_tree(mini)))
                if fraction >= min_fraction:
                    start = min(t.start for t in tokens)
                    end = max(t.end for t in tokens)
                    out.append(
                        PatternMatch(text[start:end], start, end, min(fraction, 0.95))
                    )
            if out:
                return _merge_overlapping(out, text)
        fraction = fraction_for(decode_tree(encode_tree(parsed)))
        if fraction >= min_fraction:
            return [PatternMatch(text, 0, len(text), min(fraction, 0.95))]
        return []

    return SyntacticPattern("mined-frequent-subtrees", matcher, scope)


def _merge_overlapping(matches: List[PatternMatch], text: str) -> List[PatternMatch]:
    """Coalesce overlapping/adjacent window matches into maximal spans."""
    merged: List[PatternMatch] = []
    for m in sorted(matches, key=lambda m: m.start):
        if merged and m.start <= merged[-1].end + 2:
            prev = merged.pop()
            start, end = prev.start, max(prev.end, m.end)
            merged.append(
                PatternMatch(text[start:end], start, end, max(prev.strength, m.strength))
            )
        else:
            merged.append(m)
    return merged


def learn_patterns_from_holdout(
    holdout, min_support_fraction: float = 0.25
) -> Dict[str, SyntacticPattern]:
    """Mined pattern per entity type of a holdout corpus."""
    learned: Dict[str, SyntacticPattern] = {}
    for entity_type in holdout.entity_types():
        mined = mine_entity_patterns(
            holdout.texts_for(entity_type), min_support_fraction
        )
        learned[entity_type] = compile_mined_pattern(mined)
    return learned
