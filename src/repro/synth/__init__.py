"""Synthetic corpora standing in for the paper's three datasets.

The paper evaluates on (D1) the NIST tax-form images, (D2) a scraped
collection of event posters, and (D3) scraped commercial real-estate
flyers — none of which can be downloaded here.  The generators in this
package produce statistically similar corpora *with ground truth*, so
every downstream code path (segmentation, OCR, pattern search,
disambiguation, evaluation) is exercised exactly as it would be on the
real data:

* :mod:`repro.synth.tax_forms` — D1: 20 structured form faces with
  labelled fields (exact-string field descriptors, low layout variance);
* :mod:`repro.synth.posters` — D2: visually ornate posters mixing
  "mobile capture" pages (rotation + heavy OCR noise) with digital
  PDFs, five annotated entity types;
* :mod:`repro.synth.flyers` — D3: HTML real-estate flyers with a
  parallel DOM, six annotated entity types;
* :mod:`repro.synth.websites` — the fixed-format listing sites the
  holdout corpus is scraped from (Table 2);
* :mod:`repro.synth.providers` — seeded fake-data provider (names,
  organisations, addresses, times, descriptions, ...);
* :mod:`repro.synth.corpus` — corpus containers, generation dispatch
  and train/test splitting;
* :mod:`repro.synth.holdout` — the Table 2 holdout-corpus scraper over
  the synthetic websites.

The dataset *schemas* (entity vocabularies, D1 form faces) live one
layer down in :mod:`repro.datasets`, shared with ``repro.core``.
"""

from repro.datasets import D1_ENTITY_PREFIX, D2_ENTITIES, D3_ENTITIES
from repro.synth.corpus import Corpus, generate_corpus, train_test_split
from repro.synth.holdout import build_holdout_corpus
from repro.synth.providers import FakeProvider
from repro.synth.tax_forms import TaxFormGenerator
from repro.synth.posters import PosterGenerator
from repro.synth.flyers import FlyerGenerator

__all__ = [
    "Corpus",
    "generate_corpus",
    "train_test_split",
    "build_holdout_corpus",
    "FakeProvider",
    "TaxFormGenerator",
    "PosterGenerator",
    "FlyerGenerator",
    "D1_ENTITY_PREFIX",
    "D2_ENTITIES",
    "D3_ENTITIES",
]
