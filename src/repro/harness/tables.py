"""Table runners — one per table of the paper's evaluation (§6)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.extraction import (
    ApostolovaExtractor,
    ClausIEExtractor,
    FsmExtractor,
    MlBasedExtractor,
    ReportMinerExtractor,
    TextOnlyExtractor,
)
from repro.baselines.segmentation import (
    text_cluster_blocks,
    vips_blocks,
    voronoi_blocks,
    xycut_blocks,
)
from repro.core import VS2Config, VS2Segmenter, VS2Selector
from repro.core.config import SegmentConfig, SelectConfig
from repro.core.holdout import (
    distribution_is_approximately_normal,
    pattern_distribution,
)
from repro.core.patterns import CURATED_PATTERNS, mine_entity_patterns
from repro.synth.holdout import build_holdout_corpus
from repro.core.select import Extraction
from repro.doc import Document
from repro.embeddings import default_embedding
from repro.eval.metrics import (
    PRF,
    corpus_segmentation_scores,
    end_to_end_scores,
    per_document_f1,
)
from repro.eval.significance import paired_t_test
from repro.harness.reporting import TableResult
from repro.harness.runner import ExperimentContext
from repro.instrument import PipelineMetrics
from repro.ocr.layout_analysis import tesseract_blocks
from repro.synth.corpus import entity_vocabulary
from repro.synth.websites import HOLDOUT_SOURCES

DATASETS = ("D1", "D2", "D3")

#: Pretty entity names used by Tables 6 and 8.
ENTITY_LABELS = {
    "event_title": "Event Title",
    "event_place": "Event Place",
    "event_time": "Event Time",
    "event_organizer": "Event Organizer",
    "event_description": "Event Description",
    "broker_name": "Broker Name",
    "broker_phone": "Broker Phone",
    "broker_email": "Broker Email",
    "property_address": "Property Address",
    "property_size": "Property Size",
    "property_description": "Property Desc.",
}


class _VS2Extractor:
    """VS2 as an ``extract(observed)`` object over cleaned documents.

    Runs segment + select on the already cleaned view so every method
    in a table consumes the identical transcription.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional[VS2Config] = None,
        metrics: Optional[PipelineMetrics] = None,
    ):
        config = config or VS2Config()
        embedding = default_embedding()
        self.metrics = metrics if metrics is not None else PipelineMetrics()
        self.segmenter = VS2Segmenter(config.segment, embedding, metrics=self.metrics)
        self.selector = VS2Selector(
            dataset, config.select, embedding=embedding, metrics=self.metrics
        )

    def extract(self, observed: Document) -> List[Extraction]:  # exc: boundary - harness adapter; faults propagate unless run supervised
        """Segment + select on an already cleaned document view."""
        with self.metrics.stage("segment") as t:
            blocks = self.segmenter.segment(observed).logical_blocks()
            t.items = len(blocks)
        with self.metrics.stage("select") as t:
            out = self.selector.extract(observed, blocks)
            t.items = len(out)
        return out


def _vs2_blocks(config: Optional[SegmentConfig] = None) -> Callable:
    segmenter = VS2Segmenter(config)
    return segmenter.block_bboxes


# ----------------------------------------------------------------------
# Table 5 — segmentation
# ----------------------------------------------------------------------
def table5(context: Optional[ExperimentContext] = None) -> TableResult:
    """Evaluation of VS2-Segment against five page segmentation
    algorithms (precision / recall per dataset, IoU > 0.65)."""
    context = context or ExperimentContext.default()
    algorithms: List[Tuple[str, str, Callable]] = [
        ("A1", "Text-only", text_cluster_blocks),
        ("A2", "XY-Cut", xycut_blocks),
        ("A3", "Voronoi-tessellation", voronoi_blocks),
        ("A4", "VIPS", vips_blocks),
        ("A5", "Tesseract", tesseract_blocks),
        ("A6", "VS2-Segment", _vs2_blocks()),
    ]
    table = TableResult(
        "Table 5: Evaluation of VS2-Segment on experimental datasets",
        ["Index", "Algorithm"]
        + [f"{d} {m}" for d in DATASETS for m in ("Pr", "Rec")],
    )
    for index, name, algorithm in algorithms:
        row: Dict[str, object] = {"Index": index, "Algorithm": name}
        for dataset in DATASETS:
            runs = context.run_segmentation(dataset, algorithm)
            if runs is None:
                row[f"{dataset} Pr"] = None
                row[f"{dataset} Rec"] = None
                continue
            prf = corpus_segmentation_scores(
                (boxes, doc.annotations) for boxes, doc in runs
            )
            row[f"{dataset} Pr"] = prf.precision
            row[f"{dataset} Rec"] = prf.recall
        table.rows.append(row)
    table.notes.append(
        "A4 (VIPS) is not applicable to D1 scans: no reliable HTML conversion path."
    )
    return table


# ----------------------------------------------------------------------
# Tables 6 and 8 — per-entity end-to-end vs the text-only baseline
# ----------------------------------------------------------------------
def _per_entity_table(
    dataset: str, title: str, context: ExperimentContext
) -> TableResult:
    docs = context.cleaned(dataset)
    vs2_results = context.run_extractor(
        _VS2Extractor(dataset, metrics=context.metrics), docs
    )
    text_results = context.run_extractor(TextOnlyExtractor(dataset), docs)
    vs2_overall, vs2_entities = end_to_end_scores(vs2_results)
    text_overall, text_entities = end_to_end_scores(text_results)

    table = TableResult(title, ["Index", "Named Entity", "Pr", "Rec", "dF1"])
    for i, entity in enumerate(entity_vocabulary(dataset), start=1):
        vs2 = vs2_entities.get(entity, PRF())
        text = text_entities.get(entity, PRF())
        table.add_row(
            **{
                "Index": f"N{i}",
                "Named Entity": ENTITY_LABELS.get(entity, entity),
                "Pr": vs2.precision,
                "Rec": vs2.recall,
                "dF1": vs2.f1 - text.f1,
            }
        )
    table.add_row(
        **{
            "Index": "",
            "Named Entity": "Overall",
            "Pr": vs2_overall.precision,
            "Rec": vs2_overall.recall,
            "dF1": vs2_overall.f1 - text_overall.f1,
        }
    )
    test = paired_t_test(per_document_f1(vs2_results), per_document_f1(text_results))
    table.notes.append(
        f"paired t-test vs text-only baseline: t={test.statistic:.2f}, "
        f"p={test.p_value:.4f} ({'significant' if test.significant() else 'not significant'} at 0.05)"
    )
    return table


def table6(context: Optional[ExperimentContext] = None) -> TableResult:
    """End-to-end evaluation of VS2 on D2 (ΔF1 vs text-only)."""
    context = context or ExperimentContext.default()
    return _per_entity_table("D2", "Table 6: End-to-end evaluation of VS2 on D2", context)


def table8(context: Optional[ExperimentContext] = None) -> TableResult:
    """End-to-end evaluation of VS2 on D3 (ΔF1 vs text-only)."""
    context = context or ExperimentContext.default()
    return _per_entity_table("D3", "Table 8: End-to-end evaluation of VS2 on D3", context)


# ----------------------------------------------------------------------
# Table 7 — end-to-end comparison against existing methods
# ----------------------------------------------------------------------
def table7(context: Optional[ExperimentContext] = None) -> TableResult:
    """Comparison of end-to-end performance on all datasets.

    Trained baselines (ML-based, Apostolova, ReportMiner) fit on the
    60% split; *all* methods are evaluated on the held-out 40% so every
    cell of the table scores the same documents.  The ML-based method
    runs only on HTML-convertible documents (D2's PDF fraction, D3).
    """
    context = context or ExperimentContext.default()
    table = TableResult(
        "Table 7: Comparison of end-to-end performance against existing methods",
        ["Index", "Algorithm"]
        + [f"{d} {m}" for d in DATASETS for m in ("Pr", "Rec")],
    )

    methods: List[Tuple[str, str]] = [
        ("A1", "ClausIE"),
        ("A2", "FSM"),
        ("A3", "ML-based"),
        ("A4", "Apostolova et al."),
        ("A5", "ReportMiner"),
        ("A6", "VS2"),
    ]
    for index, name in methods:
        row: Dict[str, object] = {"Index": index, "Algorithm": name}
        for dataset in DATASETS:
            prf = _table7_cell(name, dataset, context)
            row[f"{dataset} Pr"] = None if prf is None else prf.precision
            row[f"{dataset} Rec"] = None if prf is None else prf.recall
        table.rows.append(row)
    table.notes.append(
        "ClausIE and ML-based do not apply to D1; ML-based on D2 scores its"
        " applicable (PDF) documents only."
    )
    return table


def _table7_cell(
    name: str, dataset: str, context: ExperimentContext
) -> Optional[PRF]:
    train, test = context.split(dataset)
    source_filter = None
    if name == "ClausIE":
        if dataset == "D1":
            return None
        extractor = ClausIEExtractor(dataset)
    elif name == "FSM":
        extractor = FsmExtractor(dataset)
    elif name == "ML-based":
        if dataset == "D1":
            return None
        extractor = MlBasedExtractor(dataset)
        train_docs = [c.original for c in train if extractor.applicable(c.original)]
        if not train_docs:
            return None
        extractor.fit(train_docs)
        if dataset == "D2":
            source_filter = "pdf"
    elif name == "Apostolova et al.":
        extractor = ApostolovaExtractor(dataset)
        extractor.fit([c.original for c in train])
    elif name == "ReportMiner":
        extractor = ReportMinerExtractor(dataset)
        extractor.fit([c.original for c in train])
    elif name == "VS2":
        extractor = _VS2Extractor(dataset, metrics=context.metrics)
    else:
        raise ValueError(f"unknown method {name!r}")
    results = context.run_extractor(extractor, test, source_filter)
    if not results:
        return None
    return end_to_end_scores(results)[0]


# ----------------------------------------------------------------------
# Table 9 — ablation study
# ----------------------------------------------------------------------
def table9(context: Optional[ExperimentContext] = None) -> TableResult:
    """Individual component effects: each row disables one component
    and reports the F1 *drop* (ΔF1, positive = the component helps)."""
    context = context or ExperimentContext.default()

    def config(merging=True, clustering=True, disambiguation="multimodal") -> VS2Config:
        cfg = VS2Config()
        cfg.segment = SegmentConfig(
            use_semantic_merging=merging, use_visual_clustering=clustering
        )
        cfg.select = SelectConfig(disambiguation=disambiguation)
        return cfg

    scenarios: List[Tuple[str, str, VS2Config]] = [
        ("A1", "- semantic merging", config(merging=False)),
        ("A2", "- visual clustering", config(clustering=False)),
        ("A3", "- entity disambiguation", config(disambiguation="none")),
        ("A4", "text-only disambiguation (Lesk)", config(disambiguation="lesk")),
    ]

    full_f1: Dict[str, float] = {}
    for dataset in DATASETS:
        docs = context.cleaned(dataset)
        full = end_to_end_scores(
            context.run_extractor(_VS2Extractor(dataset, metrics=context.metrics), docs)
        )[0]
        full_f1[dataset] = full.f1

    table = TableResult(
        "Table 9: Evaluating individual components in VS2 by ablation study",
        ["Index", "Scenario", "dF1 D1", "dF1 D2", "dF1 D3"],
    )
    for index, label, cfg in scenarios:
        row: Dict[str, object] = {"Index": index, "Scenario": label}
        for dataset in DATASETS:
            docs = context.cleaned(dataset)
            ablated = end_to_end_scores(
                context.run_extractor(
                    _VS2Extractor(dataset, cfg, metrics=context.metrics), docs
                )
            )[0]
            row[f"dF1 {dataset}"] = full_f1[dataset] - ablated.f1
        table.rows.append(row)
    table.notes.append("ΔF1 = F1(full VS2) − F1(ablated); positive means the component helps.")
    return table


# ----------------------------------------------------------------------
# Table 2 — holdout corpus construction
# ----------------------------------------------------------------------
def table2(seed: int = 0) -> TableResult:
    """Holdout corpus summary: source sites, extracted tuples, and the
    Shapiro–Wilk normality check on the pattern distribution."""
    table = TableResult(
        "Table 2: Constructing the holdout corpus",
        ["Dataset", "Source", "Entities", "Tuples", "Patterns approx. normal"],
    )
    for dataset in DATASETS:
        corpus = build_holdout_corpus(dataset, seed=seed, max_entries_per_entity=120)
        sources = ", ".join(note.split(" | ")[0] for _, _, note in HOLDOUT_SOURCES[dataset])
        counts = pattern_distribution(corpus.all_texts()[:400])
        table.add_row(
            **{
                "Dataset": dataset,
                "Source": sources,
                "Entities": len(corpus.entity_types()),
                "Tuples": corpus.size(),
                "Patterns approx. normal": str(
                    distribution_is_approximately_normal(counts)
                ),
            }
        )
    return table


# ----------------------------------------------------------------------
# Tables 3 / 4 — the learned syntactic patterns
# ----------------------------------------------------------------------
def tables3_4(seed: int = 0, max_entries: int = 24) -> TableResult:
    """Per entity: the curated (Table 3/4) pattern next to the top
    maximal frequent subtrees mined from the holdout corpus."""
    table = TableResult(
        "Tables 3 & 4: Syntactic patterns per named entity",
        ["Dataset", "Named Entity", "Curated pattern", "Top mined subtree", "Support"],
    )
    for dataset in ("D2", "D3"):
        holdout = build_holdout_corpus(dataset, seed=seed, max_entries_per_entity=max_entries)
        for entity in entity_vocabulary(dataset):
            mined = mine_entity_patterns(holdout.texts_for(entity), max_trees=max_entries)
            top = mined[0] if mined else None
            table.add_row(
                **{
                    "Dataset": dataset,
                    "Named Entity": ENTITY_LABELS.get(entity, entity),
                    "Curated pattern": CURATED_PATTERNS[entity].name,
                    "Top mined subtree": " ".join(top.encoding) if top else "-",
                    "Support": top.support if top else None,
                }
            )
    return table
