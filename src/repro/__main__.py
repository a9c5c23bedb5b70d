"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``extract``   run the VS2 pipeline over a synthetic corpus and print
              the extracted key-value pairs per document
              (``--workers N`` parallelises, ``--faults``/
              ``--supervise``/``--checkpoint`` enable fault injection
              and supervised execution; see docs/RESILIENCE.md)
``explain``   run one document with tracing on and print the decision
              report — the cut ledger, merge ledger, Pareto table and
              final extractions (docs/TRACING.md)
``table``     regenerate one of the paper's tables (2, 5, 6, 7, 8, 9)
``figure``    regenerate Fig. 3 or Figs. 4/6
``render``    rasterise a synthetic document to a PPM image
``serve``     run the long-lived extraction service: warm worker
              pool, bounded admission queue with 429 shedding,
              per-request deadlines, per-stage circuit breakers and
              graceful SIGTERM drain (docs/SERVING.md)
``check``     run the repo's static-analysis rules (determinism,
              layering, coordinate-frame hygiene) over source trees;
              see docs/STATIC_ANALYSIS.md

``extract``, ``explain``, ``serve`` and ``table`` take ``--observe
DIR``: it turns tracing on and writes every view of the run that has a
source into DIR — ``profile.txt`` (the per-stage timing table),
``trace.json`` (Chrome/Perfetto), ``trace.jsonl``, ``flame.txt``
(collapsed stacks), ``metrics.prom`` and ``metrics.jsonl`` (the metric
registry) — then prints the trace's critical path
(docs/OBSERVABILITY.md).  Without it a run writes nothing.  Speed is
measured by the repo benchmark (``perfbench/``, ``BENCHMARK.json``),
not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys


def _build_tracer(args: argparse.Namespace):
    """The tracer for a CLI run: real under ``--observe``, the shared
    no-op otherwise."""
    from repro.trace import NULL_TRACER, Tracer

    return Tracer() if getattr(args, "observe", None) else NULL_TRACER


def _write_observations(args, roots=(), metrics=None, registry=None) -> None:
    """Write each view of the run that has a source into the
    ``--observe`` directory, list the files, then print the critical
    path of the trace."""
    if not getattr(args, "observe", None):
        return
    from pathlib import Path

    from repro.obs import (
        critical_path_lines,
        write_flamegraph,
        write_metrics_jsonl,
        write_prometheus,
    )
    from repro.trace import write_chrome_trace, write_jsonl

    out = Path(args.observe)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if metrics is not None:
        profile = out / "profile.txt"
        profile.write_text(metrics.format_table() + "\n", encoding="utf-8")
        written.append((profile, "per-stage timing table"))
    if roots:
        written.append((write_chrome_trace(out / "trace.json", roots),
                        "Chrome trace_event; open in Perfetto"))
        written.append((write_jsonl(out / "trace.jsonl", roots), "JSONL event log"))
        written.append((write_flamegraph(out / "flame.txt", roots),
                        "collapsed stacks; feed to flamegraph.pl/speedscope"))
    if registry is not None:
        written.append((write_prometheus(out / "metrics.prom", registry),
                        "Prometheus text exposition"))
        written.append((write_metrics_jsonl(out / "metrics.jsonl", registry),
                        "metric-registry JSONL dump"))
    for path, what in written:
        print(f"wrote {path} ({what})")
    lines = critical_path_lines(list(roots))
    if lines:
        print("critical path:")
        for line in lines:
            print(f"  {line}")


def _build_fault_plan(args: argparse.Namespace):
    """``--faults`` accepts either a JSON plan file or the compact
    ``site:kind[@qualifier]`` spec grammar (docs/RESILIENCE.md)."""
    import os

    from repro.resilience import FaultPlan

    spec = getattr(args, "faults", None)
    if not spec:
        return None
    if spec.endswith(".json") and os.path.exists(spec):
        return FaultPlan.from_file(spec)
    return FaultPlan.from_spec(spec, seed=args.seed)


def _build_supervision(args: argparse.Namespace):
    """A :class:`SupervisionPolicy` when any resilience flag was given."""
    from repro.resilience import SupervisionPolicy

    wants = (
        getattr(args, "supervise", False)
        or getattr(args, "faults", None)
        or getattr(args, "checkpoint", None)
        or getattr(args, "quarantine_report", None)
    )
    if not wants:
        return None
    return SupervisionPolicy(
        timeout_s=args.timeout,
        max_attempts=args.max_attempts,
        checkpoint_path=args.checkpoint,
        quarantine_report_path=args.quarantine_report,
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.perf import CorpusRunner
    from repro.synth import generate_corpus

    tracer = _build_tracer(args)
    corpus = generate_corpus(args.dataset, n=args.n, seed=args.seed)
    runner = CorpusRunner(
        args.dataset,
        workers=args.workers,
        tracer=tracer,
        fault_plan=_build_fault_plan(args),
        supervision=_build_supervision(args),
    )
    outcome = runner.run(list(corpus))
    for doc, result in zip(corpus, outcome.results):
        print(f"== {doc.doc_id} ({doc.source}) ==")
        if result is None:
            continue  # failed; reported below
        for key, value in sorted(result.as_key_values().items()):
            print(f"  {key:22s} {value[:70]!r}")
        for degradation in getattr(result, "degradations", []):
            print(
                f"  ~~ degraded: {degradation.stage} -> {degradation.fallback} "
                f"({degradation.error_type})"
            )
    for failure in outcome.failures:
        print(f"!! {failure}", file=sys.stderr)
    if outcome.degrade_reason:
        print(f"!! run degraded to serial: {outcome.degrade_reason}", file=sys.stderr)
    supervision = outcome.supervision
    if supervision is not None:
        retries = sum(1 for e in supervision.events if e.kind == "retry")
        print(
            f"supervision: {retries} retries, "
            f"{len(supervision.quarantine.entries)} quarantined, "
            f"{supervision.worker_replacements} workers replaced, "
            f"{supervision.resumed_docs} resumed, "
            f"{supervision.backoff_s:.2f}s virtual backoff"
        )
    _write_observations(args, tracer.drain(), outcome.metrics, outcome.registry)
    return 1 if len(outcome.failures) == len(corpus) and len(corpus) else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Trace one document end to end and print its decision report."""
    from repro.core.pipeline import VS2Pipeline
    from repro.synth import generate_corpus
    from repro.trace import Tracer, explain_report

    tracer = Tracer()
    corpus = generate_corpus(args.dataset, n=args.doc + 1, seed=args.seed)
    doc = corpus[args.doc]
    pipeline = VS2Pipeline(args.dataset, tracer=tracer)
    with tracer.span("doc", index=args.doc, doc_id=doc.doc_id):
        result = pipeline.run(doc)
    rows = [
        {
            "entity": e.entity_type,
            "text": e.text[:48],
            "score": round(e.score, 3),
            "bbox": f"({e.bbox.x:.0f},{e.bbox.y:.0f},{e.bbox.w:.0f},{e.bbox.h:.0f})",
        }
        for e in result.extractions
    ]
    roots = tracer.drain()
    print(
        explain_report(
            roots,
            extraction_rows=rows,
            title=f"Decision report — {doc.doc_id} ({args.dataset}, seed {args.seed})",
        )
    )
    _write_observations(args, roots, pipeline.metrics)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the extraction service and serve until drained."""
    from repro.serve import ExtractionService, ServeConfig, run_server
    from repro.serve.config import BreakerConfig

    config = ServeConfig(
        dataset=args.dataset,
        workers=args.workers,
        corpus_n=args.corpus_n,
        corpus_seed=args.seed,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        batch_max=args.batch_max,
        max_attempts=args.max_attempts,
        breaker=BreakerConfig(),
        checkpoint_path=args.checkpoint,
    )
    service = ExtractionService(
        config,
        tracer=_build_tracer(args),
        fault_plan=_build_fault_plan(args),
    )
    code = run_server(service, host=args.host, port=args.port)
    _write_observations(args, service.tracer.drain(), registry=service.registry)
    return code


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.harness import (
        ExperimentContext,
        table2,
        table5,
        table6,
        table7,
        table8,
        table9,
    )

    runners = {"2": table2, "5": table5, "6": table6, "7": table7, "8": table8, "9": table9}
    runner = runners[args.number]
    if args.number == "2":
        print(runner(seed=args.seed).format())
        return 0
    context = ExperimentContext(
        {"D1": args.n_d1, "D2": args.n_d2, "D3": args.n_d3}, seed=args.seed
    )
    print(runner(context).format())
    _write_observations(args, metrics=context.metrics)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import ExperimentContext, figure3, figure4_and_6

    context = ExperimentContext({"D2": max(args.doc_index + 1, 4)}, seed=args.seed)
    fig = figure3(context, args.doc_index) if args.number == "3" else figure4_and_6(
        context, args.doc_index
    )
    print(fig.format())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.doc.render import rasterize, save_ppm
    from repro.synth import generate_corpus

    doc = generate_corpus(args.dataset, n=args.index + 1, seed=args.seed)[args.index]
    canvas = rasterize(doc, scale=args.scale)
    save_ppm(canvas, args.output)
    print(f"wrote {args.output} ({canvas.shape[1]}x{canvas.shape[0]})")
    return 0


def _explain_rule(rule_id: str) -> int:
    """Print the catalogue entry (doc, example, fix) for one rule."""
    from repro.analysis.lint import ALL_RULES
    from repro.analysis.lint.engine import PARSE_RULE

    rule_id = rule_id.upper()
    if rule_id in ALL_RULES:
        rule = ALL_RULES[rule_id]
        sections = (rule.summary, (rule.__doc__ or "").strip(), rule.example, rule.fix)
    elif rule_id == PARSE_RULE:
        sections = (
            "every linted file must parse",
            "Emitted when a file cannot be parsed as Python; the rest of "
            "the analysis skips the file, so fix the syntax error first.",
            "def broken(:",
            "fix the syntax error",
        )
    else:
        print(f"unknown rule {rule_id!r}; see repro check --list-rules", file=sys.stderr)
        return 2
    summary, doc, example, fix = sections
    print(f"{rule_id} — {summary}")
    if doc:
        print(f"\n{doc}")
    if example:
        print("\nExample:")
        for line in example.splitlines():
            print(f"  {line}")
    if fix:
        print(f"\nFix: {fix}")
    return 0


def _rule_list(value: str) -> list:
    """``--rules`` value: comma-separated rule IDs, each one known."""
    from repro.analysis.lint.engine import unknown_rule_ids

    ids = [r.strip().upper() for r in value.split(",") if r.strip()]
    unknown = unknown_rule_ids(ids)
    if not ids or unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule id(s): {', '.join(unknown) or repr(value)}; "
            "see repro check --list-rules"
        )
    return ids


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import ALL_RULES, format_human, format_json, lint_paths

    if args.list_rules:
        for rule_id, rule in sorted(ALL_RULES.items()):
            print(f"{rule_id}  {rule.summary}")
        return 0
    if args.explain:
        return _explain_rule(args.explain)

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro check: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = lint_paths(paths, rule_ids=args.rules)
    print(format_json(violations) if args.format == "json" else format_human(violations))
    return 1 if violations else 0


def _observe_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--observe", metavar="DIR", default=None,
        help="trace the run and write each of its views into DIR: profile.txt, "
             "trace.json, trace.jsonl, flame.txt, metrics.prom, metrics.jsonl "
             "(those the command has a source for); prints the critical path",
    )


def _dataset_arg(p: argparse.ArgumentParser, default: str = "D2") -> None:
    p.add_argument(
        "--dataset", choices=["D1", "D2", "D3"], default=default,
        type=lambda s: s.upper(),
        help="which dataset wiring to run (case-insensitive)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the module CLI."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run VS2 over a synthetic corpus")
    _dataset_arg(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1,
        help="process count for the corpus runner (1 = serial)",
    )
    p.add_argument(
        "--faults", metavar="SPEC_OR_JSON", default=None,
        help="deterministic fault plan: a JSON plan file or the compact "
             "spec grammar, e.g. 'ocr:flaky@0.1,worker:crash@doc=7' "
             "(docs/RESILIENCE.md); implies supervised execution",
    )
    p.add_argument(
        "--supervise", action="store_true",
        help="run under the supervised layer (timeouts, retries, "
             "quarantine) even without a fault plan",
    )
    p.add_argument(
        "--checkpoint", metavar="RUN.jsonl", default=None,
        help="JSONL checkpoint log; rerunning with the same corpus "
             "resumes, skipping completed documents",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-document wall-clock budget in seconds (parallel "
             "supervised runs; default 60)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per document before quarantine (default 3)",
    )
    p.add_argument(
        "--quarantine-report", metavar="OUT.json", default=None,
        help="write the machine-readable quarantine report here",
    )
    _observe_arg(p)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser(
        "explain",
        help="trace one document and print its decision report",
    )
    _dataset_arg(p)
    p.add_argument("--doc", type=int, default=0, help="document index in the corpus")
    p.add_argument("--seed", type=int, default=0)
    _observe_arg(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", choices=["2", "5", "6", "7", "8", "9"])
    p.add_argument("--n-d1", type=int, default=24)
    p.add_argument("--n-d2", type=int, default=16)
    p.add_argument("--n-d3", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    _observe_arg(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser(
        "serve",
        help="run the long-lived extraction service (docs/SERVING.md)",
    )
    _dataset_arg(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; the chosen port is printed)")
    p.add_argument("--workers", type=int, default=2,
                   help="warm pool width (1 = in-process serving)")
    p.add_argument("--corpus-n", type=int, default=32,
                   help="warm corpus size; /extract references documents by index")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed (also seeds a --faults spec plan)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="admission-queue bound; beyond it requests shed with 429")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="default per-request deadline in seconds (504 on expiry)")
    p.add_argument("--batch-max", type=int, default=4,
                   help="max requests coalesced into one pipeline dispatch")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="attempts per request across batch retries")
    p.add_argument("--faults", metavar="SPEC_OR_JSON", default=None,
                   help="deterministic fault plan (sites serve.admit / "
                        "serve.batch plus the pipeline sites; docs/RESILIENCE.md)")
    p.add_argument("--checkpoint", metavar="OUT.json", default=None,
                   help="write the final accounting snapshot here on drain")
    _observe_arg(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", choices=["3", "4"])
    p.add_argument("--doc-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("check", help="run the repo's static-analysis rules")
    p.add_argument("paths", nargs="*", default=["src", "tests"],
                   help="files or directories to lint (default: src tests)")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--rules", type=_rule_list, metavar="RULE[,RULE...]", default=None,
                   help="restrict the run to these comma-separated rule IDs")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--explain", metavar="RULEID",
                   help="print one rule's documentation, example and fix, then exit")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("render", help="rasterise a synthetic document to PPM")
    _dataset_arg(p)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--output", default="document.ppm")
    p.set_defaults(fn=_cmd_render)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
