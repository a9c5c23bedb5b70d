"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``extract``   run the VS2 pipeline over a synthetic corpus and print
              the extracted key-value pairs per document
              (``--workers N`` parallelises, ``--profile`` prints the
              per-stage timing table, ``--trace out.json`` writes a
              Chrome/Perfetto trace, ``--faults``/``--supervise``/
              ``--checkpoint`` enable fault injection and supervised
              execution; see docs/PROFILING.md, docs/TRACING.md and
              docs/RESILIENCE.md)
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

``extract`` and ``serve`` also take ``--metrics OUT.prom`` /
``--metrics-jsonl OUT.jsonl`` (labeled metric-registry exports) and
``--flame OUT.txt`` (collapsed-stack flamegraph of the run's trace).
Speed is measured by the repo benchmark (``perfbench/``,
``BENCHMARK.json``), not by a subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_tracer(args: argparse.Namespace):
    """The tracer for a CLI run: real when any --trace/--flame flag was
    given, the shared no-op otherwise."""
    from repro.trace import NULL_TRACER, Tracer

    wants = (
        getattr(args, "trace", None)
        or getattr(args, "trace_jsonl", None)
        or getattr(args, "flame", None)
    )
    return Tracer() if wants else NULL_TRACER


def _export_trace(tracer, args: argparse.Namespace) -> None:
    from repro.trace import write_chrome_trace, write_jsonl

    roots = tracer.drain()
    if not roots:
        return
    if getattr(args, "trace", None):
        path = write_chrome_trace(args.trace, roots)
        print(f"wrote {path} (Chrome trace_event; open in Perfetto)")
    if getattr(args, "trace_jsonl", None):
        path = write_jsonl(args.trace_jsonl, roots)
        print(f"wrote {path} (JSONL event log)")
    if getattr(args, "flame", None):
        from repro.obs import critical_path_lines, write_flamegraph

        path = write_flamegraph(args.flame, roots)
        print(f"wrote {path} (collapsed stacks; feed to flamegraph.pl/speedscope)")
        lines = critical_path_lines(roots)
        if lines:
            print("critical path:")
            for line in lines:
                print(f"  {line}")


def _export_metrics(registry, args: argparse.Namespace) -> None:
    """Write the run registry wherever --metrics/--metrics-jsonl point."""
    from repro.obs import write_metrics_jsonl, write_prometheus

    if getattr(args, "metrics", None):
        path = write_prometheus(args.metrics, registry)
        print(f"wrote {path} (Prometheus text exposition)")
    if getattr(args, "metrics_jsonl", None):
        path = write_metrics_jsonl(args.metrics_jsonl, registry)
        print(f"wrote {path} (metric-registry JSONL dump)")


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
    if args.profile:
        print()
        print(outcome.metrics.format_table())
    _export_metrics(outcome.registry, args)
    _export_trace(tracer, args)
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
    _export_trace(_Preloaded(roots), args)
    return 0


class _Preloaded:
    """Adapter so :func:`_export_trace` can reuse already-drained roots."""

    def __init__(self, roots):
        self._roots = roots

    def drain(self):
        return self._roots


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
        batch_window_s=args.batch_window,
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
    _export_metrics(service.registry, args)
    _export_trace(service.tracer, args)
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
    if args.profile:
        print()
        print(context.metrics.format_table(title="Context per-stage timing"))
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
    from repro.analysis.passes import load_catalogue
    from repro.analysis.runner import PARSE_RULE

    rule_id = rule_id.upper()
    sections = None
    if rule_id in ALL_RULES:
        rule = ALL_RULES[rule_id]
        doc = (rule.__doc__ or "").strip()
        sections = (rule.summary, doc, rule.example, rule.fix)
    else:
        for pass_obj in load_catalogue().values():
            if rule_id in pass_obj.rules:
                entry = pass_obj.rules[rule_id]
                sections = (entry.summary, entry.doc, entry.example, entry.fix)
                break
    if sections is None and rule_id == PARSE_RULE:
        sections = (
            "every linted file must parse",
            "Emitted when a file cannot be parsed as Python; the rest of "
            "the analysis skips the file, so fix the syntax error first.",
            "def broken(:",
            "fix the syntax error",
        )
    if sections is None:
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


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import (
        ALL_RULES,
        format_human,
        format_json,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.lint.engine import apply_baseline, rekey_baseline
    from repro.analysis.passes import load_catalogue
    from repro.analysis.runner import check_project

    if args.list_rules:
        for rule_id, rule in sorted(ALL_RULES.items()):
            print(f"{rule_id}  {rule.summary}")
        for pass_id, pass_obj in sorted(load_catalogue().items()):
            for rule_id, entry in sorted(pass_obj.rules.items()):
                print(f"{rule_id}  {entry.summary}  [{pass_id} pass]")
        return 0
    if args.explain:
        return _explain_rule(args.explain)

    baseline_path = Path(args.baseline)
    if args.rekey:
        renames = {}
        for spec in args.rekey:
            old, sep, new = spec.partition("=")
            if not sep or not old or not new:
                print(f"--rekey expects OLD=NEW, got {spec!r}", file=sys.stderr)
                return 2
            renames[old] = new
        changed = rekey_baseline(baseline_path, renames)
        print(f"rewrote {changed} fingerprint(s) in {baseline_path}")
        return 0

    cache_path = None
    if args.cache and not args.no_cache:
        cache_path = Path(args.cache)
    result = check_project(
        [Path(p) for p in args.paths],
        rule_ids=args.rules or None,
        cache_path=cache_path,
    )
    if args.graph:
        if args.graph == "dot":
            print(result.index.to_dot())
        else:
            print(json.dumps(result.index.to_json(), indent=2, sort_keys=True))
        return 0
    violations = result.violations
    if args.write_baseline:
        write_baseline(baseline_path, violations)
        print(f"wrote {len(violations)} fingerprint(s) to {baseline_path}")
        return 0
    violations = apply_baseline(violations, load_baseline(baseline_path))
    if args.stats:
        s = result.stats
        print(
            f"repro check stats: {s['files']} file(s), {s['parsed']} parsed, "
            f"{s['cached']} from cache",
            file=sys.stderr,
        )
    if args.timings:
        print(result.metrics.format_table(title="repro check timings"), file=sys.stderr)
    print(format_json(violations) if args.format == "json" else format_human(violations))
    return 1 if violations else 0


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="write a Chrome trace_event file of the run (Perfetto-loadable)",
    )
    p.add_argument(
        "--trace-jsonl", metavar="OUT.jsonl", default=None,
        help="write the JSONL span/decision event log of the run",
    )


def _add_metrics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics", metavar="OUT.prom", default=None,
        help="write the run's metric registry as Prometheus text exposition",
    )
    p.add_argument(
        "--metrics-jsonl", metavar="OUT.jsonl", default=None,
        help="write the run's metric registry as a JSONL dump",
    )
    p.add_argument(
        "--flame", metavar="OUT.txt", default=None,
        help="write a collapsed-stack flamegraph of the run's trace and "
             "print its critical path (implies tracing)",
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
        "--profile", action="store_true",
        help="print the per-stage timing table after the run",
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
    _add_trace_flags(p)
    _add_metrics_flags(p)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser(
        "explain",
        help="trace one document and print its decision report",
    )
    _dataset_arg(p)
    p.add_argument("--doc", type=int, default=0, help="document index in the corpus")
    p.add_argument("--seed", type=int, default=0)
    _add_trace_flags(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", choices=["2", "5", "6", "7", "8", "9"])
    p.add_argument("--n-d1", type=int, default=24)
    p.add_argument("--n-d2", type=int, default=16)
    p.add_argument("--n-d3", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--profile", action="store_true",
        help="print the context's per-stage timing table after the table",
    )
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
    p.add_argument("--batch-window", type=float, default=0.05,
                   help="seconds the dispatcher waits for a micro-batch to fill")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="attempts per request across batch retries")
    p.add_argument("--faults", metavar="SPEC_OR_JSON", default=None,
                   help="deterministic fault plan (sites serve.admit / "
                        "serve.batch plus the pipeline sites; docs/RESILIENCE.md)")
    p.add_argument("--checkpoint", metavar="OUT.json", default=None,
                   help="write the final accounting snapshot here on drain")
    _add_trace_flags(p)
    _add_metrics_flags(p)
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
    p.add_argument("--rules", nargs="*", metavar="RULE",
                   help="restrict the run to these rule IDs")
    p.add_argument("--baseline", default="lint_baseline.json",
                   help="JSON baseline of accepted legacy violations")
    p.add_argument("--write-baseline", action="store_true",
                   help="record current violations as the new baseline and exit")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue (module rules + passes) and exit")
    p.add_argument("--explain", metavar="RULEID",
                   help="print one rule's documentation, example and fix, then exit")
    p.add_argument("--cache", metavar="PATH", default=None,
                   help="content-hash result cache file (off unless given)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache (force a cold run)")
    p.add_argument("--graph", choices=["dot", "json"],
                   help="dump the import/call graph instead of findings")
    p.add_argument("--rekey", action="append", metavar="OLD=NEW",
                   help="rewrite baseline fingerprints after a file rename "
                        "(repeatable), then exit")
    p.add_argument("--stats", action="store_true",
                   help="print file/parse/cache counters to stderr")
    p.add_argument("--timings", action="store_true",
                   help="print per-stage and per-pass wall time to stderr")
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
