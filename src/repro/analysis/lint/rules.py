"""The rule catalogue: determinism, layering, frame hygiene, hazards.

Every rule encodes an invariant this reproduction depends on — see
``docs/STATIC_ANALYSIS.md`` for the prose version of each.  Layer
rules deliberately look at *module-scope* imports only: a function-
local import is the sanctioned escape hatch for call-time dependencies
(e.g. ``run_corpus`` lazily importing the parallel runner), because
the invariant being protected is the import graph at module load, not
the call graph.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import ALL_RULES, ModuleInfo, Rule, Violation, register

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

#: Layers whose outputs must be bit-identical run to run (the
#: determinism regression test depends on it).
DETERMINISTIC_LAYERS = ("repro.core", "repro.geometry", "repro.mining", "repro.nlp")


def _in_layer(module: Optional[str], prefixes: Sequence[str]) -> bool:
    if module is None:
        return False
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _is_type_checking(test: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` (optionally ``typing.TYPE_CHECKING``)."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_scope_imports(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.stmt, str, Optional[List[str]]]]:
    """Yield ``(node, imported_module, from_names)`` for every import
    executed at module load — including inside module-level ``if``/
    ``try`` — but excluding ``if TYPE_CHECKING:`` blocks, which never
    execute, and function bodies, which are the lazy-import escape
    hatch."""

    def walk(body: Sequence[ast.stmt]) -> Iterator[Tuple[ast.stmt, str, Optional[List[str]]]]:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name, None
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    yield node, node.module, [a.name for a in node.names]
            elif isinstance(node, ast.If):
                if not _is_type_checking(node.test):
                    yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                yield from walk(node.body)
                yield from walk(node.orelse)
                yield from walk(node.finalbody)
                for handler in node.handlers:
                    yield from walk(handler.body)

    yield from walk(module.tree.body)


def _imports_package(imported: str, package: str) -> bool:
    return imported == package or imported.startswith(package + ".")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

#: numpy.random attributes that are *seeded-generator* constructors,
#: not draws from the hidden legacy global state.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937"}
#: random-module attributes that construct an instance rather than
#: drawing from the hidden module-level RNG.
_STDLIB_RANDOM_OK = {"Random", "SystemRandom"}


@register
class GlobalRngRule(Rule):
    """DET001 — draws from hidden global RNG state.

    ``random.random()`` / ``np.random.rand()`` pull from interpreter-
    global state seeded from the OS, so two runs (or two import orders)
    disagree.  Every stochastic component here threads an explicit
    ``np.random.default_rng(seed)`` instead.  Zero-argument
    ``default_rng()`` / ``random.Random()`` are flagged too: they seed
    from OS entropy.
    """

    rule_id = "DET001"
    summary = "no draws from global/unseeded RNG state"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name is None:
                continue
            unseeded = not node.args and not node.keywords
            if name.startswith("random.") and name.count(".") == 1:
                attr = name.split(".", 1)[1]
                if attr not in _STDLIB_RANDOM_OK:
                    yield module.violation(
                        node, self.rule_id,
                        f"call to random.{attr}() draws from the global RNG; "
                        "thread a seeded np.random.default_rng(seed) (or random.Random(seed)) instead",
                    )
                elif attr == "Random" and unseeded:
                    yield module.violation(
                        node, self.rule_id,
                        "random.Random() with no seed draws its state from OS entropy; pass an explicit seed",
                    )
            elif name.startswith("numpy.random."):
                attr = name.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_OK:
                    yield module.violation(
                        node, self.rule_id,
                        f"call to np.random.{attr}() uses numpy's legacy global RNG; "
                        "use a seeded np.random.default_rng(seed) generator instead",
                    )
                elif attr == "default_rng" and unseeded:
                    yield module.violation(
                        node, self.rule_id,
                        "default_rng() with no seed draws its state from OS entropy; pass an explicit seed",
                    )


#: Wall-clock / entropy calls that make a "deterministic" layer's
#: output depend on when or where it ran.  ``time.perf_counter`` /
#: ``time.monotonic`` / ``time.process_time`` stay legal — timing how
#: long work took does not change what the work produced.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}


@register
class WallClockRule(Rule):
    """DET002 — wall clock / OS entropy inside deterministic layers.

    ``repro.core`` / ``repro.geometry`` / ``repro.mining`` /
    ``repro.nlp`` promise byte-identical output given identical inputs
    (the serial-vs-parallel determinism test enforces this end to end).
    """

    rule_id = "DET002"
    summary = "no wall clock or OS entropy in deterministic layers"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, DETERMINISTIC_LAYERS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK or name.startswith("secrets."):
                yield module.violation(
                    node, self.rule_id,
                    f"{name}() makes this deterministic layer's output depend on run time/entropy; "
                    "pass the value in from the caller (perf_counter/monotonic are fine for timing)",
                )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class SetIterationRule(Rule):
    """DET003 — iterating a set where order can reach the output.

    Set iteration order varies with insertion history and hash
    randomisation, so any sequence built from it is nondeterministic.
    ``sorted(set(...))`` is the fix (and is not flagged); building
    another set from a set is harmless and also not flagged.
    """

    rule_id = "DET003"
    summary = "no ordered iteration over bare sets"

    _MESSAGE = (
        "iteration order over a set is nondeterministic; "
        "iterate sorted(...) when order can reach any output"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expression(node.iter):
                yield module.violation(node.iter, self.rule_id, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expression(gen.iter):
                        yield module.violation(gen.iter, self.rule_id, self._MESSAGE)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"list", "tuple", "enumerate"} and node.args:
                    if _is_set_expression(node.args[0]):
                        yield module.violation(node.args[0], self.rule_id, self._MESSAGE)


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------


@register
class CoreLayerRule(Rule):
    """LAYER001 — ``repro.core`` imports only downward.

    The pipeline must be loadable (and testable) without the
    experiment harness, the perf tooling or the corpus generators;
    shared pieces live below core (``repro.instrument``,
    ``repro.ocr.cache``, ``repro.datasets``).  Function-local lazy
    imports remain legal for call-time dispatch.
    """

    rule_id = "LAYER001"
    summary = "repro.core must not import perf/harness/synth/baselines"

    _FORBIDDEN = ("repro.perf", "repro.harness", "repro.synth", "repro.baselines")

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, ["repro.core"]):
            return
        for node, imported, _names in _module_scope_imports(module):
            for forbidden in self._FORBIDDEN:
                if _imports_package(imported, forbidden):
                    yield module.violation(
                        node, self.rule_id,
                        f"repro.core must not import {forbidden} at module scope; "
                        "move the shared piece below core or import lazily inside the function that needs it",
                    )
                    break


@register
class GeometryLayerRule(Rule):
    """LAYER002 — ``repro.geometry`` is the base of the tower.

    Geometry imports nothing from ``repro`` but itself, so every other
    layer can depend on it without cycles.
    """

    rule_id = "LAYER002"
    summary = "repro.geometry imports nothing from repro but itself"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, ["repro.geometry"]):
            return
        for node, imported, _names in _module_scope_imports(module):
            if _imports_package(imported, "repro") and not _imports_package(
                imported, "repro.geometry"
            ):
                yield module.violation(
                    node, self.rule_id,
                    f"repro.geometry is the base layer and must not import {imported}",
                )


@register
class BaselineLayerRule(Rule):
    """LAYER003 — baselines never import the VS2 machinery.

    Comparing against a baseline that secretly calls the system under
    test proves nothing, so baselines may share only the task surface
    (result types, pattern mining, the holdout corpus) — never the
    segmentation/selection algorithms.
    """

    rule_id = "LAYER003"
    summary = "baselines must not import VS2 algorithm internals"

    #: The shared task surface: result/record types, mined patterns,
    #: the holdout container, descriptor-span lookup, configuration.
    _ALLOWED_CORE = {"select", "patterns", "holdout", "formfields", "records", "config"}
    #: VS2 entry points re-exported by the ``repro.core`` package.
    _FORBIDDEN_NAMES = {"VS2Segmenter", "VS2Selector", "VS2Pipeline"}

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, ["repro.baselines"]):
            return
        for node, imported, names in _module_scope_imports(module):
            if imported == "repro.core" and names:
                for name in sorted(self._FORBIDDEN_NAMES.intersection(names)):
                    yield module.violation(
                        node, self.rule_id,
                        f"baselines must not use {name}: a baseline that calls the "
                        "system under test proves nothing",
                    )
            elif imported.startswith("repro.core."):
                sub = imported.split(".")[2]
                if sub not in self._ALLOWED_CORE:
                    yield module.violation(
                        node, self.rule_id,
                        f"baselines may share only the task surface of repro.core "
                        f"({', '.join(sorted(self._ALLOWED_CORE))}), not {imported}",
                    )


# ----------------------------------------------------------------------
# Coordinate-frame hygiene
# ----------------------------------------------------------------------


def _attribute_bases(node: ast.AST, attr: str) -> Set[str]:
    """Dumps of the base expressions of every ``<base>.<attr>`` access
    in the subtree — equality of dumps means "same expression"."""
    bases: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == attr:
            bases.add(ast.dump(sub.value))
    return bases


@register
class BboxArithmeticRule(Rule):
    """FRAME001 — raw ``.x + .w`` / ``.y + .h`` arithmetic outside geometry.

    Hand-rolled edge/midpoint arithmetic is where observed-frame and
    original-frame coordinates get silently mixed (the deskew bugs of
    ``docs/ARCHITECTURE.md``).  ``BBox`` already exposes the derived
    quantities — ``.x2``/``.y2``, ``.centroid``, ``.expand``,
    ``.translate``, ``.hsplit`` — and new ones belong next to them in
    ``repro.geometry``.
    """

    rule_id = "FRAME001"
    summary = "no raw x+w / y+h bbox arithmetic outside repro.geometry"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if _in_layer(module.module, ["repro.geometry"]):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            for low, extent in (("x", "w"), ("y", "h")):
                same_base = (
                    _attribute_bases(node.left, low) & _attribute_bases(node.right, extent)
                ) or (
                    _attribute_bases(node.left, extent) & _attribute_bases(node.right, low)
                )
                if same_base:
                    yield module.violation(
                        node, self.rule_id,
                        f"raw .{low} + .{extent} arithmetic re-derives bbox geometry in place; "
                        "use the BBox helpers (.x2/.y2, .centroid, .expand, .hsplit) or add one in repro.geometry",
                    )
                    break


@register
class BboxConstructionRule(Rule):
    """FRAME002 — ``BBox`` is rebuilt from sequences only via factories.

    ``BBox(*values)`` hard-codes the ``(x, y, w, h)`` field order at
    every call site; ``BBox.from_tuple`` / ``BBox.from_corners`` keep
    the serialised layout in one place.
    """

    rule_id = "FRAME002"
    summary = "construct BBox from sequences via from_tuple/from_corners"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if _in_layer(module.module, ["repro.geometry"]):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name is None or not (name == "BBox" or name.endswith(".BBox")):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                yield module.violation(
                    node, self.rule_id,
                    "BBox(*seq) hard-codes the field order; use BBox.from_tuple(seq)",
                )
            elif len(node.args) == 4 and all(
                isinstance(a, ast.Subscript) for a in node.args
            ):
                bases = {ast.dump(a.value) for a in node.args}
                if len(bases) == 1:
                    yield module.violation(
                        node, self.rule_id,
                        "element-wise BBox(seq[0], seq[1], ...) re-derives the field order; "
                        "use BBox.from_tuple(seq)",
                    )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

#: Monotonic-clock reads that constitute hand-rolled timing.  DET002
#: deliberately allows these in deterministic layers (timing does not
#: change outputs); OBS001 narrows further *inside the pipeline*:
#: ``repro.core`` must report time through ``PipelineMetrics.stage`` /
#: ``Tracer.span`` so every measurement lands in the shared tables,
#: histograms and traces instead of a print statement.
_AD_HOC_TIMING = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}


@register
class AdHocTimingRule(Rule):
    """OBS001 — hand-rolled timing inside ``repro.core``.

    A bare ``time.perf_counter()`` pair measures one site and reports
    nowhere: the measurement is invisible to every view ``--observe``
    writes (the ``profile.txt`` stage table, latency histograms, metric
    exports and traces), and drifts from the stage vocabulary.  Core code must time through the shared
    instrumentation (``metrics.stage(...)`` context managers or
    ``tracer.span(...)``), which records into all of them at once.
    """

    rule_id = "OBS001"
    summary = "repro.core must time via metrics/tracer, not perf_counter"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, ["repro.core"]):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name in _AD_HOC_TIMING:
                yield module.violation(
                    node, self.rule_id,
                    f"{name}() is ad-hoc timing invisible to the shared instrumentation; "
                    "wrap the work in metrics.stage(...) or tracer.span(...) instead",
                )


# ----------------------------------------------------------------------
# General hazards
# ----------------------------------------------------------------------


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}
    )


@register
class MutableDefaultRule(Rule):
    """MUT001 — mutable default arguments.

    A mutable default is evaluated once and shared across calls —
    state leaks between documents and between test cases.  Default to
    ``None`` and materialise inside the function.
    """

    rule_id = "MUT001"
    summary = "no mutable default arguments"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield module.violation(
                        default, self.rule_id,
                        "mutable default argument is shared across calls; default to None "
                        "and build the value inside the function",
                    )


@register
class BareNoqaRule(Rule):
    """SUPP001 — bare (unscoped) noqa suppressions.

    A noqa with no rule list silences every current *and future* rule
    on its line, so a genuine new finding there would never surface.
    Name the rules being waived — ``noqa: DET001,MUT001`` or the
    historical ``repro: noqa[DET001]`` — so each suppression stays an
    auditable, single-purpose decision.  A bare noqa still blanket-
    suppresses (changing that silently would un-suppress legacy lines)
    but is reported by this rule until it is scoped.
    """

    rule_id = "SUPP001"
    summary = "no bare noqa; list the rule IDs being suppressed"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for line in sorted(module.noqa):
            if module.noqa[line].blanket:
                yield Violation(
                    path=module.display_path,
                    line=line,
                    col=1,
                    rule=self.rule_id,
                    message=(
                        "bare noqa suppresses every current and future rule on this line; "
                        "list the rule IDs instead (e.g. noqa: DET001,MUT001)"
                    ),
                )


@register
class SwallowedExceptionRule(Rule):
    """EXC001 — ``except Exception: pass`` hides failures.

    A blanket handler whose whole body is ``pass`` turns broken
    invariants into silently wrong numbers — the worst failure mode a
    reproduction can have.  Narrow the exception or handle it visibly.
    """

    rule_id = "EXC001"
    summary = "no silently swallowed blanket exceptions"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if len(node.body) != 1 or not isinstance(node.body[0], ast.Pass):
                continue
            if node.type is None:
                broad = True
            elif isinstance(node.type, ast.Name):
                broad = node.type.id in {"Exception", "BaseException"}
            elif isinstance(node.type, ast.Tuple):
                broad = any(
                    isinstance(e, ast.Name) and e.id in {"Exception", "BaseException"}
                    for e in node.type.elts
                )
            else:
                broad = False
            if broad:
                yield module.violation(
                    node, self.rule_id,
                    "blanket except with a bare pass swallows real failures; "
                    "narrow the exception type or record the failure",
                )


# ----------------------------------------------------------------------
# Resilience
# ----------------------------------------------------------------------

#: Layers whose waiting must go through the injectable budget clock
#: (:mod:`repro.resilience.budget`) so retry schedules stay virtual and
#: deterministic.
_BUDGETED_LAYERS = ("repro.core", "repro.resilience")
#: The one sanctioned home of a real ``time.sleep``.
_BUDGET_MODULE = "repro.resilience.budget"
#: Layers whose broad ``except`` handlers must convert failures into
#: recorded outcomes rather than swallowing them.
_ISOLATED_LAYERS = ("repro.core", "repro.resilience", "repro.perf")

_SLEEP_CALLS = {"time.sleep", "asyncio.sleep"}


@register
class BareSleepRule(Rule):
    """RES001 — wall-clock sleeping inside the pipeline/resilience layers.

    A bare ``time.sleep`` makes retry backoff depend on the wall clock:
    tests slow to real time, the chaos suite stops being instant, and
    the waited amount never reaches the supervision report.  Waiting in
    ``repro.core`` / ``repro.resilience`` must be *virtual* — compute
    it with :func:`repro.resilience.budget.backoff_seconds` and record
    it on the decision (the supervised runner stores it on the retry's
    ``SupervisionEvent``, and the report sums them).
    ``repro.resilience.budget`` itself is the one sanctioned home of a
    real sleep (``block_forever``, which exists so injected hangs
    really hang inside supervised workers).
    """

    rule_id = "RES001"
    summary = "no bare time.sleep in core/resilience; record virtual backoff"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, _BUDGETED_LAYERS):
            return
        if module.module == _BUDGET_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name in _SLEEP_CALLS:
                yield module.violation(
                    node, self.rule_id,
                    f"{name}() blocks on the wall clock; record the wait as virtual "
                    "seconds (repro.resilience.budget.backoff_seconds) instead",
                )


def _broad_handler(node: ast.ExceptHandler) -> bool:
    """Bare ``except:``, ``except Exception``/``BaseException``, or a
    tuple containing either."""
    if node.type is None:
        return True
    if isinstance(node.type, ast.Name):
        return node.type.id in {"Exception", "BaseException"}
    if isinstance(node.type, ast.Tuple):
        return any(
            isinstance(e, ast.Name) and e.id in {"Exception", "BaseException"}
            for e in node.type.elts
        )
    return False


def _handler_outcomes(node: ast.ExceptHandler) -> Tuple[bool, bool]:
    """Whether the handler body re-raises and/or constructs a
    ``DocumentFailure`` anywhere."""
    raises = False
    records = False
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise):
                raises = True
            elif isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name == "DocumentFailure":
                    records = True
    return raises, records


@register
class IsolationSiteRule(Rule):
    """RES002 — broad ``except`` only at registered isolation sites.

    Error isolation is a *feature* with exactly two legitimate shapes:
    convert the failure into a recorded outcome (a ``DocumentFailure``,
    a degradation) or re-raise it.  A broad handler that does neither
    silently swallows faults the supervised runner is supposed to
    retry, quarantine and explain.  Functions whose whole job is
    conversion are registered in
    :data:`repro.resilience.faults.ISOLATION_SITES`; everywhere else in
    the pipeline/perf/resilience layers a broad handler must re-raise
    (conditionally is fine) or construct a ``DocumentFailure``.
    """

    rule_id = "RES002"
    summary = "broad except must re-raise, record a DocumentFailure, or be a registered isolation site"

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        if not _in_layer(module.module, _ISOLATED_LAYERS):
            return
        from repro.resilience.faults import ISOLATION_SITES

        def visit(node: ast.AST, stack: Tuple[str, ...]) -> Iterator[Violation]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack = stack + (node.name,)
            if isinstance(node, ast.ExceptHandler) and _broad_handler(node):
                qualname = ".".join((module.module or "", *stack)).strip(".")
                if qualname not in ISOLATION_SITES:
                    raises, records = _handler_outcomes(node)
                    if not raises and not records:
                        yield module.violation(
                            node, self.rule_id,
                            "broad except outside a registered isolation site must "
                            "re-raise or construct a DocumentFailure; register the "
                            "function in repro.resilience.faults.ISOLATION_SITES if "
                            "conversion is its whole job",
                        )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, stack)

        yield from visit(module.tree, ())


# ----------------------------------------------------------------------
# Explain metadata
# ----------------------------------------------------------------------

#: rule_id -> (example violation, fix).  Attached to the registered
#: instances below so ``repro check --explain RULE`` renders docstring,
#: example and fix from one source of truth (no drift with the docs).
_RULE_EXAMPLES: Dict[str, Tuple[str, str]] = {
    "DET001": (
        "import random\njitter = random.random()",
        "rng = np.random.default_rng(seed)\njitter = rng.random()",
    ),
    "DET002": (
        "# in repro/core/…\nstamp = time.time()",
        "pass the timestamp in from the caller; use time.perf_counter()\n"
        "only for timing (it never reaches the output)",
    ),
    "DET003": (
        "for name in {'a', 'b', 'c'}:\n    emit(name)",
        "for name in sorted({'a', 'b', 'c'}):\n    emit(name)",
    ),
    "LAYER001": (
        "# in repro/core/…\nfrom repro.harness import ExperimentContext",
        "move the shared piece below core (repro.instrument, repro.datasets, …)\n"
        "or import lazily inside the function that needs it",
    ),
    "LAYER002": (
        "# in repro/geometry/…\nfrom repro.doc import Document",
        "geometry is the base layer: accept plain floats/boxes instead of\n"
        "importing upward",
    ),
    "LAYER003": (
        "# in repro/baselines/…\nfrom repro.core.segment import VS2Segmenter",
        "share only the task surface (repro.core.select result types,\n"
        "patterns, holdout, formfields, records, config)",
    ),
    "FRAME001": (
        "right_edge = block.x + block.w",
        "right_edge = block.x2   # or .centroid/.expand/.hsplit",
    ),
    "FRAME002": (
        "box = BBox(*row)",
        "box = BBox.from_tuple(row)",
    ),
    "OBS001": (
        "# in repro/core/…\nt0 = time.perf_counter()\nwork()\ndt = time.perf_counter() - t0",
        "with metrics.stage('segment'):\n    work()",
    ),
    "MUT001": (
        "def collect(out=[]):\n    out.append(1)",
        "def collect(out=None):\n    out = [] if out is None else out",
    ),
    "EXC001": (
        "try:\n    risky()\nexcept Exception:\n    pass",
        "except ValueError:\n    handle_or_record()",
    ),
    "SUPP001": (
        "value = random.random()  # repro: " + "noqa",
        "value = random.random()  # repro: noqa[DET001]",
    ),
    "RES001": (
        "# in repro/core/…\ntime.sleep(2 ** attempt)",
        "backoff = backoff_seconds(attempt, base_s, cap_s)\n"
        "events.append(SupervisionEvent(\"retry\", ..., backoff_s=backoff))",
    ),
    "RES002": (
        "# in repro/core/…\ntry:\n    run(doc)\nexcept Exception:\n    return None",
        "except Exception as exc:\n    if isinstance(exc, TransientFault):\n"
        "        raise\n    failures.append(DocumentFailure(...))",
    ),
}

for _rule_id, (_example, _fix) in _RULE_EXAMPLES.items():
    ALL_RULES[_rule_id].example = _example
    ALL_RULES[_rule_id].fix = _fix
