"""The whole-program index behind ``repro check``.

The per-file linter of :mod:`repro.analysis.lint` sees one module at a
time, which is exactly the scope a function-local import escapes: a
helper two calls away can draw from the wall clock or mix coordinate
frames without any single file looking wrong.  This module builds the
**ProjectIndex** the interprocedural passes run on:

* a **module table** — one :class:`ModuleSummary` per parsed file:
  top-level symbols, ``__all__``, every import (module-scope *and*
  function-local, each tagged with its scope), emitted trace-event
  names, pragmas and noqa marks;
* an **import graph** — :meth:`ProjectIndex.importers_of` answers
  "who imports module M or any name from it", the liveness question
  behind dead-shim detection;
* an **approximate call graph** over ``repro.*`` —
  :meth:`ProjectIndex.resolve_call` maps the alias-expanded call names
  recorded per function to defined functions, following ``from X
  import Y`` re-export chains; ``self.``/``cls.`` calls resolve within
  the enclosing class.  Calls on arbitrary objects stay unresolved
  (the graph under-approximates, by design: a missing edge can hide a
  finding, a fabricated edge would invent one).

Summaries are plain data (``to_dict``/``from_dict`` round-trip) so the
content-hash cache (:mod:`repro.analysis.cache`) can persist them and
a warm run can rebuild the index without re-parsing a single file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import (
    FlowSummary,
    Resolver,
    _is_constructor_name,
    compute_flow,
    local_constructor_types,
    module_conc_events,
)
from repro.analysis.lint.engine import ModuleInfo, NoqaMark

# ----------------------------------------------------------------------
# Impurity sinks (the determinism pass's seed set)
# ----------------------------------------------------------------------

#: numpy.random attributes that construct seeded generators rather than
#: drawing from hidden global state (mirrors the DET001 rule).
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "SFC64", "MT19937",
}
_STDLIB_RANDOM_OK = {"Random", "SystemRandom"}

#: Wall-clock / entropy calls (the DET002 seed set).  Monotonic and
#: process clocks stay out: timing work never changes what it produced.
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

#: Environment reads: ambient process state a "deterministic" function
#: must not consult.
_ENV_CALLS = {"os.getenv", "os.environ.get", "os.environ.setdefault"}


def _call_sink(name: str, unseeded: bool) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when the resolved call name is an impure sink."""
    if name.startswith("random.") and name.count(".") == 1:
        attr = name.split(".", 1)[1]
        if attr not in _STDLIB_RANDOM_OK:
            return ("rng", name)
        if attr == "Random" and unseeded:
            return ("rng", name + " (unseeded)")
    elif name.startswith("numpy.random."):
        attr = name.rsplit(".", 1)[1]
        if attr not in _NP_RANDOM_OK:
            return ("rng", name)
        if attr == "default_rng" and unseeded:
            return ("rng", name + " (unseeded)")
    if name in _WALL_CLOCK or name.startswith("secrets."):
        return ("clock", name)
    if name in _ENV_CALLS:
        return ("env", name)
    return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """One function or method, as the passes see it.

    ``calls`` hold alias-expanded dotted names (``repro.ocr.cache.
    transcribe_and_clean``, ``merge_pass``, ``VS2Segmenter._split``)
    still to be resolved against the index; nested ``def``s fold into
    their enclosing named function.
    """

    qualname: str
    line: int
    calls: List[Tuple[str, int]] = field(default_factory=list)
    sinks: List[Tuple[str, str, int]] = field(default_factory=list)
    det_reviewed: bool = False
    #: (consumed frame, produced frame) from a ``frame:`` pragma.
    frame: Optional[Tuple[str, str]] = None
    #: parameter names, in order (frame pass call-site checking).
    params: List[str] = field(default_factory=list)
    #: call edges only the flow layer's type sharpening can see
    #: (``x = Ctor(); x.meth()``, ``self.attr.meth()``) — kept separate
    #: from ``calls`` so the PR 4 passes are byte-for-byte unchanged.
    typed_calls: List[Tuple[str, int]] = field(default_factory=list)
    #: CFG-derived facts (``None`` when every fact list is empty).
    flow: Optional[FlowSummary] = None
    #: ``conc: ambient`` pragma — module-state writes are sanctioned.
    conc_ambient: bool = False
    #: ``exc: boundary`` pragma — reviewed fault boundary.
    exc_boundary: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "calls": [list(c) for c in self.calls],
            "sinks": [list(s) for s in self.sinks],
            "det_reviewed": self.det_reviewed,
            "frame": list(self.frame) if self.frame else None,
            "params": list(self.params),
            "typed_calls": [list(c) for c in self.typed_calls],
            "flow": self.flow.to_dict() if self.flow is not None else None,
            "conc_ambient": self.conc_ambient,
            "exc_boundary": self.exc_boundary,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FunctionSummary":
        flow_data = data.get("flow")
        return FunctionSummary(
            qualname=str(data["qualname"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            calls=[(str(n), int(ln)) for n, ln in data["calls"]],  # type: ignore[union-attr]
            sinks=[(str(k), str(d), int(ln)) for k, d, ln in data["sinks"]],  # type: ignore[union-attr]
            det_reviewed=bool(data["det_reviewed"]),
            frame=tuple(data["frame"]) if data["frame"] else None,  # type: ignore[arg-type]
            params=[str(p) for p in data["params"]],  # type: ignore[union-attr]
            typed_calls=[
                (str(n), int(ln)) for n, ln in data.get("typed_calls", [])  # type: ignore[union-attr]
            ],
            flow=FlowSummary.from_dict(flow_data) if flow_data else None,  # type: ignore[arg-type]
            conc_ambient=bool(data.get("conc_ambient", False)),
            exc_boundary=bool(data.get("exc_boundary", False)),
        )


@dataclass
class ImportRecord:
    """One import statement, tagged with where it executes.

    ``scope`` is ``"module"`` for load-time imports (including inside
    module-level ``if``/``try`` and ``TYPE_CHECKING`` blocks) or the
    qualname of the enclosing function for the lazy-import escape
    hatch.  ``module`` is absolute (relative imports are resolved
    against the owning module's package).
    """

    module: str
    #: ``None`` for ``import M``; imported names for ``from M import …``
    #: (original names, not asnames; ``*`` appears literally).
    names: Optional[List[str]]
    line: int
    scope: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "names": self.names,
            "line": self.line,
            "scope": self.scope,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ImportRecord":
        return ImportRecord(
            module=str(data["module"]),
            names=list(data["names"]) if data["names"] is not None else None,  # type: ignore[arg-type]
            line=int(data["line"]),  # type: ignore[arg-type]
            scope=str(data["scope"]),
        )


@dataclass
class ModuleSummary:
    """Everything the interprocedural passes need from one file."""

    display_path: str
    module: Optional[str]
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    imports: List[ImportRecord] = field(default_factory=list)
    defined_names: Set[str] = field(default_factory=set)
    all_names: Optional[List[str]] = None
    reexport_only: bool = False
    has_getattr: bool = False
    #: ``tracer.event("…")`` literal names emitted by this module.
    events: List[Tuple[str, int]] = field(default_factory=list)
    #: contents of a module-scope ``EVENT_NAMES = frozenset({…})``.
    event_registry: Optional[Tuple[List[str], int]] = None
    #: ``.counter("…")`` / ``.gauge("…")`` / ``.histogram("…")`` literal
    #: metric names emitted by this module.
    metrics: List[Tuple[str, int]] = field(default_factory=list)
    #: keys of a module-scope ``METRIC_NAMES = {…}`` dict literal.
    metric_registry: Optional[Tuple[List[str], int]] = None
    noqa: Dict[int, NoqaMark] = field(default_factory=dict)
    module_frame: Optional[str] = None
    #: True when the frame pass needs this file's AST (it carries
    #: function-level or assignment-level frame pragmas).
    has_frame_pragmas: bool = False
    #: thread/pool/call ordering events in import-time code.
    module_conc_events: List[Tuple[int, str, str]] = field(default_factory=list)
    #: full-line ``# conc: ambient`` — whole module is sanctioned state.
    conc_ambient: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "display_path": self.display_path,
            "module": self.module,
            "functions": {k: f.to_dict() for k, f in self.functions.items()},
            "classes": {k: list(v) for k, v in self.classes.items()},
            "imports": [r.to_dict() for r in self.imports],
            "defined_names": sorted(self.defined_names),
            "all_names": self.all_names,
            "reexport_only": self.reexport_only,
            "has_getattr": self.has_getattr,
            "events": [list(e) for e in self.events],
            "event_registry": (
                [self.event_registry[0], self.event_registry[1]]
                if self.event_registry
                else None
            ),
            "metrics": [list(e) for e in self.metrics],
            "metric_registry": (
                [self.metric_registry[0], self.metric_registry[1]]
                if self.metric_registry
                else None
            ),
            "noqa": {str(line): mark.to_dict() for line, mark in self.noqa.items()},
            "module_frame": self.module_frame,
            "has_frame_pragmas": self.has_frame_pragmas,
            "module_conc_events": [list(e) for e in self.module_conc_events],
            "conc_ambient": self.conc_ambient,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ModuleSummary":
        registry = data["event_registry"]
        metric_registry = data.get("metric_registry")
        return ModuleSummary(
            display_path=str(data["display_path"]),
            module=data["module"],  # type: ignore[arg-type]
            functions={
                k: FunctionSummary.from_dict(v)
                for k, v in data["functions"].items()  # type: ignore[union-attr]
            },
            classes={k: list(v) for k, v in data["classes"].items()},  # type: ignore[union-attr]
            imports=[ImportRecord.from_dict(r) for r in data["imports"]],  # type: ignore[union-attr]
            defined_names=set(data["defined_names"]),  # type: ignore[arg-type]
            all_names=list(data["all_names"]) if data["all_names"] is not None else None,  # type: ignore[arg-type]
            reexport_only=bool(data["reexport_only"]),
            has_getattr=bool(data["has_getattr"]),
            events=[(str(n), int(ln)) for n, ln in data["events"]],  # type: ignore[union-attr]
            event_registry=(
                ([str(n) for n in registry[0]], int(registry[1]))  # type: ignore[index]
                if registry
                else None
            ),
            metrics=[
                (str(n), int(ln)) for n, ln in data.get("metrics", [])  # type: ignore[union-attr]
            ],
            metric_registry=(
                ([str(n) for n in metric_registry[0]], int(metric_registry[1]))  # type: ignore[index]
                if metric_registry
                else None
            ),
            noqa={
                int(line): NoqaMark.from_dict(mark)
                for line, mark in data["noqa"].items()  # type: ignore[union-attr]
            },
            module_frame=data["module_frame"],  # type: ignore[arg-type]
            has_frame_pragmas=bool(data["has_frame_pragmas"]),
            module_conc_events=[
                (int(ln), str(k), str(d))
                for ln, k, d in data.get("module_conc_events", [])  # type: ignore[union-attr]
            ],
            conc_ambient=bool(data.get("conc_ambient", False)),
        )

    def suppressed(self, line: int, rule_id: str) -> bool:
        mark = self.noqa.get(line)
        return mark is not None and mark.suppresses(rule_id)


# ----------------------------------------------------------------------
# Building a summary from a parsed module
# ----------------------------------------------------------------------


def _resolve_relative(module: Optional[str], is_package: bool, level: int, target: Optional[str]) -> Optional[str]:
    """Absolute module for a ``from .x import y`` (level >= 1) import."""
    if module is None:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        return ".".join(base + [target]) if base else target
    return ".".join(base) or None


class _FunctionWalker(ast.NodeVisitor):
    """Collects calls, sinks and local imports for one function body."""

    def __init__(self, info: "ModuleInfo", summary: FunctionSummary, aliases: Dict[str, str], class_name: Optional[str]):
        self.info = info
        self.summary = summary
        self.aliases = aliases
        self.class_name = class_name

    def _resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in ("self", "cls") and self.class_name:
            # self.meth(...) -> ClassName.meth, resolvable in-module.
            if len(parts) == 1:
                return f"{self.class_name}.{parts[0]}"
            return None
        expanded = self.aliases.get(root, root)
        parts.append(expanded)
        return ".".join(reversed(parts))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module
        if node.level:
            base = _resolve_relative(
                self.info.module, self.info.path.name == "__init__.py", node.level, node.module
            )
        if base:
            for alias in node.names:
                if alias.name != "*":
                    self.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    def visit_Call(self, node: ast.Call) -> None:
        name = self._resolve(node.func)
        line = node.lineno
        if name is not None:
            self.summary.calls.append((name, line))
            unseeded = not node.args and not node.keywords
            sink = _call_sink(name, unseeded)
            if sink:
                self.summary.sinks.append((sink[0], sink[1], line))
        if isinstance(node.func, ast.Attribute) and node.func.attr == "popitem":
            self.summary.sinks.append(
                ("popitem", "dict.popitem() pops in hash order", line)
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # os.environ["X"] reads ambient process state.
        target = self._resolve(node.value)
        if target == "os.environ":
            self.summary.sinks.append(("env", "os.environ[...]", node.lineno))
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expression(iter_node):
            self.summary.sinks.append(
                ("set-iter", "iteration over an unordered set", iter_node.lineno)
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension_gens(self, node) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_gens(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_gens(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_gens(node)
        self.generic_visit(node)


def _literal_strings(node: ast.AST) -> Optional[List[str]]:
    """Strings of a ``{"a", "b"}`` / ``frozenset({"a"})`` literal."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("frozenset", "set") and len(node.args) == 1:
            return _literal_strings(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        out = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None


def _literal_dict_keys(node: ast.AST) -> Optional[List[str]]:
    """String keys of a ``{"a": …, "b": …}`` dict literal."""
    if not isinstance(node, ast.Dict):
        return None
    out = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append(key.value)
        else:
            return None
    return out


def _class_attr_types(node: ast.ClassDef, resolver: Resolver) -> Dict[str, str]:
    """``attr -> constructed class`` for ``self.attr = Ctor(...)``
    assignments that agree across the whole class body (a conflicting
    assignment drops the attribute — sharpening must never guess)."""
    out: Dict[str, Optional[str]] = {}
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
            continue
        target = sub.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        ctor: Optional[str] = None
        if isinstance(sub.value, ast.Call):
            resolved = resolver.resolve(sub.value.func)
            if resolved and _is_constructor_name(resolved):
                ctor = resolved
        if target.attr not in out:
            out[target.attr] = ctor
        elif out[target.attr] != ctor:
            out[target.attr] = None
    return {attr: ctor for attr, ctor in out.items() if ctor}


def summarize_module(info: ModuleInfo) -> ModuleSummary:
    """Distill a parsed :class:`ModuleInfo` into its plain-data summary.

    Two phases: the body walk collects symbols, imports and the set of
    module-level names first; function bodies are then summarised
    against that *complete* table, because the flow layer's
    module-state analysis needs to know every module-level name — even
    ones defined after the function — before it can classify a write.
    """
    summary = ModuleSummary(
        display_path=info.display_path,
        module=info.module,
        noqa=dict(info.noqa),
        module_frame=info.module_frame,
        has_frame_pragmas=bool(info.frame_pragmas),
        conc_ambient=info.module_conc_ambient,
    )
    is_package = info.path.name == "__init__.py"
    #: deferred function walks: (node, qualname, class name, attr types).
    pending: List[Tuple[ast.AST, str, Optional[str], Dict[str, str]]] = []

    only_imports = True
    saw_docstring = False

    def record_import(node: ast.stmt, scope: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports.append(
                    ImportRecord(alias.name, None, node.lineno, scope)
                )
                if scope == "module":
                    summary.defined_names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = _resolve_relative(info.module, is_package, node.level, node.module)
            if base:
                summary.imports.append(
                    ImportRecord(base, [a.name for a in node.names], node.lineno, scope)
                )
                if scope == "module":
                    for a in node.names:
                        if a.name != "*":
                            summary.defined_names.add(a.asname or a.name)

    def module_aliases() -> Dict[str, str]:
        return dict(info.import_aliases)

    def walk_function(
        node, qualname: str, class_name: Optional[str], attr_types: Dict[str, str]
    ) -> None:
        fn = FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            det_reviewed=node.lineno in info.det_reviewed_lines,
            frame=info.frame_pragmas.get(node.lineno),
            params=[a.arg for a in node.args.args if a.arg not in ("self", "cls")],
            conc_ambient=(
                node.lineno in info.conc_ambient_lines or info.module_conc_ambient
            ),
            exc_boundary=node.lineno in info.exc_boundary_lines,
        )
        aliases = module_aliases()
        walker = _FunctionWalker(info, fn, aliases, class_name)
        for stmt in node.body:
            walker.visit(stmt)
        # Local imports recorded for the import graph too.
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                record_import(stmt, qualname)
        # Flow layer: CFG-derived facts + type-sharpened call edges,
        # computed against the complete module symbol table.
        plain = Resolver(aliases, class_name)
        local_types = local_constructor_types(node, plain)
        sharp = Resolver(aliases, class_name, attr_types, local_types)
        flow, typed = compute_flow(node, sharp, plain, set(summary.defined_names))
        fn.typed_calls = typed
        fn.flow = flow if not flow.empty() else None
        summary.functions[qualname] = fn

    def walk_body(
        body: Sequence[ast.stmt],
        class_name: Optional[str] = None,
        attr_types: Optional[Dict[str, str]] = None,
    ) -> None:
        nonlocal only_imports, saw_docstring
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                record_import(node, "module")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                only_imports = False
                qual = f"{class_name}.{node.name}" if class_name else node.name
                if class_name is None:
                    summary.defined_names.add(node.name)
                    if node.name == "__getattr__":
                        summary.has_getattr = True
                pending.append((node, qual, class_name, attr_types or {}))
            elif isinstance(node, ast.ClassDef) and class_name is None:
                only_imports = False
                summary.defined_names.add(node.name)
                summary.classes[node.name] = [
                    n.name
                    for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                walk_body(
                    node.body,
                    class_name=node.name,
                    attr_types=_class_attr_types(node, Resolver(module_aliases())),
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and class_name is None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                summary.defined_names.update(names)
                value = node.value
                if "__all__" in names and value is not None:
                    summary.all_names = _literal_strings(value)
                elif names != ["__all__"]:
                    only_imports = False
                if "EVENT_NAMES" in names and value is not None:
                    literals = _literal_strings(value)
                    if literals is not None:
                        summary.event_registry = (literals, node.lineno)
                if "METRIC_NAMES" in names and value is not None:
                    keys = _literal_dict_keys(value)
                    if keys is not None:
                        summary.metric_registry = (keys, node.lineno)
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str) and not saw_docstring:
                    saw_docstring = True
                else:
                    only_imports = False
            elif isinstance(node, (ast.If, ast.Try)):
                branches: List[Sequence[ast.stmt]] = [getattr(node, "body", [])]
                branches.append(getattr(node, "orelse", []))
                branches.append(getattr(node, "finalbody", []))
                for handler in getattr(node, "handlers", []):
                    branches.append(handler.body)
                for branch in branches:
                    walk_body(branch, class_name=class_name)
            elif class_name is None:
                only_imports = False

    walk_body(info.tree.body)
    summary.reexport_only = only_imports and bool(summary.imports)

    # Phase two: function bodies, now that defined_names is complete.
    for node, qual, cls, attr_types in pending:
        walk_function(node, qual, cls, attr_types)
    summary.module_conc_events = module_conc_events(
        info.tree, Resolver(module_aliases())
    )

    # tracer.event("name", …) and registry.counter/gauge/histogram("name", …)
    # literal emissions anywhere in the file.
    for node in ast.walk(info.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            if node.func.attr == "event":
                summary.events.append((node.args[0].value, node.lineno))
            elif node.func.attr in ("counter", "gauge", "histogram"):
                summary.metrics.append((node.args[0].value, node.lineno))
    return summary


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------


class ProjectIndex:
    """Summaries plus the resolution machinery the passes share."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        #: display path -> summary (every parsed file, tests included).
        self.files: Dict[str, ModuleSummary] = {
            s.display_path: s for s in summaries
        }
        #: dotted module name -> summary (files under a repro package).
        self.modules: Dict[str, ModuleSummary] = {
            s.module: s for s in summaries if s.module
        }

    # -- functions ------------------------------------------------------

    def functions(self) -> Iterator[Tuple[str, ModuleSummary, FunctionSummary]]:
        """Yield ``(key, module summary, function summary)`` for every
        indexed function; keys are ``module::qualname``."""
        for name in sorted(self.modules):
            summary = self.modules[name]
            for qual in sorted(summary.functions):
                yield f"{name}::{qual}", summary, summary.functions[qual]

    def function(self, key: str) -> Optional[FunctionSummary]:
        module, _, qual = key.partition("::")
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.functions.get(qual)

    # -- call resolution ------------------------------------------------

    def resolve_call(self, module: str, raw: str) -> Optional[str]:
        """Resolve a recorded call name to a function key, or ``None``.

        ``raw`` is either a bare/in-class name (same module) or an
        alias-expanded dotted path.  Re-export chains (``from X import
        Y`` in package ``__init__``s) are followed up to five hops.
        """
        summary = self.modules.get(module)
        if summary is not None:
            resolved = self._resolve_in_module(module, raw, 0)
            if resolved:
                return resolved
        parts = raw.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return self._resolve_in_module(prefix, ".".join(parts[cut:]), 0)
        return None

    def _resolve_in_module(self, module: str, name: str, depth: int) -> Optional[str]:
        if depth > 5 or not name:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.functions:
            return f"{module}::{name}"
        head, _, rest = name.partition(".")
        if head in summary.classes:
            if not rest:  # instantiation -> __init__ when defined
                init = f"{head}.__init__"
                return f"{module}::{init}" if init in summary.functions else None
            return None
        # Submodule of a package: repro.core -> repro.core.segment.
        child = f"{module}.{head}"
        if child in self.modules:
            return self._resolve_in_module(child, rest, depth + 1)
        # Re-export: from X import head (as …) at module scope.
        for record in summary.imports:
            if record.scope != "module" or record.names is None:
                continue
            if head in record.names:
                target = f"{record.module}.{head}"
                if target in self.modules and rest:
                    return self._resolve_in_module(target, rest, depth + 1)
                return self._resolve_in_module(
                    record.module, name, depth + 1
                )
        return None

    def call_graph(self) -> Dict[str, List[str]]:
        """``function key -> sorted callee keys`` over the whole index."""
        graph: Dict[str, List[str]] = {}
        for key, summary, fn in self.functions():
            module = summary.module or ""
            targets: Set[str] = set()
            for raw, _line in fn.calls:
                resolved = self.resolve_call(module, raw)
                if resolved and resolved != key:
                    targets.add(resolved)
            graph[key] = sorted(targets)
        return graph

    # -- import liveness ------------------------------------------------

    def importers_of(self, module: str) -> List[Tuple[str, int]]:
        """``(display path, line)`` of every import of ``module`` or of
        a name from it, anywhere in the project (any scope)."""
        hits: List[Tuple[str, int]] = []
        parent, _, leaf = module.rpartition(".")
        for path in sorted(self.files):
            summary = self.files[path]
            if summary.module == module:
                continue
            for record in summary.imports:
                if record.module == module or record.module.startswith(module + "."):
                    hits.append((path, record.line))
                elif (
                    parent
                    and record.module == parent
                    and record.names is not None
                    and leaf in record.names
                ):
                    hits.append((path, record.line))
        return hits

    def resolves_name(self, module: str, name: str) -> bool:
        """Whether ``from module import name`` would succeed, judged
        statically (definitions, re-exports, submodules, ``__getattr__``
        and star imports all count)."""
        summary = self.modules.get(module)
        if summary is None:
            return True  # outside the index: not ours to judge
        if summary.has_getattr or name in summary.defined_names:
            return True
        if f"{module}.{name}" in self.modules:
            return True
        for record in summary.imports:
            if record.scope != "module" or record.names is None:
                continue
            if "*" in record.names:
                return True
        return False

    # -- graph dumps ----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        modules = {}
        for name in sorted(self.modules):
            summary = self.modules[name]
            modules[name] = {
                "path": summary.display_path,
                "functions": sorted(summary.functions),
                "imports": sorted(
                    {r.module for r in summary.imports if r.scope == "module"}
                ),
                "lazy_imports": sorted(
                    {r.module for r in summary.imports if r.scope != "module"}
                ),
            }
        return {"modules": modules, "calls": self.call_graph()}

    def to_dot(self) -> str:
        lines = ["digraph repro_index {", "  rankdir=LR;"]
        for name in sorted(self.modules):
            summary = self.modules[name]
            for dep in sorted({r.module for r in summary.imports if r.scope == "module"}):
                if dep in self.modules:
                    lines.append(f'  "{name}" -> "{dep}";')
            for dep in sorted({r.module for r in summary.imports if r.scope != "module"}):
                if dep in self.modules:
                    lines.append(f'  "{name}" -> "{dep}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines)
