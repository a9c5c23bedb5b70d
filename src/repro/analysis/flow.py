"""Per-function flow facts: CFG + dataflow distilled to plain data.

This is the bridge between the syntax layer and the interprocedural
passes.  :func:`compute_flow` builds one function's CFG
(:mod:`repro.analysis.cfg`), runs the intraprocedural analyses over it
(:mod:`repro.analysis.dataflow`), and returns a :class:`FlowSummary` —
a plain-data record that serialises into the result cache exactly like
the rest of :class:`~repro.analysis.index.FunctionSummary`.  A warm
``repro check`` run therefore replays flow facts from the cache and
rebuilds **zero** CFGs (the ``--stats`` counter CI asserts on).

What gets computed, per function:

* **escaping raises** — ``raise SomeError(...)`` statements whose type
  survives every enclosing handler (a matching non-re-raising handler
  absorbs; a re-raising or non-matching one does not), and the
  *absorbed-type sets* guarding each call site.  The exception-flow
  pass composes these over the call graph (EXC101).
* **silent handler paths** — broad handlers with a CFG path from the
  handler entry to the function's continuation that crosses neither a
  ``raise`` nor a ``DocumentFailure(...)`` construction (EXC102).
* **module-state writes** — ``global`` assignments, attribute /
  subscript stores and mutating method calls on module-level names
  *or on local aliases of them* (a forward alias analysis tracks
  ``state = _STATE`` style bindings) (CONC101).
* **process-boundary risks** — values a forward picklability analysis
  knows to be unpicklable (lambdas, nested functions, open handles,
  locks, generators) flowing into ``submit`` / ``Process`` /
  ``send``-style boundary calls (CONC102).
* **ordering events** — thread starts, pool/process creations, and
  resolvable calls, with the CFG may-happen-before relation between
  them, so the concurrency pass can prove fork-after-thread hazards
  even when the thread start and the fork hide in different callees
  (CONC103).  Functions with more than :data:`MAX_EVENTS` events are
  not order-analysed (recorded as an empty relation — the pass
  under-reports there rather than guessing).
* **resource lifecycle** — a backward *must-release* analysis over
  locally acquired pools/executors/files/checkpoint logs (``with``
  acquisitions and ownership transfers are exempt) for RSRC101, and a
  forward *must-closed* analysis flagging uses after a definite
  release for RSRC102.

Known approximations (all chosen to under-report): implicit
exceptions from calls are not raise edges; a helper that records a
``DocumentFailure`` on the handler's behalf is invisible to the
swallow check; resources released by a callee count as escaped, not
released.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, HandlerGuard, build_cfg
from repro.analysis.dataflow import (
    TOP,
    IntersectLattice,
    MapLattice,
    solve_backward,
    solve_forward,
)

#: Order analysis is skipped for functions with more events than this
#: (quadratic pair budget); the concurrency pass then under-reports.
MAX_EVENTS = 40

#: Methods that release / tear down a resource or mark its end of life.
RELEASE_METHODS = {
    "close", "shutdown", "terminate", "join", "kill", "release",
    "cancel", "detach", "unlink",
}

#: Releases that make subsequent *use* a RSRC102 finding (joining a
#: terminated process or re-releasing is legal; writing to a closed
#: file is not).
CLOSING_RELEASES = {"close", "shutdown", "terminate"}

#: Reads that are legal on a released resource.
_POST_RELEASE_OK = RELEASE_METHODS | {"is_alive", "poll", "done", "closed", "exitcode"}

#: Mutating container/object methods (the CONC101 write detectors).
_MUTATORS = {
    "append", "extend", "add", "update", "setdefault", "pop", "popitem",
    "remove", "discard", "clear", "insert", "sort", "reverse",
}

#: Constructors whose results are not picklable / not fork-portable.
_UNPICKLABLE_CTORS = {
    "threading.Lock": "a thread lock",
    "threading.RLock": "a thread lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "a thread event",
    "threading.Semaphore": "a semaphore",
    "threading.local": "thread-local storage",
}

#: Call-attribute names that ship their arguments across a process
#: boundary.  The concurrency pass only applies these inside the two
#: multiprocessing layers, so the liberal attribute match cannot leak
#: findings into unrelated code.
_BOUNDARY_ATTRS = {
    "submit", "map", "send", "put", "put_nowait",
    "apply_async", "map_async", "imap", "imap_unordered",
}


# ----------------------------------------------------------------------
# The plain-data product
# ----------------------------------------------------------------------


@dataclass
class FlowSummary:
    """CFG-derived facts for one function, ready to cache."""

    #: (resolved exception type, line) of raises escaping the function.
    raises: List[Tuple[str, int]] = field(default_factory=list)
    #: (call line, absorbed type leaves; "*" = a broad absorbing handler).
    guarded_calls: List[Tuple[int, List[str]]] = field(default_factory=list)
    #: broad-handler lines with a record-free path to the continuation.
    swallows: List[int] = field(default_factory=list)
    #: (state name, line, how) — writes to module-level state.
    global_writes: List[Tuple[str, int, str]] = field(default_factory=list)
    #: (line, reason) — unpicklable value into a process-boundary call.
    boundary_risks: List[Tuple[int, str]] = field(default_factory=list)
    #: (line, kind, detail): kind is "thread-start" | "pool-create" | "call".
    conc_events: List[Tuple[int, str, str]] = field(default_factory=list)
    #: (i, j) indices into ``conc_events``: event i may precede event j.
    conc_reach: List[Tuple[int, int]] = field(default_factory=list)
    #: (line, kind, var) — acquisition with a release-free path to exit.
    leaks: List[Tuple[int, str, str]] = field(default_factory=list)
    #: (line, var, release kind) — use after a definite release.
    use_after_release: List[Tuple[int, str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "raises": [list(r) for r in self.raises],
            "guarded_calls": [[line, list(types)] for line, types in self.guarded_calls],
            "swallows": list(self.swallows),
            "global_writes": [list(w) for w in self.global_writes],
            "boundary_risks": [list(b) for b in self.boundary_risks],
            "conc_events": [list(e) for e in self.conc_events],
            "conc_reach": [list(p) for p in self.conc_reach],
            "leaks": [list(l) for l in self.leaks],
            "use_after_release": [list(u) for u in self.use_after_release],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FlowSummary":
        return FlowSummary(
            raises=[(str(t), int(ln)) for t, ln in data["raises"]],
            guarded_calls=[
                (int(line), [str(t) for t in types])
                for line, types in data["guarded_calls"]
            ],
            swallows=[int(ln) for ln in data["swallows"]],
            global_writes=[
                (str(n), int(ln), str(k)) for n, ln, k in data["global_writes"]
            ],
            boundary_risks=[(int(ln), str(r)) for ln, r in data["boundary_risks"]],
            conc_events=[
                (int(ln), str(k), str(d)) for ln, k, d in data["conc_events"]
            ],
            conc_reach=[(int(i), int(j)) for i, j in data["conc_reach"]],
            leaks=[(int(ln), str(k), str(v)) for ln, k, v in data["leaks"]],
            use_after_release=[
                (int(ln), str(v), str(k)) for ln, v, k in data["use_after_release"]
            ],
        )

    def empty(self) -> bool:
        return not (
            self.raises or self.guarded_calls or self.swallows
            or self.global_writes or self.boundary_risks or self.conc_events
            or self.leaks or self.use_after_release
        )


# ----------------------------------------------------------------------
# Name resolution (aliases + self-attribute and local-variable typing)
# ----------------------------------------------------------------------


class Resolver:
    """Dotted-name resolution for one function body.

    Extends the PR 4 walker's alias expansion with two flow-derived
    sharpenings: ``self.attr.meth`` resolves through the enclosing
    class's ``self.attr = Ctor(...)`` assignments, and ``x.meth``
    resolves when every assignment to local ``x`` constructs the same
    class.  Both only ever *add* edges that the source demonstrably
    creates — an unknown stays unknown.
    """

    def __init__(
        self,
        aliases: Dict[str, str],
        class_name: Optional[str] = None,
        self_attr_types: Optional[Dict[str, str]] = None,
        local_types: Optional[Dict[str, str]] = None,
    ):
        self.aliases = aliases
        self.class_name = class_name
        self.self_attr_types = self_attr_types or {}
        self.local_types = local_types or {}

    def resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in ("self", "cls") and self.class_name:
            if len(parts) == 1:
                return f"{self.class_name}.{parts[0]}"
            if len(parts) == 2 and parts[1] in self.self_attr_types:
                return f"{self.self_attr_types[parts[1]]}.{parts[0]}"
            return None
        if root in self.local_types:
            return ".".join([self.local_types[root]] + list(reversed(parts)))
        expanded = self.aliases.get(root, root)
        parts.append(expanded)
        return ".".join(reversed(parts))


def _is_constructor_name(resolved: str) -> bool:
    leaf = resolved.rsplit(".", 1)[-1]
    return bool(leaf) and leaf[0].isupper() and not leaf.isupper()


def local_constructor_types(func, resolver: Resolver) -> Dict[str, str]:
    """``local name -> constructed class`` for single-typed locals.

    Only names whose *every* binding is a call to the same
    capitalised (class-like) dotted name are typed; any other binding
    — a parameter, a re-assignment, a loop target — poisons the name.
    """
    candidates: Dict[str, Optional[str]] = {}

    def poison(target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                candidates[node.id] = None

    args = func.args
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        candidates[a.arg] = None
    for a in (args.vararg, args.kwarg):
        if a is not None:
            candidates[a.arg] = None

    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            name = node.targets[0].id
            ctor: Optional[str] = None
            if isinstance(node.value, ast.Call):
                resolved = resolver.resolve(node.value.func)
                if resolved and _is_constructor_name(resolved):
                    ctor = resolved
            if name not in candidates:
                candidates[name] = ctor
            elif candidates[name] != ctor:
                candidates[name] = None
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            poison(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            poison(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    poison(item.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            candidates[node.name] = None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    poison(target)
    return {name: ctor for name, ctor in candidates.items() if ctor}


def _local_names(func) -> Set[str]:
    """Names bound anywhere in the function body (shadowing module state)."""
    out: Set[str] = set()
    args = func.args
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        out.add(a.arg)
    for a in (args.vararg, args.kwarg):
        if a is not None:
            out.add(a.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            out.add(sub.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    return out - declared_global


def _chain_root(node: ast.AST) -> Optional[str]:
    """Root ``Name`` of an attribute/subscript chain, or ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_nodes(stmt: ast.AST):
    """AST nodes evaluated by *this* CFG node.

    The CFG stores the whole compound statement on its header node, but
    the body statements have nodes of their own — scanning a header
    with ``ast.walk`` would double-count every call in the body and,
    worse, attribute body effects to the header's dataflow facts.  So
    headers contribute only their header expressions; ``try`` and
    nested ``def``/``class`` headers evaluate nothing of interest.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return ast.walk(stmt.test)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return itertools.chain(ast.walk(stmt.target), ast.walk(stmt.iter))
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return itertools.chain.from_iterable(
            ast.walk(item.context_expr) for item in stmt.items
        )
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return iter(())
    return ast.walk(stmt)


# ----------------------------------------------------------------------
# The extraction
# ----------------------------------------------------------------------


def compute_flow(
    func,
    resolver: Resolver,
    plain_resolver: Resolver,
    module_state: Set[str],
) -> Tuple[FlowSummary, List[Tuple[str, int]]]:
    """Facts for one function; also returns the *typed calls* — call
    edges only the sharpened resolver can see (``x = Ctor(); x.meth()``
    and ``self.attr.meth()``), which the flow passes add to the PR 4
    call graph."""
    flow = FlowSummary()
    cfg = build_cfg(func)
    stmt_nodes = cfg.stmt_nodes()
    local_names = _local_names(func)
    declared_global: Set[str] = set()
    nested_defs: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
        ):
            nested_defs.add(node.name)

    typed_calls: List[Tuple[str, int]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            sharp = resolver.resolve(node.func)
            if sharp is not None and sharp != plain_resolver.resolve(node.func):
                typed_calls.append((sharp, node.lineno))

    _exception_flow(flow, cfg, resolver)
    _state_writes(flow, cfg, resolver, module_state, local_names, declared_global)
    _boundary_risks(flow, cfg, resolver, nested_defs)
    _ordering_events(flow, cfg, resolver)
    _resource_lifecycle(flow, cfg, resolver)
    return flow, typed_calls


# -- exception flow -----------------------------------------------------


def _guard_matches(guard: HandlerGuard, leaf: str) -> bool:
    if guard.broad:
        return True
    return any(t.rsplit(".", 1)[-1] == leaf for t in guard.types)


def _exception_flow(flow: FlowSummary, cfg: CFG, resolver: Resolver) -> None:
    guarded: Dict[int, List[str]] = {}
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            target = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            resolved = resolver.resolve(target)
            if resolved is None:
                continue
            leaf = resolved.rsplit(".", 1)[-1]
            absorbed = False
            for guard in cfg.guards[node.id]:
                if guard.reraises:
                    continue
                if _guard_matches(guard, leaf):
                    absorbed = True
                    break
            if not absorbed:
                flow.raises.append((resolved, stmt.lineno))
        has_call = any(isinstance(n, ast.Call) for n in _own_nodes(stmt))
        if has_call and cfg.guards[node.id]:
            absorbed_types: List[str] = []
            for guard in cfg.guards[node.id]:
                if guard.reraises:
                    continue
                if guard.broad:
                    if "*" not in absorbed_types:
                        absorbed_types.append("*")
                    break
                for t in guard.types:
                    leaf = t.rsplit(".", 1)[-1]
                    if leaf not in absorbed_types:
                        absorbed_types.append(leaf)
            if absorbed_types:
                line = stmt.lineno
                existing = guarded.setdefault(line, [])
                for t in absorbed_types:
                    if t not in existing:
                        existing.append(t)
    flow.guarded_calls = sorted(guarded.items())

    # Silent paths through broad handlers: BFS from each handler entry
    # that avoids "record" statements (a raise, a DocumentFailure
    # construction, or a tracer ``.event(...)`` emission); reaching the
    # normal exit means some execution swallows the exception without
    # leaving any trace at all.
    record_nodes: Set[int] = set()
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if isinstance(stmt, ast.Raise):
            record_nodes.add(node.id)
            continue
        for sub in _own_nodes(stmt):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute) and sub.func.attr == "event":
                record_nodes.add(node.id)
                break
            resolved = resolver.resolve(sub.func)
            if resolved and resolved.rsplit(".", 1)[-1] == "DocumentFailure":
                record_nodes.add(node.id)
                break
    for guard in cfg.handlers:
        if not guard.broad or guard.entry < 0:
            continue
        seen = {guard.entry}
        stack = [guard.entry]
        silent = False
        while stack and not silent:
            for succ in cfg.nodes[stack.pop()].succs:
                if succ in record_nodes or succ in seen:
                    continue
                if succ == cfg.exit:
                    silent = True
                    break
                seen.add(succ)
                stack.append(succ)
        if silent and guard.line not in flow.swallows:
            flow.swallows.append(guard.line)


# -- module-state writes ------------------------------------------------


def _state_writes(
    flow: FlowSummary,
    cfg: CFG,
    resolver: Resolver,
    module_state: Set[str],
    local_names: Set[str],
    declared_global: Set[str],
) -> None:
    lattice = MapLattice()

    def is_state(name: str) -> bool:
        if name in declared_global:
            return True
        return name in module_state and name not in local_names

    def transfer(node_id: int, fact: Dict[str, str]) -> Dict[str, str]:
        stmt = cfg.nodes[node_id].stmt
        if not isinstance(stmt, ast.Assign):
            return fact
        out = dict(fact)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if isinstance(stmt.value, ast.Name) and is_state(stmt.value.id):
                    out[target.id] = stmt.value.id
                elif isinstance(stmt.value, ast.Name) and stmt.value.id in fact:
                    out[target.id] = fact[stmt.value.id]
                else:
                    out.pop(target.id, None)
        return out

    facts = solve_forward(cfg, lattice, transfer, {})

    def state_of(root: Optional[str], fact: Dict[str, str]) -> Optional[str]:
        if root is None:
            return None
        if is_state(root):
            return root
        if root in fact:
            return fact[root]
        return None

    def record(name: str, line: int, how: str) -> None:
        entry = (name, line, how)
        if entry not in flow.global_writes:
            flow.global_writes.append(entry)

    for node in cfg.stmt_nodes():
        stmt = node.stmt
        fact = facts[node.id]
        if isinstance(fact, str):  # unreachable node: TOP sentinel
            fact = {}
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    record(target.id, stmt.lineno, "assignment to a global")
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _chain_root(target)
                    state = state_of(root, fact)
                    if state is not None:
                        via = "" if root == state else f" (via alias '{root}')"
                        kind = (
                            "attribute store"
                            if isinstance(target, ast.Attribute)
                            else "subscript store"
                        )
                        record(state, stmt.lineno, kind + via)
                    elif root is not None and root not in local_names:
                        dotted = resolver.aliases.get(root)
                        if dotted and "." not in root and dotted != root:
                            record(
                                f"{dotted}",
                                stmt.lineno,
                                "attribute store on imported module",
                            )
        for sub in _own_nodes(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATORS
            ):
                root = _chain_root(sub.func.value)
                state = state_of(root, fact)
                if state is not None:
                    via = "" if root == state else f" (via alias '{root}')"
                    record(state, sub.lineno, f".{sub.func.attr}() mutation" + via)


# -- process-boundary picklability --------------------------------------


def _unpicklable_ctor(resolved: Optional[str]) -> Optional[str]:
    if resolved is None:
        return None
    if resolved in _UNPICKLABLE_CTORS:
        return _UNPICKLABLE_CTORS[resolved]
    if resolved == "open" or resolved.endswith(".open"):
        return "an open file handle"
    return None


def _boundary_risks(
    flow: FlowSummary, cfg: CFG, resolver: Resolver, nested_defs: Set[str]
) -> None:
    lattice = MapLattice()

    def value_reason(value: ast.AST, fact: Dict[str, str]) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Name):
            if value.id in nested_defs:
                return f"the nested function '{value.id}'"
            return fact.get(value.id)
        if isinstance(value, ast.Call):
            return _unpicklable_ctor(resolver.resolve(value.func))
        return None

    def transfer(node_id: int, fact: Dict[str, str]) -> Dict[str, str]:
        stmt = cfg.nodes[node_id].stmt
        if not isinstance(stmt, ast.Assign):
            return fact
        out = dict(fact)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                reason = value_reason(stmt.value, fact)
                if reason is None:
                    out.pop(target.id, None)
                else:
                    out[target.id] = reason
        return out

    facts = solve_forward(cfg, lattice, transfer, {})

    for node in cfg.stmt_nodes():
        fact = facts[node.id]
        if isinstance(fact, str):
            fact = {}
        for sub in _own_nodes(node.stmt):
            if not isinstance(sub, ast.Call):
                continue
            boundary: Optional[str] = None
            if isinstance(sub.func, ast.Attribute) and sub.func.attr in _BOUNDARY_ATTRS:
                boundary = f".{sub.func.attr}()"
            else:
                resolved = resolver.resolve(sub.func)
                if resolved is not None:
                    leaf = resolved.rsplit(".", 1)[-1]
                    if leaf in ("Process", "ProcessPoolExecutor", "Pool"):
                        boundary = f"{leaf}(...)"
            if boundary is None:
                continue
            arg_values: List[ast.AST] = list(sub.args)
            for kw in sub.keywords:
                arg_values.append(kw.value)
            flat: List[ast.AST] = []
            for value in arg_values:
                if isinstance(value, (ast.Tuple, ast.List)):
                    flat.extend(value.elts)
                else:
                    flat.append(value)
            for value in flat:
                reason = value_reason(value, fact)
                if reason is not None:
                    entry = (
                        sub.lineno,
                        f"{reason} crosses the process boundary in {boundary}",
                    )
                    if entry not in flow.boundary_risks:
                        flow.boundary_risks.append(entry)


# -- ordering events (fork-after-thread) --------------------------------


def _pool_ctor(resolved: Optional[str], call: ast.Call) -> Optional[str]:
    """Detail string when the call creates a forked pool/process."""
    if resolved is not None:
        leaf = resolved.rsplit(".", 1)[-1]
        if leaf == "ProcessPoolExecutor":
            return resolved
        if leaf in ("Pool", "Process") and (
            "multiprocessing" in resolved or resolved in ("Pool", "Process")
        ):
            return resolved
    # ctx-style: get_context(...).Pool(...) / .Process(...)
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in ("Pool", "Process")
        and isinstance(func.value, ast.Call)
    ):
        return f"get_context(...).{func.attr}"
    return None


def _thread_start(resolved_of, call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "start"):
        return False
    base = func.value
    if isinstance(base, ast.Call):
        inner = resolved_of(base.func)
        return inner is not None and inner.rsplit(".", 1)[-1] == "Thread"
    resolved = resolved_of(base)
    return resolved is not None and resolved.rsplit(".", 1)[-1] == "Thread"


def classify_event(call: ast.Call, resolver: Resolver) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when the call is an ordering event:
    ``thread-start``, ``pool-create``, or a resolvable ``call`` the
    concurrency pass can follow into the index."""
    resolved = resolver.resolve(call.func)
    if _thread_start(resolver.resolve, call):
        return ("thread-start", "Thread.start()")
    pool = _pool_ctor(resolved, call)
    if pool is not None:
        return ("pool-create", pool)
    if resolved is None:
        return None
    if resolved.rsplit(".", 1)[-1] == "Thread":
        return None  # bare construction: only .start() matters
    return ("call", resolved)


def _walk_import_time(node: ast.AST):
    """Like ``ast.walk`` but skipping function/lambda bodies — only
    code executed at import time remains."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def module_conc_events(tree: ast.Module, resolver: Resolver) -> List[Tuple[int, str, str]]:
    """Ordering events in import-time code (module and class bodies;
    function bodies excluded) — the pool-created-at-import detector's
    input."""
    events: List[Tuple[int, str, str]] = []
    for sub in _walk_import_time(tree):
        if isinstance(sub, ast.Call):
            classified = classify_event(sub, resolver)
            if classified is not None:
                events.append((sub.lineno, classified[0], classified[1]))
    events.sort()
    return events


def _ordering_events(flow: FlowSummary, cfg: CFG, resolver: Resolver) -> None:
    events: List[Tuple[int, str, str, int]] = []  # (line, kind, detail, node)
    for node in cfg.stmt_nodes():
        for sub in _own_nodes(node.stmt):
            if not isinstance(sub, ast.Call):
                continue
            classified = classify_event(sub, resolver)
            if classified is not None:
                events.append((sub.lineno, classified[0], classified[1], node.id))
    if len(events) > MAX_EVENTS:
        interesting = [e for e in events if e[1] != "call"]
        if not interesting:
            return
        events = interesting[:MAX_EVENTS]
    flow.conc_events = [(line, kind, detail) for line, kind, detail, _ in events]
    for i, (_, _, _, node_i) in enumerate(events):
        reachable = cfg.reachable_from(node_i)
        for j, (_, _, _, node_j) in enumerate(events):
            if i == j:
                continue
            if node_j in reachable and (node_j != node_i):
                flow.conc_reach.append((i, j))
            elif node_j == node_i and i < j:
                # Same statement (e.g. nested calls): source order.
                flow.conc_reach.append((i, j))


# -- resource lifecycle -------------------------------------------------


def _acquisition_kind(resolved: Optional[str]) -> Optional[str]:
    if resolved is None:
        return None
    leaf = resolved.rsplit(".", 1)[-1]
    if resolved == "open":
        return "file handle"
    if resolved.endswith("CheckpointLog.open"):
        return "checkpoint log"
    if leaf in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
        return "executor"
    if leaf == "Pool" and "multiprocessing" in resolved:
        return "process pool"
    if leaf == "Pipe" and "multiprocessing" in resolved:
        return "pipe connection"
    if leaf == "Popen":
        return "subprocess"
    return None


def _resource_lifecycle(flow: FlowSummary, cfg: CFG, resolver: Resolver) -> None:
    # Per-statement classification.
    acquisitions: Dict[int, List[Tuple[str, str, int]]] = {}  # node -> (var, kind, line)
    releases: Dict[int, List[Tuple[str, str]]] = {}  # node -> (var, method)
    uses: Dict[int, List[Tuple[str, str, int]]] = {}  # node -> (var, attr, line)
    escaped: Set[str] = set()
    with_managed: Set[str] = set()
    candidates: Set[str] = set()

    def scan_escapes(expr: ast.AST, skip: Optional[ast.AST] = None) -> None:
        for sub in ast.walk(expr):
            if sub is skip:
                continue
            if isinstance(sub, ast.Call):
                for value in list(sub.args) + [kw.value for kw in sub.keywords]:
                    for name in ast.walk(value):
                        if isinstance(name, ast.Name):
                            escaped.add(name.id)

    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in ast.walk(item.optional_vars):
                        if isinstance(name, ast.Name):
                            with_managed.add(name.id)
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            acq: List[Tuple[str, str]] = []
            if isinstance(value, ast.Call):
                kind = _acquisition_kind(resolver.resolve(value.func))
                if kind is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            acq.append((target.id, kind))
                        elif isinstance(target, ast.Tuple):
                            for elt in target.elts:
                                if isinstance(elt, ast.Name):
                                    acq.append((elt.id, kind))
            if acq:
                acquisitions[node.id] = [
                    (var, kind, stmt.lineno) for var, kind in acq
                ]
                candidates.update(var for var, _ in acq)
            else:
                # Aliasing or storing: the value escapes our tracking.
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
        elif isinstance(stmt, (ast.Return, ast.Expr)) and isinstance(
            getattr(stmt, "value", None), (ast.Yield, ast.YieldFrom)
        ):
            value = stmt.value.value  # type: ignore[union-attr]
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Name):
                    escaped.add(sub.id)

        for sub in _own_nodes(stmt):
            if isinstance(sub, ast.Call):
                scan_escapes(sub)
                if isinstance(sub.func, ast.Attribute) and isinstance(
                    sub.func.value, ast.Name
                ):
                    var = sub.func.value.id
                    if sub.func.attr in RELEASE_METHODS:
                        releases.setdefault(node.id, []).append((var, sub.func.attr))
                    else:
                        uses.setdefault(node.id, []).append(
                            (var, sub.func.attr, sub.lineno)
                        )

    tracked = candidates - escaped - with_managed
    if not tracked and not releases:
        return

    lattice = IntersectLattice()

    # RSRC101: backward must-release — at an acquisition, is a release
    # of that name inevitable on every path to the normal exit?
    def release_transfer(node_id: int, fact: object):
        if fact is TOP or fact == TOP:
            return fact
        released = set(fact)  # type: ignore[arg-type]
        for var, _method in releases.get(node_id, ()):
            released.add(var)
        return frozenset(released)

    release_facts = solve_backward(cfg, lattice, release_transfer, frozenset())
    for node_id, acq_list in acquisitions.items():
        fact = release_facts[node_id]
        for var, kind, line in acq_list:
            if var not in tracked:
                continue
            if fact is TOP or fact == TOP:
                continue  # normal exit unreachable from here
            if var not in fact:  # type: ignore[operator]
                flow.leaks.append((line, kind, var))

    # RSRC102: forward must-closed — a use after a definite close.
    closing: Dict[int, List[str]] = {}
    close_kind: Dict[str, str] = {}
    for node_id, rel_list in releases.items():
        for var, method in rel_list:
            if method in CLOSING_RELEASES and var in tracked:
                closing.setdefault(node_id, []).append(var)
                close_kind[var] = method

    if not closing:
        return

    def closed_transfer(node_id: int, fact: object):
        if fact is TOP or fact == TOP:
            return fact
        closed = set(fact)  # type: ignore[arg-type]
        for var, _kind, _line in acquisitions.get(node_id, ()):
            closed.discard(var)
        for var in closing.get(node_id, ()):
            closed.add(var)
        return frozenset(closed)

    closed_facts = solve_forward(cfg, lattice, closed_transfer, frozenset())
    for node_id, use_list in uses.items():
        fact = closed_facts[node_id]
        if fact is TOP or fact == TOP:
            continue
        for var, attr, line in use_list:
            if attr in _POST_RELEASE_OK:
                continue
            if var in fact:  # type: ignore[operator]
                entry = (line, var, close_kind.get(var, "close"))
                if entry not in flow.use_after_release:
                    flow.use_after_release.append(entry)
