"""Whole-program model: per-module facts and the call graph.

Per-file AST rules structurally cannot see cross-module hazards — a
sync helper that sleeps two frames below an ``async def`` passes the
per-file async rule, an unversioned cache key laundered through a
function parameter passes the per-file key rule.  This module is the
substrate the interprocedural rules (:mod:`repro.analysis.interproc`)
stand on:

* :func:`extract_facts` distils one parsed module into a
  :class:`ModuleFacts` — function definitions with their outgoing call
  sites, blocking-call sites, RNG-construction sites, ``DataStore``
  write sites, classes with their unpicklable state, re-exports, and
  the suppression table.
* :class:`Project` assembles the facts of every analysed module into a
  conservative call graph.  Name and attribute calls are resolved
  through import tables, module re-exports and simple local type
  inference (``plan = FaultPlan.from_env()`` →
  ``plan.claim()`` resolves to ``FaultPlan.claim``);
  ``functools.partial(fn, ...)`` resolves to ``fn``; calls whose target
  cannot be proven degrade to an *unknown* edge rather than a guess —
  interprocedural rules never traverse unknown edges, so imprecision
  makes them quieter, not wrong.

Call-graph edges carry an ``offloaded`` flag: a callable *reference*
handed to ``asyncio.to_thread(...)`` or ``loop.run_in_executor(...)``
runs on a worker thread, so the async-reachability rule must not follow
that edge.  (A blocking *call* in the argument list still executes on
the event loop and is not exempt — only references are.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.analysis.module import ModuleInfo, dotted_name, is_test_path
from repro.analysis.rules import (
    _ASYNC_BLOCKING_CALLS,
    _NUMPY_SEEDABLE,
    _STDLIB_RANDOM_FUNCS,
    UnversionedKeyRule,
)

__all__ = [
    "CallSite",
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "Project",
    "Edge",
    "extract_facts",
    "module_name_for",
    "UNPICKLABLE_CTORS",
]

#: Constructors whose result can never cross a process-pool boundary:
#: the object holds an OS handle or an event-loop binding that pickle
#: (rightly) refuses to serialise, or serialises into a lie.
UNPICKLABLE_CTORS: dict[str, str] = {
    "threading.Lock": "a thread lock",
    "threading.RLock": "a re-entrant thread lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "a thread event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "threading.Barrier": "a thread barrier",
    "threading.Thread": "a thread handle",
    "threading.local": "thread-local storage",
    "asyncio.Lock": "an event-loop lock",
    "asyncio.Event": "an event-loop event",
    "asyncio.Condition": "an event-loop condition",
    "asyncio.Semaphore": "an event-loop semaphore",
    "asyncio.Queue": "an event-loop queue",
    "asyncio.LifoQueue": "an event-loop queue",
    "asyncio.PriorityQueue": "an event-loop queue",
    "socket.socket": "an open socket",
    "socket.create_connection": "an open socket",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "io.TextIOWrapper": "an open file handle",
    "io.BufferedReader": "an open file handle",
    "io.BufferedWriter": "an open file handle",
    "io.FileIO": "an open file handle",
    "subprocess.Popen": "a child-process handle",
    "mmap.mmap": "a memory map",
    "sqlite3.connect": "a database connection",
    "concurrent.futures.ThreadPoolExecutor": "an executor",
    "concurrent.futures.ProcessPoolExecutor": "an executor",
}

#: The blessed seed-derivation helpers: a generator whose seed
#: expression routes through any of these is a pure function of its
#: inputs (see ``repro.util.seeded_rng``).
_BLESSED_SEED_TOKENS = ("seeded_rng", "stable_hash", "stable_seed")

_RUNNER_CANONICAL = "repro.experiments.runner.PhaseRunner"

_SUMMARY_DEPTH = 6


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/serving/server.py`` → ``repro.serving.server``;
    ``pkg/__init__.py`` → ``pkg``; a leading ``src/`` component is
    dropped so on-disk trees and virtual fixture paths agree.
    """
    parts = [part for part in path.replace("\\", "/").split("/")
             if part not in ("", ".")]
    # Anchor at the last ``src`` component (absolute paths included),
    # else at the first recognisable package root.
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        for root in ("repro", "scripts", "tests"):
            if root in parts:
                parts = parts[parts.index(root):]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


# ---------------------------------------------------------------------------
# facts data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One outgoing call from a function body.

    ``spec`` is the unresolved callee description the :class:`Project`
    later resolves against the global symbol table:

    * ``("direct", dotted)`` — a plain or imported name, canonicalised
      through the module's import/alias tables and local definitions;
    * ``("self", class_canonical, method)`` — ``self.m()`` / ``cls.m()``;
    * ``("typed", type_canonical, method)`` — a method on a receiver
      whose class was inferred locally;
    * ``("unknown", repr)`` — anything else (conservative: not
      traversed).
    """

    line: int
    col: int
    spec: tuple[str, ...]
    offloaded: bool = False
    args: tuple[str, ...] = ()
    kwargs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FunctionFacts:
    """One function or method definition and everything rules need."""

    qualname: str  # "Cls.method", "fn", or "outer.inner" for nested defs
    line: int
    is_async: bool
    class_name: str | None  # enclosing class simple name, if a method
    params: tuple[str, ...]
    calls: tuple[CallSite, ...] = ()
    #: blocking-call sites: (line, col, canonical name)
    blocking: tuple[tuple[int, int, str], ...] = ()
    #: raw-randomness sites: (line, col, description); blessed
    #: constructions (seed routed through seeded_rng/stable_hash or
    #: flowing in from parameters/attributes) are not recorded.
    rng: tuple[tuple[int, int, str], ...] = ()
    #: DataStore write sites: (line, col, method, key provenance summary)
    store_writes: tuple[tuple[int, int, str, str], ...] = ()
    #: provenance summaries of every ``return`` expression
    returns: tuple[str, ...] = ()
    #: pool-submission payloads: (line, col, context, inferred type)
    submissions: tuple[tuple[int, int, str, str], ...] = ()

    @property
    def is_public(self) -> bool:
        return not any(part.startswith("_")
                       for part in self.qualname.split("."))


@dataclass(frozen=True)
class ClassFacts:
    """One class definition: bases, methods, unpicklable state."""

    name: str
    line: int
    bases: tuple[str, ...]  # canonicalised base names
    methods: tuple[str, ...]
    #: (attribute, constructor canonical name, line) for attributes
    #: assigned from an unpicklable constructor, plus attributes whose
    #: value is an instance of another package class (recorded as
    #: ("attr", "instance:<canonical>", line) for the composition
    #: fixpoint in :meth:`Project.unpicklable_state`).
    unpicklable: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program passes need from one module."""

    path: str
    module: str
    reexports: tuple[tuple[str, str], ...]  # local name -> canonical target
    functions: tuple[FunctionFacts, ...]
    classes: tuple[ClassFacts, ...]
    suppress_lines: tuple[tuple[int, tuple[str, ...]], ...]
    suppress_file: tuple[str, ...]

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        if rule_id in self.suppress_file or "ALL" in self.suppress_file:
            return True
        for at_line, rules in self.suppress_lines:
            if at_line == line and (rule_id in rules or "ALL" in rules):
                return True
        return False


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


class _Extractor:
    """Walks one :class:`ModuleInfo` and produces :class:`ModuleFacts`."""

    def __init__(self, module: ModuleInfo) -> None:
        self.mi = module
        self.module_name = module_name_for(module.path)
        self._key_rule = UnversionedKeyRule()
        self._producers = self._key_rule._key_producers(module)
        #: simple names defined at module top level (functions/classes)
        self.toplevel: set[str] = {
            node.name for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }
        self._relative: dict[str, str] = self._relative_imports()
        self._uses_pool = "ProcessPoolExecutor" in module.source

    # -- name resolution -------------------------------------------------------

    def _relative_imports(self) -> dict[str, str]:
        """Local name → canonical target for relative ``from . import x``."""
        table: dict[str, str] = {}
        package = self.module_name.rsplit(".", 1)[0] \
            if "." in self.module_name else self.module_name
        if self.mi.path.endswith("__init__.py"):
            package = self.module_name
        for node in ast.walk(self.mi.tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base_parts = package.split(".")
            up = node.level - 1
            if up >= len(base_parts):
                continue  # beyond the root: unresolvable, stay quiet
            base = ".".join(base_parts[: len(base_parts) - up])
            prefix = f"{base}.{node.module}" if node.module else base
            for alias in node.names:
                table[alias.asname or alias.name] = f"{prefix}.{alias.name}"
        return table

    def canonical(self, dotted: str) -> str:
        """Best-effort canonical dotted name seen from this module."""
        head, _, rest = dotted.partition(".")
        if head in self._relative:
            expansion = self._relative[head]
            return f"{expansion}.{rest}" if rest else expansion
        resolved = self.mi.resolve_dotted(dotted)
        head = resolved.split(".", 1)[0]
        if head in self.toplevel:
            return f"{self.module_name}.{resolved}"
        return resolved

    # -- facts -----------------------------------------------------------------

    def extract(self) -> ModuleFacts:
        functions: list[FunctionFacts] = []
        classes: list[ClassFacts] = []
        for node, qualname, class_name in self._definitions():
            if isinstance(node, ast.ClassDef):
                classes.append(self._class_facts(node))
            else:
                functions.append(self._function_facts(node, qualname,
                                                      class_name))
        per_line, whole_file = self.mi._suppressions
        return ModuleFacts(
            path=self.mi.path,
            module=self.module_name,
            reexports=tuple(sorted(self._reexports().items())),
            functions=tuple(functions),
            classes=tuple(classes),
            suppress_lines=tuple(sorted(
                (line, tuple(sorted(rules)))
                for line, rules in per_line.items())),
            suppress_file=tuple(sorted(whole_file)),
        )

    def _reexports(self) -> dict[str, str]:
        """Module-level names that stand for symbols defined elsewhere."""
        table: dict[str, str] = {}
        for node in self.mi.tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = self.canonical(local)
            elif (isinstance(node, ast.Assign)
                  and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)):
                dotted = dotted_name(node.value)
                if dotted is not None:
                    table[node.targets[0].id] = self.canonical(dotted)
        return {local: target for local, target in table.items()
                if target != f"{self.module_name}.{local}"}

    def _definitions(self) -> Iterator[tuple[ast.AST, str, str | None]]:
        """Every function/class def with its hierarchical qualname."""

        def walk(body: list[ast.stmt], prefix: str,
                 class_name: str | None) -> Iterator:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    yield node, qual, class_name
                    yield from walk(node.body, f"{qual}.", class_name)
                elif isinstance(node, ast.ClassDef):
                    yield node, f"{prefix}{node.name}", None
                    yield from walk(node.body, f"{prefix}{node.name}.",
                                    node.name)
                elif isinstance(node, (ast.If, ast.Try, ast.With,
                                       ast.For, ast.While)):
                    for child in ast.iter_child_nodes(node):
                        if isinstance(child, ast.stmt):
                            yield from walk([child], prefix, class_name)

        yield from walk(self.mi.tree.body, "", None)

    # -- class facts -----------------------------------------------------------

    def _class_facts(self, node: ast.ClassDef) -> ClassFacts:
        methods = tuple(item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)))
        unpicklable: list[tuple[str, str, int]] = []
        for stmt in ast.walk(node):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            ctor = self._ctor_of(value)
            if ctor is None:
                continue
            for target in targets:
                attr = self._self_attr_or_name(target)
                if attr is not None:
                    unpicklable.append((attr, ctor, stmt.lineno))
        bases = tuple(self.canonical(base)
                      for base in (dotted_name(b) for b in node.bases)
                      if base is not None)
        return ClassFacts(name=node.name, line=node.lineno, bases=bases,
                          methods=methods,
                          unpicklable=tuple(sorted(set(unpicklable))))

    def _ctor_of(self, value: ast.expr) -> str | None:
        """Unpicklable-state marker for an assigned value, if any."""
        if not isinstance(value, ast.Call):
            return None
        full = self.mi.resolve(value.func)
        if full is None:
            return None
        if full in UNPICKLABLE_CTORS:
            return full
        canonical = self.canonical(full)
        if canonical.split(".", 1)[0] in ("repro",) or "." in canonical:
            # Possibly another package class: record for the
            # composition fixpoint; Project decides whether it matters.
            leaf = canonical.rsplit(".", 1)[-1]
            if leaf[:1].isupper():
                return f"instance:{canonical}"
        return None

    @staticmethod
    def _self_attr_or_name(target: ast.expr) -> str | None:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        if isinstance(target, ast.Name):
            return target.id
        return None

    # -- function facts --------------------------------------------------------

    def _function_facts(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        qualname: str, class_name: str | None
                        ) -> FunctionFacts:
        params = tuple(
            arg.arg for arg in (node.args.posonlyargs + node.args.args
                                + node.args.kwonlyargs))
        annotations = {
            arg.arg: self.canonical(ann) for arg in
            (node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
            if (ann := self._annotation_name(arg.annotation)) is not None
        }
        body_nodes = list(self._own_body(node))
        local_defs = {
            child.name: f"{qualname}.{child.name}"
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        assigns = self._local_assigns(body_nodes)
        types = self._local_types(assigns, annotations)
        calls: list[CallSite] = []
        blocking: list[tuple[int, int, str]] = []
        rng: list[tuple[int, int, str]] = []
        writes: list[tuple[int, int, str, str]] = []
        returns: list[str] = []
        submissions: list[tuple[int, int, str, str]] = []
        offload_refs = self._offload_references(body_nodes)
        for item in body_nodes:
            if isinstance(item, ast.Call):
                calls.extend(self._call_sites(
                    item, class_name, local_defs, types, params, assigns,
                    offloaded=id(item) in offload_refs))
                name = self.mi.resolve(item.func)
                if name in _ASYNC_BLOCKING_CALLS:
                    blocking.append((item.lineno, item.col_offset + 1,
                                     name or ""))
                raw = self._rng_site(item, name)
                if raw is not None:
                    rng.append((item.lineno, item.col_offset + 1, raw))
                write = self._store_write(item, params, assigns)
                if write is not None:
                    writes.append(write)
                submissions.extend(self._submissions(item, types))
            elif isinstance(item, ast.Return) and item.value is not None:
                returns.append(self._summarize(item.value, params, assigns))
        return FunctionFacts(
            qualname=qualname, line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name, params=params,
            calls=tuple(calls), blocking=tuple(blocking), rng=tuple(rng),
            store_writes=tuple(writes), returns=tuple(returns),
            submissions=tuple(submissions),
        )

    def _own_body(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested defs.

        Lambda bodies *are* included: their calls run on whatever thread
        invokes them, which for the idioms this repo uses is the
        enclosing function's — attributing them here is the
        conservative choice.
        """
        stack = [child for child in ast.iter_child_nodes(node)
                 if not isinstance(child, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef))]
        while stack:
            current = stack.pop()
            yield current
            for child in ast.iter_child_nodes(current):
                if not isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    stack.append(child)

    def _annotation_name(self, annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            # String annotation: parse the simple dotted-name case.
            text = annotation.value.strip().split("|")[0].strip()
            if text.replace(".", "").replace("_", "").isalnum():
                return text
            return None
        return dotted_name(annotation)

    def _local_assigns(self, body: list[ast.AST]) -> dict[str, ast.expr]:
        assigns: dict[str, ast.expr] = {}
        for item in body:
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                assigns[item.targets[0].id] = item.value
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name) \
                    and item.value is not None:
                assigns[item.target.id] = item.value
            elif isinstance(item, (ast.With, ast.AsyncWith)):
                for with_item in item.items:
                    if isinstance(with_item.optional_vars, ast.Name) \
                            and with_item.context_expr is not None:
                        assigns[with_item.optional_vars.id] = \
                            with_item.context_expr
        return assigns

    def _local_types(self, assigns: dict[str, ast.expr],
                     annotations: dict[str, str]) -> dict[str, str]:
        """Variable → canonical class name, where locally provable."""
        types = dict(annotations)
        for name, value in assigns.items():
            inferred = self._infer_type(value)
            if inferred is not None:
                types[name] = inferred
        return types

    def _infer_type(self, value: ast.expr, depth: int = 0) -> str | None:
        if depth > 3 or not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        canonical = self.canonical(dotted)
        parts = canonical.split(".")
        # ``FaultPlan(...)`` / ``faults.FaultPlan(...)`` → FaultPlan;
        # ``FaultPlan.from_env(...)`` (a classmethod) → FaultPlan.
        for idx in range(len(parts) - 1, -1, -1):
            if parts[idx][:1].isupper():
                return ".".join(parts[: idx + 1])
        return None

    # -- per-call extraction ---------------------------------------------------

    def _offload_references(self, body: list[ast.AST]) -> set[int]:
        """ids of Call nodes that are offload wrappers (to_thread &c)."""
        found: set[int] = set()
        for item in body:
            if isinstance(item, ast.Call) and self._offload_target(item):
                found.add(id(item))
        return found

    def _offload_target(self, call: ast.Call) -> ast.expr | None:
        """The callable reference a thread-offload wrapper will run."""
        full = self.mi.resolve(call.func)
        if full == "asyncio.to_thread" and call.args:
            return call.args[0]
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr == "run_in_executor"
                and len(call.args) >= 2):
            return call.args[1]
        return None

    def _call_sites(self, call: ast.Call, class_name: str | None,
                    local_defs: dict[str, str], types: dict[str, str],
                    params: tuple[str, ...], assigns: dict[str, ast.expr],
                    offloaded: bool) -> list[CallSite]:
        sites: list[CallSite] = []
        arg_summaries = tuple(self._summarize(arg, params, assigns)
                              for arg in call.args)
        kwarg_summaries = tuple(
            (kw.arg, self._summarize(kw.value, params, assigns))
            for kw in call.keywords if kw.arg is not None)

        def site(spec: tuple[str, ...], *, off: bool = False,
                 args: tuple[str, ...] = arg_summaries,
                 kwargs=kwarg_summaries) -> CallSite:
            return CallSite(line=call.lineno, col=call.col_offset + 1,
                            spec=spec, offloaded=off, args=args,
                            kwargs=kwargs)

        spec = self._callee_spec(call.func, class_name, local_defs, types,
                                 params, assigns)
        sites.append(site(spec))
        # ``partial(fn, ...)`` — constructed here, invoked wherever it is
        # handed; the conservative reading is an edge to ``fn`` now.
        if spec == ("direct", "functools.partial") and call.args:
            sites.append(site(self._callee_spec(
                call.args[0], class_name, local_defs, types,
                params, assigns)))
        # ``partial(fn, ...)()`` — calling through a just-built partial.
        if isinstance(call.func, ast.Call):
            inner = self.mi.resolve(call.func.func)
            if inner in ("functools.partial", "partial") \
                    and call.func.args:
                sites.append(site(self._callee_spec(
                    call.func.args[0], class_name, local_defs, types,
                    params, assigns)))
        target = self._offload_target(call)
        if target is not None:
            inner_call = None
            if isinstance(target, ast.Call):  # partial(...) offloaded
                inner = self.mi.resolve(target.func)
                if inner in ("functools.partial", "partial") and target.args:
                    inner_call = target.args[0]
            ref = inner_call if inner_call is not None else target
            if not isinstance(ref, ast.Call):
                sites.append(site(
                    self._callee_spec(ref, class_name, local_defs, types),
                    off=True, args=(), kwargs=()))
        return sites

    def _callee_spec(self, func: ast.expr, class_name: str | None,
                     local_defs: dict[str, str], types: dict[str, str],
                     params: tuple[str, ...] = (),
                     assigns: Mapping[str, ast.expr] | None = None
                     ) -> tuple[str, ...]:
        dotted = dotted_name(func)
        if dotted is None:
            return ("unknown", type(func).__name__)
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and class_name is not None:
            if rest and "." not in rest:
                return ("self", f"{self.module_name}.{class_name}", rest)
            return ("unknown", dotted)
        if not rest and head in local_defs:
            return ("direct", f"{self.module_name}.{local_defs[head]}")
        if rest and head in types and head not in self.mi._import_table:
            if "." not in rest:
                return ("typed", self._canonical_type(types[head]), rest)
            return ("unknown", dotted)
        if rest and (head in params or (assigns is not None
                                        and head in assigns)) \
                and head not in self.mi._import_table \
                and head not in self.mi._alias_table:
            # A method on a local value whose type we could not infer:
            # unknown, not external — nothing may assume it is safe.
            return ("unknown", dotted)
        return ("direct", self.canonical(dotted))

    def _canonical_type(self, type_name: str) -> str:
        return self.canonical(type_name)

    def _rng_site(self, call: ast.Call, full: str | None) -> str | None:
        """Description of a raw-randomness site, or ``None`` if blessed."""
        if full is None:
            return None
        if full.startswith("numpy.random."):
            leaf = full.rsplit(".", 1)[-1]
            if leaf in _NUMPY_SEEDABLE:
                return self._ctor_seed_verdict(call, f"numpy.random.{leaf}")
            return (f"legacy global numpy.random.{leaf}() draws from "
                    "hidden module state")
        if full == "random.Random":
            return self._ctor_seed_verdict(call, "random.Random")
        if full.startswith("random.") and full.count(".") == 1:
            leaf = full.rsplit(".", 1)[-1]
            if leaf in _STDLIB_RANDOM_FUNCS:
                return (f"global random.{leaf}() draws from hidden "
                        "module state")
        return None

    def _ctor_seed_verdict(self, call: ast.Call, ctor: str) -> str | None:
        seeds = [kw.value for kw in call.keywords if kw.arg == "seed"]
        if call.args:
            seeds.append(call.args[0])
        if not seeds:
            return f"{ctor}() constructed without a seed"
        for seed in seeds:
            for node in ast.walk(seed):
                name = None
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = dotted_name(node) or ""
                elif isinstance(node, ast.Call):
                    name = self.mi.resolve(node.func) or ""
                if name and any(token in name
                                for token in _BLESSED_SEED_TOKENS):
                    return None  # blessed derivation
        if all(self._is_constant(seed) for seed in seeds):
            return (f"{ctor}(...) seeded from a hardcoded constant — the "
                    "stream is severed from the run's seed plumbing")
        return None  # seed flows in from parameters/attributes: provenance ok

    @staticmethod
    def _is_constant(expr: ast.expr) -> bool:
        return all(isinstance(node, (ast.Constant, ast.Tuple, ast.List,
                                     ast.BinOp, ast.UnaryOp, ast.Add,
                                     ast.Sub, ast.Mult, ast.USub, ast.UAdd,
                                     ast.Load))
                   for node in ast.walk(expr))

    # -- store writes / provenance summaries -----------------------------------

    def _store_write(self, call: ast.Call, params: tuple[str, ...],
                     assigns: dict[str, ast.expr]
                     ) -> tuple[int, int, str, str] | None:
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in ("put", "get_or_compute")
                and len(call.args) >= 2):
            return None
        receiver = dotted_name(call.func.value) or ""
        if "store" not in receiver.lower():
            return None
        key = call.args[0]
        return (key.lineno, key.col_offset + 1, call.func.attr,
                self._summarize(key, params, assigns))

    def _summarize(self, expr: ast.expr, params: tuple[str, ...],
                   assigns: dict[str, ast.expr], depth: int = 0) -> str:
        """Key-provenance summary of an expression.

        One of ``versioned`` (demonstrably schema-versioned),
        ``param:<name>`` (flows in from a parameter — traced through
        the call graph by RPL-C003), ``call:<canonical>`` (a call whose
        return provenance decides), ``unversioned`` (provably built
        string without a version), or ``opaque`` (unknown: trusted).
        """
        if depth > _SUMMARY_DEPTH:
            return "opaque"
        if isinstance(expr, ast.Call):
            # The per-file rule trusts any ``*_key``-named call (half 2
            # of its contract); here we can do better and trace the
            # actual return provenance, so calls are summarised first,
            # before ``_expr_versioned`` gets a chance to name-trust.
            dotted = dotted_name(expr.func)
            if dotted is not None:
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf == "versioned_key":
                    return "versioned"
                head = dotted.split(".", 1)[0]
                if head in ("self", "cls") and dotted.count(".") == 1:
                    return f"call:{self.module_name}.?.{dotted.split('.')[1]}"
                return f"call:{self.canonical(dotted)}"
            return "opaque"
        if self._key_rule._expr_versioned(expr, self._producers):
            return "versioned"
        if isinstance(expr, ast.Name):
            if expr.id in assigns:
                return self._summarize(assigns[expr.id], params, assigns,
                                       depth + 1)
            if expr.id in params:
                return f"param:{expr.id}"
            return "opaque"
        if UnversionedKeyRule._builds_string(expr):
            return "unversioned"
        return "opaque"

    # -- pool submissions ------------------------------------------------------

    def _submissions(self, call: ast.Call, types: dict[str, str]
                     ) -> list[tuple[int, int, str, str]]:
        """Payload objects crossing a process-pool boundary, with types."""
        found: list[tuple[int, int, str, str]] = []

        def record(expr: ast.expr, context: str) -> None:
            inferred = None
            if isinstance(expr, ast.Name):
                inferred = types.get(expr.id)
            else:
                inferred = self._infer_type(expr)
            if inferred is not None:
                found.append((expr.lineno, expr.col_offset + 1, context,
                              self._canonical_type(inferred)))

        def record_callable(expr: ast.expr, context: str) -> None:
            # partial(fn, payload...) — the bound payloads are pickled.
            if isinstance(expr, ast.Call):
                inner = self.mi.resolve(expr.func)
                if inner in ("functools.partial", "partial"):
                    for arg in expr.args[1:]:
                        record(arg, context)
                    for kw in expr.keywords:
                        record(kw.value, context)

        if (isinstance(call.func, ast.Attribute)
                and call.func.attr in ("submit", "map")
                and call.args and self._uses_pool):
            for arg in call.args[1:]:
                record(arg, f".{call.func.attr}() argument")
            record_callable(call.args[0], f".{call.func.attr}() callable")
            return found
        dotted = dotted_name(call.func)
        canonical = self.canonical(dotted) if dotted else None
        if canonical == _RUNNER_CANONICAL or (
                dotted is not None and dotted.rsplit(".", 1)[-1]
                == "PhaseRunner"):
            for kw in call.keywords:
                if kw.arg in ("worker_task", "serial_task", "initializer"):
                    record_callable(kw.value, f"PhaseRunner {kw.arg}")
                elif kw.arg == "initargs" and isinstance(kw.value,
                                                        (ast.Tuple,
                                                         ast.List)):
                    for element in kw.value.elts:
                        record(element, "PhaseRunner initargs")
            if call.args:
                record_callable(call.args[0], "PhaseRunner worker_task")
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr == "run"
                and isinstance(call.func.value, ast.Name)
                and types.get(call.func.value.id, "").endswith(
                    "PhaseRunner")
                and call.args
                and isinstance(call.args[0], (ast.List, ast.Tuple))):
            for element in call.args[0].elts:
                record(element, "PhaseRunner.run() item")
        return found


def extract_facts(module: ModuleInfo) -> ModuleFacts:
    """Distil one parsed module into its whole-program facts."""
    return _Extractor(module).extract()


# ---------------------------------------------------------------------------
# the project: graphs over facts
# ---------------------------------------------------------------------------

FnKey = tuple[str, str]  # (module name, qualname)


@dataclass(frozen=True)
class Edge:
    """One resolved outgoing call edge."""

    line: int
    col: int
    #: ``("fn", module, qualname)`` — resolved package function;
    #: ``("external", name)`` — resolved outside the analysed set;
    #: ``("unknown", why)`` — unresolvable, never traversed.
    target: tuple[str, ...]
    offloaded: bool
    args: tuple[str, ...] = ()
    kwargs: tuple[tuple[str, str], ...] = ()

    @property
    def resolved(self) -> bool:
        return self.target[0] == "fn"


class Project:
    """Every analysed module, plus the import and call graphs."""

    def __init__(self, facts: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        for module_facts in facts:
            self.modules[module_facts.module] = module_facts
        self._functions: dict[FnKey, FunctionFacts] = {}
        self._classes: dict[str, tuple[str, ClassFacts]] = {}
        for name, module_facts in self.modules.items():
            for fn in module_facts.functions:
                self._functions[(name, fn.qualname)] = fn
            for cls in module_facts.classes:
                self._classes[f"{name}.{cls.name}"] = (name, cls)
        self._edges: dict[FnKey, tuple[Edge, ...]] = {}
        self._returns_versioned: dict[FnKey, str] | None = None
        self._unpicklable: dict[str, tuple[str, str, int]] | None = None

    # -- lookups ---------------------------------------------------------------

    def facts_for_path(self, path: str) -> ModuleFacts | None:
        path = path.replace("\\", "/")
        for module_facts in self.modules.values():
            if module_facts.path == path:
                return module_facts
        return None

    def functions(self) -> Iterator[tuple[FnKey, FunctionFacts]]:
        yield from sorted(self._functions.items())

    def function(self, key: FnKey) -> FunctionFacts | None:
        return self._functions.get(key)

    def module_of(self, key: FnKey) -> ModuleFacts:
        return self.modules[key[0]]

    # -- symbol resolution -----------------------------------------------------

    def resolve_symbol(self, dotted: str, *, _seen: frozenset[str]
                       = frozenset()) -> tuple[str, ...]:
        """Resolve a canonical dotted name to a definition.

        Returns ``("fn", module, qualname)``, ``("class", canonical)``,
        ``("external", dotted)`` or ``("unknown", dotted)``.  Re-exports
        (``from repro.dse.screener import X`` in ``repro/dse/__init__``)
        are followed with cycle protection.
        """
        if dotted in _seen:
            return ("unknown", f"re-export cycle at {dotted}")
        _seen = _seen | {dotted}
        # Longest known-module prefix.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            remainder = parts[cut:]
            if not remainder:
                return ("external", dotted)  # a module, not a callable
            facts = self.modules[module]
            qualname = ".".join(remainder)
            if (module, qualname) in self._functions:
                return ("fn", module, qualname)
            if f"{module}.{remainder[0]}" in self._classes and \
                    len(remainder) >= 1:
                canonical_cls = f"{module}.{remainder[0]}"
                if len(remainder) == 1:
                    return ("class", canonical_cls)
                return self._resolve_method_symbol(canonical_cls,
                                                   ".".join(remainder[1:]))
            reexports = dict(facts.reexports)
            if remainder[0] in reexports:
                target = reexports[remainder[0]]
                rest = ".".join(remainder[1:])
                target = f"{target}.{rest}" if rest else target
                return self.resolve_symbol(target, _seen=_seen)
            return ("unknown", f"{dotted} not found in {module}")
        return ("external", dotted)

    def _resolve_method_symbol(self, canonical_cls: str, method: str
                               ) -> tuple[str, ...]:
        resolved = self.resolve_method(canonical_cls, method)
        if resolved is not None:
            return ("fn",) + resolved
        return ("unknown", f"no method {method} on {canonical_cls}")

    def resolve_method(self, canonical_cls: str, method: str,
                       *, _seen: frozenset[str] = frozenset()
                       ) -> FnKey | None:
        """Find ``method`` on a class or its in-package bases."""
        if canonical_cls in _seen:
            return None
        _seen = _seen | {canonical_cls}
        entry = self._classes.get(canonical_cls)
        if entry is None:
            # Maybe a re-exported class name.
            resolved = self.resolve_symbol(canonical_cls)
            if resolved[0] == "class" and resolved[1] != canonical_cls:
                return self.resolve_method(resolved[1], method, _seen=_seen)
            return None
        module, cls = entry
        key = (module, f"{cls.name}.{method}")
        if key in self._functions:
            return key
        for base in cls.bases:
            found = self.resolve_method(base, method, _seen=_seen)
            if found is not None:
                return found
        return None

    # -- graphs ----------------------------------------------------------------

    def edges(self, key: FnKey) -> tuple[Edge, ...]:
        """Resolved outgoing call edges of one function (memoised)."""
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        fn = self._functions.get(key)
        if fn is None:
            self._edges[key] = ()
            return ()
        edges = tuple(self._resolve_site(site) for site in fn.calls)
        self._edges[key] = edges
        return edges

    def _resolve_site(self, site: CallSite) -> Edge:
        kind = site.spec[0]
        target: tuple[str, ...]
        if kind == "direct":
            resolved = self.resolve_symbol(site.spec[1])
            if resolved[0] == "fn":
                target = resolved
            elif resolved[0] == "class":
                init = self.resolve_method(resolved[1], "__init__")
                target = (("fn",) + init if init is not None
                          else ("external", f"{resolved[1]}()"))
            elif resolved[0] == "external":
                target = resolved
            else:
                target = ("unknown", resolved[1])
        elif kind == "self":
            found = self.resolve_method(site.spec[1], site.spec[2])
            target = (("fn",) + found if found is not None
                      else ("unknown",
                            f"no method {site.spec[2]} on {site.spec[1]}"))
        elif kind == "typed":
            resolved = self.resolve_symbol(site.spec[1])
            canonical = resolved[1] if resolved[0] == "class" \
                else site.spec[1]
            found = self.resolve_method(canonical, site.spec[2])
            if found is not None:
                target = ("fn",) + found
            elif resolved[0] == "external":
                target = ("external", f"{site.spec[1]}.{site.spec[2]}")
            else:
                target = ("unknown",
                          f"no method {site.spec[2]} on {site.spec[1]}")
        else:
            target = ("unknown", site.spec[1] if len(site.spec) > 1 else "?")
        return Edge(line=site.line, col=site.col, target=target,
                    offloaded=site.offloaded, args=site.args,
                    kwargs=site.kwargs)

    # -- derived fixpoints -----------------------------------------------------

    def returns_versioned(self, key: FnKey) -> str:
        """``yes`` / ``no`` / ``unknown``: does this function always
        return a schema-versioned key?  Computed as a fixpoint so
        producers may chain through other modules."""
        if self._returns_versioned is None:
            self._returns_versioned = self._compute_returns_versioned()
        return self._returns_versioned.get(key, "unknown")

    def _compute_returns_versioned(self) -> dict[FnKey, str]:
        status: dict[FnKey, str] = {}
        for key, fn in self._functions.items():
            if not fn.returns:
                status[key] = "unknown"
            elif all(summary == "versioned" for summary in fn.returns):
                status[key] = "yes"
            elif any(summary == "unversioned" for summary in fn.returns):
                status[key] = "no"
            else:
                status[key] = "pending"
        for _ in range(4):  # chains deeper than this degrade to unknown
            changed = False
            for key, fn in self._functions.items():
                if status[key] != "pending":
                    continue
                verdicts = []
                for summary in fn.returns:
                    if summary == "versioned":
                        verdicts.append("yes")
                    elif summary == "unversioned":
                        verdicts.append("no")
                    elif summary.startswith("call:"):
                        resolved = self.resolve_symbol(summary[5:])
                        verdicts.append(
                            status.get((resolved[1], resolved[2]), "unknown")
                            if resolved[0] == "fn" else "unknown")
                    else:
                        verdicts.append("unknown")
                if "no" in verdicts:
                    new = "no"
                elif all(v == "yes" for v in verdicts):
                    new = "yes"
                elif "pending" in verdicts:
                    continue
                else:
                    new = "unknown"
                if status[key] != new:
                    status[key] = new
                    changed = True
            if not changed:
                break
        return {key: ("unknown" if value == "pending" else value)
                for key, value in status.items()}

    def unpicklable_state(self, canonical_cls: str
                          ) -> tuple[str, str, int] | None:
        """(attribute, reason, line) if instances hold unpicklable state.

        Includes state inherited from in-package bases and held through
        one level of composition (an attribute that is an instance of
        another unpicklable package class).
        """
        if self._unpicklable is None:
            self._unpicklable = self._compute_unpicklable()
        resolved = self.resolve_symbol(canonical_cls)
        if resolved[0] == "class":
            canonical_cls = resolved[1]
        return self._unpicklable.get(canonical_cls)

    def _compute_unpicklable(self) -> dict[str, tuple[str, str, int]]:
        direct: dict[str, tuple[str, str, int]] = {}
        for canonical, (_, cls) in self._classes.items():
            for attr, ctor, line in cls.unpicklable:
                if ctor in UNPICKLABLE_CTORS:
                    direct[canonical] = (attr, ctor, line)
                    break
        # Inheritance + one-level composition fixpoint.
        for _ in range(3):
            changed = False
            for canonical, (_, cls) in self._classes.items():
                if canonical in direct:
                    continue
                for base in cls.bases:
                    base_resolved = self.resolve_symbol(base)
                    base_name = base_resolved[1] \
                        if base_resolved[0] == "class" else base
                    if base_name in direct:
                        attr, ctor, line = direct[base_name]
                        direct[canonical] = (attr, ctor, cls.line)
                        changed = True
                        break
                if canonical in direct:
                    continue
                for attr, ctor, line in cls.unpicklable:
                    if not ctor.startswith("instance:"):
                        continue
                    inner = ctor[len("instance:"):]
                    inner_resolved = self.resolve_symbol(inner)
                    inner_name = inner_resolved[1] \
                        if inner_resolved[0] == "class" else inner
                    if inner_name in direct:
                        inner_attr, inner_ctor, _ = direct[inner_name]
                        direct[canonical] = (
                            f"{attr}.{inner_attr}", inner_ctor, line)
                        changed = True
                        break
            if not changed:
                break
        return direct


def short_fn(key: FnKey) -> str:
    """Human-readable ``module:qualname`` for diagnostics."""
    module = key[0]
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}.{key[1]}"


def is_package_path(path: str) -> bool:
    """Whether ``path`` is non-test repro package code (rule scope)."""
    path = path.replace("\\", "/")
    return ("repro/" in path and "repro/analysis/" not in path
            and not is_test_path(path))
