"""Whole-program index over the repro source tree (stdlib ``ast`` only).

The per-file rules cannot see the bug class that overlapped execution
creates: state mutated from both the training thread and the async
selection worker.  This module builds the cross-file facts NES009
needs:

- :class:`FileIndex` — one file's contribution: imports, classes,
  function summaries (call sites, attribute writes).
- :class:`ProjectIndex` — the assembled program: a module/symbol table,
  a conservative call graph (explicit calls, ``self.x()`` dispatch,
  attribute-type inference, class-hierarchy-analysis fallback), spawn
  edges (``threading.Thread(target=...)``, pool submissions) and
  worker/main reachability closures.

Precision choices are deliberately conservative-but-bounded:

- ``self.attr.m()`` resolves through the attribute type inferred from
  ``self.attr = ClassName(...)`` in the owning class; attrs built from
  non-project constructors (``OrderedDict``, ``threading.Lock``)
  resolve to *nothing* — external objects are out of scope.
- unresolved method calls fall back to class-hierarchy analysis: every
  project method of that name, but only when at most
  :data:`CHA_LIMIT` classes define it and the name is not a dunder.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "AttrWrite",
    "CallSite",
    "FileIndex",
    "FunctionSummary",
    "ProjectIndex",
    "build_file_index",
    "module_name_for_path",
    "CHA_LIMIT",
]

# CHA fallback gives up above this many candidate classes: a method name
# defined this widely would connect unrelated subsystems.
CHA_LIMIT = 12

# Method names that collide with builtin container/str/file/queue/thread
# methods never dispatch through CHA: otherwise every ``d.get(k)`` in
# worker code would wire the worker closure into every project class
# with a ``get`` method.  Typed receivers (``t:``/``a:``/``r:``) still
# resolve these names precisely.
CHA_STOPLIST = frozenset({
    "get", "pop", "popitem", "setdefault", "update", "clear", "copy",
    "keys", "values", "items",
    "append", "extend", "insert", "remove", "sort", "reverse",
    "index", "count",
    "add", "discard", "union", "difference", "intersection",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
    "encode", "decode", "replace", "startswith", "endswith",
    "lower", "upper", "title",
    "read", "write", "readline", "readlines", "flush", "seek", "tell",
    "close",
    "put", "get_nowait", "put_nowait",
    "start", "is_alive", "acquire", "release",
    # torch-convention module-mode protocol: ``model.train()`` /
    # ``model.eval()`` on a duck-typed model must not dispatch into
    # a project class that happens to define ``train``
    "train", "eval",
})

_POOL_SUBMIT = {
    "map", "map_async", "imap", "imap_unordered",
    "apply", "apply_async", "starmap", "starmap_async", "submit",
}


def module_name_for_path(path: str) -> str:
    """Dotted module name for a recorded (posix) file path.

    Anchors at the first ``repro`` segment when present so the same
    module name comes out of ``src/repro/x.py`` and ``repro/x.py``;
    fixture trees without the anchor use the full relative path.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


@dataclass
class CallSite:
    """One call (or thread/pool spawn) inside a function body.

    ``target`` encodings: ``q:<dotted>`` import/module-resolved,
    ``s:<class>:<meth>`` for ``self.meth()``, ``a:<class>:<attr>:<meth>``
    for ``self.attr.meth()``, ``t:<class>:<meth>`` for a method on a
    local whose class is known (annotation or constructor assignment),
    ``r:<inner>:<meth>`` for a method on another call's result
    (resolved through the inner callee's return annotation), and
    ``m:<meth>`` for a method call on an arbitrary value.
    """

    target: str
    line: int
    col: int
    kind: str = "call"  # "call" | "spawn"


@dataclass
class AttrWrite:
    """One shared-state write: ``self.x = ...`` or a module-global.

    ``owner`` is ``c:<class qualname>`` or ``g:<module>``; ``locked``
    records whether the write sits lexically inside a ``with``-block
    whose context expression names a lock.
    """

    owner: str
    attr: str
    line: int
    col: int
    locked: bool = False


@dataclass
class FunctionSummary:
    """Everything the project rules need about one function."""

    qualname: str
    path: str
    line: int
    cls: str = ""  # owning class qualname, "" for module-level
    return_type: str = ""  # annotated return class (resolved dotted)
    calls: list[CallSite] = field(default_factory=list)
    writes: list[AttrWrite] = field(default_factory=list)


@dataclass
class FileIndex:
    """One file's contribution to the :class:`ProjectIndex`."""

    path: str
    module: str
    imports: dict = field(default_factory=dict)  # local name -> dotted target
    classes: dict = field(default_factory=dict)  # class qualname -> {meth: fn}
    attr_types: dict = field(default_factory=dict)  # cls -> {attr: "q:.."|"?"}
    functions: dict = field(default_factory=dict)  # qualname -> FunctionSummary


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, "" otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_lockish(expr: ast.AST) -> bool:
    name = _dotted(expr)
    if not name and isinstance(expr, ast.Call):
        name = _dotted(expr.func)
    low = name.lower()
    return any(frag in low for frag in ("lock", "mutex", "semaphore"))


class _Indexer(ast.NodeVisitor):
    """Single-pass AST walker building one :class:`FileIndex`."""

    def __init__(self, path: str, module: str):
        self.index = FileIndex(path=path, module=module)
        self._class_stack: list[str] = []
        self._fn_stack: list[FunctionSummary] = []
        self._local_defs: list[dict] = []  # per-fn: name -> qualname
        self._module_defs: dict[str, str] = {}  # module-level name -> qualname
        self._module_globals: set[str] = set()
        self._lock_depth = 0
        self._globals_declared: list[set] = []  # per-fn `global` names
        self._var_types: list[dict] = []  # per-fn: local name -> class dotted

    # -- scope helpers -------------------------------------------------

    def _qualname(self, name: str) -> str:
        if self._fn_stack:
            return f"{self._fn_stack[-1].qualname}.<locals>.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1]}.{name}"
        return f"{self.index.module}.{name}" if self.index.module else name

    def _lookup(self, name: str) -> str:
        """Resolve a bare name to a dotted target, "" if unknown."""
        for defs in reversed(self._local_defs):
            if name in defs:
                return defs[name]
        if name in self._module_defs:
            return self._module_defs[name]
        if name in self.index.imports:
            return self.index.imports[name]
        return ""

    def _local_type(self, name: str) -> str:
        for types in reversed(self._var_types):
            if name in types:
                return types[name]
        return ""

    def _annotation_class(self, ann) -> str:
        """Resolve a parameter/return annotation to a dotted class name.

        Handles ``Cls``, ``pkg.Cls``, string literals, ``Optional[Cls]``
        and ``Cls | None``; containers and non-class annotations come
        back empty (they are not useful method receivers).
        """
        if ann is None:
            return ""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return ""
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_class(ann.left) or self._annotation_class(
                ann.right
            )
        if isinstance(ann, ast.Subscript):
            base = _dotted(ann.value)
            if base.rsplit(".", 1)[-1] == "Optional":
                return self._annotation_class(ann.slice)
            return ""
        name = _dotted(ann)
        if not name:
            return ""
        last = name.rsplit(".", 1)[-1]
        if last == "None" or not last[:1].isupper():
            return ""
        head, _, rest = name.partition(".")
        resolved = self._lookup(head)
        if resolved:
            return f"{resolved}.{rest}" if rest else resolved
        return ""

    def _result_class(self, call: ast.Call) -> str:
        """Class a call's result is known to be, from the callee shape:
        ``ClassName(...)`` and alt-constructor ``ClassName.method(...)``
        both type as ``ClassName``."""
        encoded = self._encode_callable(call.func)
        if not encoded.startswith("q:"):
            return ""
        dotted = encoded[2:]
        parts = dotted.split(".")
        if parts[-1][:1].isupper():
            return dotted
        if len(parts) >= 2 and parts[-2][:1].isupper():
            return ".".join(parts[:-1])
        return ""

    def _encode_callable(self, func: ast.AST) -> str:
        """Encode a callable expression into a call-target string."""
        if isinstance(func, ast.Name):
            target = self._lookup(func.id)
            return f"q:{target}" if target else ""
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and self._class_stack:
                return f"s:{self._class_stack[-1]}:{func.attr}"
            if isinstance(base, ast.Name):
                typed = self._local_type(base.id)
                if typed:
                    return f"t:{typed}:{func.attr}"
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and self._class_stack
            ):
                return f"a:{self._class_stack[-1]}:{base.attr}:{func.attr}"
            if isinstance(base, ast.Call):
                inner = self._encode_callable(base.func)
                if inner:
                    return f"r:{inner}:{func.attr}"
            dotted = _dotted(func)
            if dotted:
                head, _, rest = dotted.partition(".")
                resolved = self._lookup(head)
                if resolved:
                    return f"q:{resolved}.{rest}" if rest else f"q:{resolved}"
            return f"m:{func.attr}"
        return ""

    # -- definitions ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.index.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # relative import: anchor at this module's package
            pkg_parts = self.index.module.split(".")
            # a module file's package drops the last segment; an
            # __init__ module *is* its package (module name already
            # excludes the __init__ segment)
            if not self.index.path.endswith("__init__.py"):
                pkg_parts = pkg_parts[:-1]
            if node.level > 1:
                pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
            base = ".".join(pkg_parts + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.index.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        if not self._fn_stack and not self._class_stack:
            self._module_defs[node.name] = qualname
        elif self._fn_stack:
            self._local_defs[-1][node.name] = qualname
        for dec in node.decorator_list:
            self.visit(dec)
        self._class_stack.append(qualname)
        self.index.classes.setdefault(qualname, {})
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        qualname = self._qualname(node.name)
        if self._fn_stack:
            self._local_defs[-1][node.name] = qualname
        elif not self._class_stack:
            self._module_defs[node.name] = qualname
        if self._class_stack and not self._fn_stack:
            self.index.classes[self._class_stack[-1]][node.name] = qualname
        for dec in node.decorator_list:
            self.visit(dec)
        summary = FunctionSummary(
            qualname=qualname,
            path=self.index.path,
            line=node.lineno,
            cls=self._class_stack[-1] if self._class_stack else "",
            return_type=self._annotation_class(node.returns),
        )
        self.index.functions[qualname] = summary
        self._fn_stack.append(summary)
        self._local_defs.append({})
        self._globals_declared.append(set())
        var_types: dict = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            typed = self._annotation_class(arg.annotation)
            if typed:
                var_types[arg.arg] = typed
        self._var_types.append(var_types)
        outer_lock = self._lock_depth
        self._lock_depth = 0
        for stmt in node.body:
            self.visit(stmt)
        self._lock_depth = outer_lock
        self._fn_stack.pop()
        self._local_defs.pop()
        self._globals_declared.pop()
        self._var_types.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- statements ----------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        if self._globals_declared:
            self._globals_declared[-1].update(node.names)

    def _visit_with(self, node) -> None:
        lockish = any(_is_lockish(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if lockish:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if lockish:
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _record_write_target(self, target: ast.AST) -> None:
        if not self._fn_stack:
            # class-body fields are not module globals
            if not self._class_stack and isinstance(target, ast.Name):
                self._module_globals.add(target.id)
            return
        summary = self._fn_stack[-1]
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and summary.cls
        ):
            summary.writes.append(AttrWrite(
                owner=f"c:{summary.cls}", attr=node.attr,
                line=target.lineno, col=target.col_offset + 1,
                locked=self._lock_depth > 0,
            ))
        elif isinstance(node, ast.Name):
            declared_global = node.id in self._globals_declared[-1]
            module_level = node.id in self._module_globals
            is_subscript = isinstance(target, ast.Subscript)
            if declared_global or (module_level and is_subscript):
                summary.writes.append(AttrWrite(
                    owner=f"g:{self.index.module}", attr=node.id,
                    line=target.lineno, col=target.col_offset + 1,
                    locked=self._lock_depth > 0,
                ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write_target(target)
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._record_write_target(elt)
        self._note_attr_type(node)
        if self._var_types and isinstance(node.value, ast.Call):
            typed = self._result_class(node.value)
            if typed:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._var_types[-1][target.id] = typed
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self.visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._var_types and isinstance(node.target, ast.Name):
            typed = self._annotation_class(node.annotation)
            if typed:
                self._var_types[-1][node.target.id] = typed
        if node.value is not None:
            self._record_write_target(node.target)
            self.visit(node.value)

    def _note_attr_type(self, node: ast.Assign) -> None:
        """Record ``self.attr = ClassName(...)`` for attribute dispatch."""
        if not (self._class_stack and self._fn_stack):
            return
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        if not isinstance(node.value, ast.Call):
            return
        encoded = self._encode_callable(node.value.func)
        if not encoded.startswith("q:"):
            return
        last = encoded.rsplit(".", 1)[-1].split(":")[-1]
        if not (last and last[0].isupper()):
            return
        table = self.index.attr_types.setdefault(self._class_stack[-1], {})
        prior = table.get(target.attr)
        if prior is not None and prior != encoded:
            table[target.attr] = "?"
        else:
            table[target.attr] = encoded

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self._fn_stack:
            summary = self._fn_stack[-1]
            spawn_target = self._spawn_target(node)
            if spawn_target:
                summary.calls.append(CallSite(
                    target=spawn_target, line=node.lineno,
                    col=node.col_offset + 1, kind="spawn",
                ))
            encoded = self._encode_callable(node.func)
            if encoded:
                summary.calls.append(CallSite(
                    target=encoded, line=node.lineno, col=node.col_offset + 1,
                ))
        self.generic_visit(node)

    def _spawn_target(self, node: ast.Call) -> str:
        func_name = _dotted(node.func)
        if func_name.rsplit(".", 1)[-1] == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    return self._encode_callable(kw.value)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_SUBMIT
            and node.args
        ):
            target = self._encode_callable(node.args[0])
            if target:
                return target
        return ""


def build_file_index(source: str, path: str) -> FileIndex | None:
    """Index one file; ``None`` when the file does not parse (the
    engine's NES000 already reports that)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    indexer = _Indexer(path, module_name_for_path(path))
    # pre-seed module-level names so helpers defined *after* their
    # callers (the common "public first" layout) still resolve
    for stmt in tree.body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            indexer._module_defs[stmt.name] = (
                f"{indexer.index.module}.{stmt.name}"
                if indexer.index.module
                else stmt.name
            )
    indexer.visit(tree)
    return indexer.index


class ProjectIndex:
    """The assembled program: symbol tables, call graph, reachability."""

    def __init__(self, file_indexes: list[FileIndex]):
        self.files: dict[str, FileIndex] = {fi.path: fi for fi in file_indexes}
        self.modules: dict[str, FileIndex] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, dict] = {}
        self.attr_types: dict[str, dict] = {}
        self.method_index: dict[str, list] = {}
        for fi in file_indexes:
            # first writer wins on module-name collisions (fixture trees)
            self.modules.setdefault(fi.module, fi)
            self.functions.update(fi.functions)
            for cls, methods in fi.classes.items():
                self.classes.setdefault(cls, {}).update(methods)
            for cls, attrs in fi.attr_types.items():
                self.attr_types.setdefault(cls, {}).update(attrs)
        for cls, methods in self.classes.items():
            for name, fn in methods.items():
                self.method_index.setdefault(name, []).append(fn)
        for name in self.method_index:
            self.method_index[name].sort()
        self._resolve_cache: dict[str, frozenset] = {}
        self._worker: dict[str, str] | None = None
        self._main: set | None = None

    # -- call-target resolution ----------------------------------------

    def resolve(self, target: str) -> frozenset:
        """Project functions a call-target encoding may dispatch to."""
        cached = self._resolve_cache.get(target)
        if cached is not None:
            return cached
        self._resolve_cache[target] = frozenset()  # cycle guard
        kind, _, rest = target.partition(":")
        if kind == "q":
            out = self._resolve_q(rest, depth=0)
        elif kind == "s":
            cls, _, meth = rest.partition(":")
            fn = self.classes.get(cls, {}).get(meth)
            out = frozenset([fn]) if fn else self._cha(meth)
        elif kind == "a":
            cls, _, tail = rest.partition(":")
            attr, _, meth = tail.partition(":")
            out = self._resolve_attr_call(cls, attr, meth)
        elif kind == "t":
            cls, _, meth = rest.rpartition(":")
            out = self._resolve_typed(cls, meth)
        elif kind == "r":
            inner, _, meth = rest.rpartition(":")
            out = self._resolve_result_call(inner, meth)
        elif kind == "m":
            out = self._cha(rest)
        else:
            out = frozenset()
        self._resolve_cache[target] = out
        return out

    def _cha(self, meth: str) -> frozenset:
        if meth.startswith("__") or meth in CHA_STOPLIST:
            return frozenset()
        cands = self.method_index.get(meth, [])
        if 0 < len(cands) <= CHA_LIMIT:
            return frozenset(cands)
        return frozenset()

    def _resolve_typed(self, cls: str, meth: str) -> frozenset:
        """Dispatch on a receiver whose class is known precisely."""
        if cls in self.classes:
            fn = self.classes[cls].get(meth)
            return frozenset([fn]) if fn else self._cha(meth)
        return frozenset()  # external class: no project edges

    def _resolve_result_call(self, inner: str, meth: str) -> frozenset:
        """Dispatch on a call result via the callee's return annotation."""
        if inner.startswith("q:") and inner[2:] in self.classes:
            return self._resolve_typed(inner[2:], meth)
        classes = set()
        for callee in self.resolve(inner):
            summary = self.functions.get(callee)
            if summary is not None and summary.return_type:
                classes.add(summary.return_type)
        if not classes:
            return self._cha(meth)
        out: set = set()
        for cls in classes:
            out |= self._resolve_typed(cls, meth)
        return frozenset(out)

    def _resolve_attr_call(self, cls: str, attr: str, meth: str) -> frozenset:
        encoded = self.attr_types.get(cls, {}).get(attr)
        if encoded is None or encoded == "?":
            return self._cha(meth)
        dotted = encoded[2:] if encoded.startswith("q:") else encoded
        if dotted in self.classes:
            fn = self.classes[dotted].get(meth)
            return frozenset([fn]) if fn else self._cha(meth)
        # typed by a non-project constructor: external object, no edges
        return frozenset()

    def _resolve_q(self, dotted: str, depth: int) -> frozenset:
        if depth > 5 or not dotted:
            return frozenset()
        if dotted in self.functions:
            return frozenset([dotted])
        if dotted in self.classes:
            init = f"{dotted}.__init__"
            return frozenset([init]) if init in self.functions else frozenset()
        # chase package re-exports: repro.obs.span -> repro.obs.tracer.span
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            fi = self.modules.get(prefix)
            if fi is None:
                continue
            forwarded = fi.imports.get(parts[i])
            if forwarded:
                rest = parts[i + 1:]
                return self._resolve_q(".".join([forwarded] + rest), depth + 1)
        return frozenset()

    # -- reachability --------------------------------------------------

    def _closure(self, roots: dict, follow_spawns: bool) -> dict:
        seen = dict(roots)
        stack = list(roots)
        while stack:
            fn = stack.pop()
            summary = self.functions.get(fn)
            if summary is None:
                continue
            via = seen[fn]
            for site in summary.calls:
                if site.kind == "spawn" and not follow_spawns:
                    continue
                for callee in self.resolve(site.target):
                    if callee not in seen:
                        seen[callee] = via
                        stack.append(callee)
        return seen

    def spawn_sites(self) -> list:
        """(spawning fn qualname, CallSite) for every spawn edge."""
        out = []
        for qualname in sorted(self.functions):
            for site in self.functions[qualname].calls:
                if site.kind == "spawn":
                    out.append((qualname, site))
        return out

    def worker_reachable(self) -> dict:
        """fn qualname -> entry provenance, closure from spawn targets."""
        if self._worker is None:
            roots: dict[str, str] = {}
            for spawner, site in self.spawn_sites():
                for fn in sorted(self.resolve(site.target)):
                    roots.setdefault(
                        fn, f"spawned by {spawner} (line {site.line})"
                    )
            self._worker = self._closure(roots, follow_spawns=True)
        return self._worker

    def main_reachable(self) -> set:
        """Functions reachable without crossing a spawn edge.

        Every function that is not itself a spawn target is a potential
        main-thread root (the engine cannot see external callers), so
        this is "everything except spawn-only code" — conservative in
        exactly the direction NES009 needs.
        """
        if self._main is None:
            spawn_targets = set()
            for _, site in self.spawn_sites():
                spawn_targets |= self.resolve(site.target)
            roots = {
                fn: fn for fn in self.functions if fn not in spawn_targets
            }
            self._main = set(self._closure(roots, follow_spawns=False))
        return self._main

    # -- shared-state writes -------------------------------------------

    def attr_write_sites(self) -> dict:
        """(owner, attr) -> [(fn qualname, AttrWrite)], sorted."""
        grouped: dict = {}
        for qualname in sorted(self.functions):
            for write in self.functions[qualname].writes:
                grouped.setdefault((write.owner, write.attr), []).append(
                    (qualname, write)
                )
        return grouped
