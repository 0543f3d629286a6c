"""Per-module and cross-module analysis context.

:class:`ModuleContext` wraps one parsed file: its AST, a child→parent
map (so rules can ask "what class/function encloses this node?"), the
module's import tables, and a one-pass *node index* bucketing every AST
node by type — rules ask for exactly the node kinds they care about
(:meth:`ModuleContext.nodes_of_type`) instead of each re-walking the
whole tree.  :class:`ProjectIndex` aggregates function signatures
across every linted file so call-site rules (unit safety) can bind
positional arguments to parameter names, including across modules via
``from``-imports and unique method names; it also lazily builds and
caches the interprocedural effect analysis
(:mod:`repro.analysis.effects`) the purity rules run on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:
    from repro.analysis.effects import EffectAnalysis

__all__ = ["FunctionSig", "ModuleContext", "ProjectIndex"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class FunctionSig:
    """A callable's parameter-name signature, for argument binding.

    ``params`` lists parameters bindable positionally, in order, with
    the implicit ``self``/``cls`` of methods already dropped.
    ``keywords`` additionally includes keyword-only names.
    """

    module: str
    qualname: str
    params: tuple[str, ...]
    keywords: frozenset[str]
    has_vararg: bool
    is_method: bool


def _signature(node: FunctionNode, module: str, qualname: str,
               is_method: bool) -> FunctionSig:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    keywords = frozenset(positional) | frozenset(
        a.arg for a in args.kwonlyargs)
    return FunctionSig(module=module, qualname=qualname,
                       params=tuple(positional), keywords=keywords,
                       has_vararg=args.vararg is not None,
                       is_method=is_method)


def module_name_for(path: str) -> str:
    """Dotted module name for a file path (best effort).

    ``src/repro/sim/fold.py`` → ``repro.sim.fold``; paths outside a
    ``src`` root fall back to their package-relative tail so fixture
    files still index consistently.
    """
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


class ModuleContext:
    """One parsed module plus the lookups rules need."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)
        self._parents: dict[int, ast.AST] = {}
        # alias → dotted module, e.g. {"np": "numpy", "time": "time"}
        self.module_aliases: dict[str, str] = {}
        # local name → (source module, original name) for from-imports
        self.imported_names: dict[str, tuple[str, str]] = {}
        # One-pass node index: exact node type → nodes in walk order.
        self._nodes_by_type: dict[type, list[ast.AST]] = {}
        self._walk_order: dict[int, int] = {}
        self._index_tree()

    def _index_tree(self) -> None:
        """Single walk building parents, import tables and type buckets."""
        for order, node in enumerate(ast.walk(self.tree)):
            self._walk_order[id(node)] = order
            self._nodes_by_type.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = \
                        (node.module, alias.name)

    def nodes_of_type(self, *types: type) -> list[ast.AST]:
        """Every node of the exact given types, in ``ast.walk`` order.

        Replaces per-rule ``ast.walk`` sweeps: the tree is traversed once
        at parse time and each of the now-8+ rules pulls just the
        buckets it inspects.
        """
        if len(types) == 1:
            return list(self._nodes_by_type.get(types[0], ()))
        merged = [node for node_type in types
                  for node in self._nodes_by_type.get(node_type, ())]
        merged.sort(key=lambda node: self._walk_order[id(node)])
        return merged

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        """Innermost class containing ``node`` (None at module level)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
            if isinstance(ancestor, _FUNCTION_NODES):
                # Keep climbing: a method's body is still "inside" its
                # class for ownership purposes.
                continue
        return None

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionNode]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, _FUNCTION_NODES):
                return ancestor
        return None

    def path_matches(self, suffixes: tuple[str, ...]) -> bool:
        """True when this module's path ends with any of ``suffixes``."""
        normalized = PurePath(self.path).as_posix()
        return any(normalized.endswith(suffix) for suffix in suffixes)


@dataclass
class ProjectIndex:
    """Cross-module signature index for call-site argument binding."""

    # module → name → sig: module-level functions, plus classes mapped
    # to their __init__ so constructor calls bind too.
    module_level: dict[str, dict[str, FunctionSig]] = field(default_factory=dict)
    # module → class → method → sig
    methods: dict[str, dict[str, dict[str, FunctionSig]]] = field(
        default_factory=dict)
    # method name → every sig with that name, for unique-name fallback
    methods_by_name: dict[str, list[FunctionSig]] = field(default_factory=dict)
    # The contexts the index was built from, kept so the effect analysis
    # can be derived lazily (and cached) the first time a rule needs it.
    contexts: list[ModuleContext] = field(default_factory=list)
    _effects: Optional[object] = field(default=None, repr=False)

    @classmethod
    def build(cls, contexts: list[ModuleContext]) -> "ProjectIndex":
        index = cls(contexts=list(contexts))
        for ctx in contexts:
            index._add_module(ctx)
        return index

    def effect_analysis(self) -> "EffectAnalysis":
        """The interprocedural effect analysis over this project, built
        on first use and shared by every purity rule in the run."""
        if self._effects is None:
            from repro.analysis.effects import EffectAnalysis
            self._effects = EffectAnalysis.build(self.contexts, self)
        return self._effects  # type: ignore[return-value]

    def _add_module(self, ctx: ModuleContext) -> None:
        module_table = self.module_level.setdefault(ctx.module, {})
        method_table = self.methods.setdefault(ctx.module, {})
        for node in ctx.tree.body:
            if isinstance(node, _FUNCTION_NODES):
                module_table[node.name] = _signature(
                    node, ctx.module, node.name, is_method=False)
            elif isinstance(node, ast.ClassDef):
                per_class = method_table.setdefault(node.name, {})
                for item in node.body:
                    if not isinstance(item, _FUNCTION_NODES):
                        continue
                    decorators = {d.id for d in item.decorator_list
                                  if isinstance(d, ast.Name)}
                    is_method = "staticmethod" not in decorators
                    sig = _signature(item, ctx.module,
                                     f"{node.name}.{item.name}", is_method)
                    per_class[item.name] = sig
                    self.methods_by_name.setdefault(item.name, []).append(sig)
                    if item.name == "__init__":
                        module_table[node.name] = FunctionSig(
                            module=ctx.module, qualname=node.name,
                            params=sig.params, keywords=sig.keywords,
                            has_vararg=sig.has_vararg, is_method=False)

    def resolve_call(self, ctx: ModuleContext,
                     call: ast.Call) -> Optional[FunctionSig]:
        """Best-effort resolution of a call site to a known signature.

        Handles: same-module functions/constructors, ``from``-imported
        ones, ``module_alias.func(...)``, ``self.method(...)`` within a
        class, and — as a last resort — ``obj.method(...)`` when the
        method name is defined exactly once across the whole project.
        Unresolvable calls return None and the call site is skipped.
        """
        func = call.func
        if isinstance(func, ast.Name):
            local = self.module_level.get(ctx.module, {}).get(func.id)
            if local is not None:
                return local
            imported = ctx.imported_names.get(func.id)
            if imported is not None:
                source_module, original = imported
                return self.module_level.get(source_module, {}).get(original)
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    enclosing = ctx.enclosing_class(call)
                    if enclosing is not None:
                        sig = self.methods.get(ctx.module, {}).get(
                            enclosing.name, {}).get(func.attr)
                        if sig is not None:
                            return sig
                module = ctx.module_aliases.get(base.id)
                if module is not None:
                    return self.module_level.get(module, {}).get(func.attr)
            candidates = self.methods_by_name.get(func.attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None
