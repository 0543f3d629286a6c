"""Rule ``handler-hygiene``: no mutable default arguments.

A function with ``acc=[]`` shares one list across every call *and every
simulation run in the process* — state leaks between supposedly
independent experiments.  Flagged for every function because any
function may end up as a per-tick callback.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["HandlerHygieneRule"]

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray",
                                   "defaultdict", "deque", "Counter"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS)


@register
class HandlerHygieneRule(Rule):
    rule_id = "handler-hygiene"
    description = "mutable default argument"

    def check(self, ctx: ModuleContext, index: ProjectIndex,
              config: LintConfig) -> Iterator[Diagnostic]:
        for node in ctx.nodes_of_type(ast.FunctionDef, ast.AsyncFunctionDef):
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.diagnostic(
                        ctx, default.lineno, default.col_offset,
                        f"mutable default argument in '{node.name}'; "
                        f"repeated calls share it across runs — default "
                        f"to None and allocate inside")
