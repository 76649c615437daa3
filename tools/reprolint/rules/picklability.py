"""Rule ``picklability``: only module-level callables cross the executor seam.

The parallel executor ships task specs to worker processes with pickle, and
pickle serialises functions *by reference* — a lambda or a function defined
inside another function has no importable name, so the submit fails (or
worse, fails only when someone first runs ``--profile parallel``).  The
serial executor happily runs the same spec, which is exactly how this class
of bug escapes review.

This rule flags lambdas and locally-defined functions passed (positionally
or by keyword) to the executor seam's entry points: ``MapTaskSpec``,
``ReduceTaskSpec``, ``FunctionTaskSpec``, ``submit_task``, ``run_tasks`` and
pool ``submit``.  Module-level functions and methods referenced by name are
fine — they pickle by qualified name.

Heuristic limits: a callable smuggled through an intermediate variable of a
different scope, a ``functools.partial`` over a lambda, or a bound method of
a local object will not be caught — the executor-equivalence suites remain
the backstop.  Deliberate serial-only specs can carry
``# reprolint: disable=picklability`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from tools.reprolint.driver import Finding, ModuleInfo, dotted_name
from tools.reprolint.registry import register

# Constructors / methods whose callable arguments must be picklable.
_SPEC_CONSTRUCTORS = frozenset({
    "MapTaskSpec", "ReduceTaskSpec", "FunctionTaskSpec",
})
_SUBMIT_METHODS = frozenset({"submit_task", "run_tasks", "submit"})


def _target_name(call: ast.Call) -> Optional[str]:
    """The bare name of the called spec constructor / submit method, if any."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _SPEC_CONSTRUCTORS:
        return func.id
    name = dotted_name(func)
    if name is None:
        return None
    last = name.rsplit(".", 1)[-1]
    if last in _SPEC_CONSTRUCTORS or last in _SUBMIT_METHODS:
        return last
    return None


def _call_arguments(call: ast.Call) -> List[ast.expr]:
    values: List[ast.expr] = list(call.args)
    values.extend(kw.value for kw in call.keywords if kw.value is not None)
    return values


class _ScopeVisitor(ast.NodeVisitor):
    """Walks the module tracking locally-defined callable names per scope."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        # Stack of per-function local callable-name sets; empty at module
        # level (module-level defs pickle fine).
        self.local_callables: List[Set[str]] = []
        self.findings: List[Finding] = []

    # -- scope management -------------------------------------------------
    def _visit_function(self, node: ast.AST, body: List[ast.stmt]) -> None:
        local: Set[str] = set()
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.add(statement.name)
            elif isinstance(statement, ast.Assign):
                if isinstance(statement.value, ast.Lambda):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            local.add(target.id)
        self.local_callables.append(local)
        for statement in body:
            self.visit(statement)
        self.local_callables.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.body)

    # -- the check --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target = _target_name(node)
        if target is not None:
            for value in _call_arguments(node):
                problem = self._unpicklable(value)
                if problem is not None:
                    self.findings.append(Finding(
                        rule="picklability", path=str(self.module.path),
                        line=value.lineno,
                        message=(f"{problem} passed to {target}() cannot "
                                 "cross the process-pool boundary; move it "
                                 "to module level"),
                    ))
        self.generic_visit(node)

    def _unpicklable(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Name):
            for scope in self.local_callables:
                if value.id in scope:
                    return f"locally-defined function {value.id!r}"
        return None


@register(
    "picklability",
    description="no lambdas/local functions passed to task specs or "
                "executor submission",
    invariant="everything a task references must pickle by importable name "
              "so serial and parallel executors run identical code",
)
def check_picklability(module: ModuleInfo) -> Iterator[Finding]:
    visitor = _ScopeVisitor(module)
    visitor.visit(module.tree)
    yield from visitor.findings
