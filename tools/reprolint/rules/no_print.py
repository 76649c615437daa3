"""Rule ``no-print``: library modules never write to stdout directly.

Library code reports through stdlib ``logging`` and the telemetry layer;
stdout belongs to the CLI front end (``repro/cli.py``) and the experiment
report renderers (``reporting.py``), which exist to print.  An AST pass, not
a grep — docstrings and comments mentioning ``print()`` don't trip it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.driver import Finding, ModuleInfo
from tools.reprolint.registry import register

# Modules whose job is writing to stdout (matched by file name, exactly as
# the original standalone lint did).
ALLOWED_FILES = frozenset({"cli.py", "reporting.py"})


@register(
    "no-print",
    description="no print() calls in library modules",
    invariant="library code reports via logging/telemetry; stdout belongs "
              "to cli.py and reporting.py",
)
def check_no_print(module: ModuleInfo) -> Iterator[Finding]:
    if module.path.name in ALLOWED_FILES:
        return
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield Finding(
                rule="no-print", path=str(module.path), line=node.lineno,
                message="print() call in library module — use logging or "
                        "the telemetry layer instead",
            )
