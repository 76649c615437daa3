"""Rule ``hot-path-copy``: no ad-hoc buffer copies on zero-copy hot paths.

PR 10 made the data plane buffer-backed end to end: columnar blocks route and
coalesce as views, synopsis payloads serve mmap'd, and query engines adopt
coefficient arrays without copying.  Those guarantees are one careless
``np.array(...)`` away from silently regressing — the code still passes every
equivalence test, it just quietly re-materialises the buffer it was supposed
to share.  This rule flags the idioms that create copies — ``np.array(...)``
calls, ``.copy()`` method calls, ``.tobytes()`` method calls and
``copy.deepcopy(...)`` calls — inside the designated hot-path modules.  The
runtime and the state store are among them: job state passes by reference as
frozen arrays, and a deep copy at the task boundary once cost H-WTopk most of
its build time.  So is ``repro.core.haar``, which holds the exact transform
every count-transforming mapper runs once per split.

Legitimate copies exist on those paths (serialisers *must* materialise bytes;
the dict-based reference constructors *are* the copying path) and carry the
usual pragma::

    payload = indices.tobytes()  # reprolint: disable=hot-path-copy

so every copy on a hot path is visibly deliberate.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.driver import Finding, ModuleInfo, dotted_name
from tools.reprolint.registry import register

# The zero-copy hot paths: modules whose whole point is moving buffers
# without materialising them.  (Dotted module names, exact match.)
HOT_PATH_MODULES = frozenset({
    "repro.core.haar",
    "repro.mapreduce.columnar",
    "repro.mapreduce.runtime",
    "repro.mapreduce.serialization",
    "repro.mapreduce.state",
    "repro.serving.engine",
    "repro.serving.store",
    "repro.serving.backends",
})

# Method names whose call is a copy regardless of the receiver's type.
COPY_METHODS = frozenset({"copy", "tobytes"})

# Calls that deep-copy whatever they are given.
DEEP_COPY_CALLS = frozenset({"copy.deepcopy", "deepcopy"})


@register(
    "hot-path-copy",
    description="no np.array()/.copy()/.tobytes()/copy.deepcopy() on "
                "zero-copy hot paths",
    invariant="columnar routing, job state, payload loading and engine "
              "construction share buffers; every copy on those paths "
              "carries a pragma",
)
def check_hot_path_copy(module: ModuleInfo) -> Iterator[Finding]:
    if module.module not in HOT_PATH_MODULES:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in ("np.array", "numpy.array"):
            yield Finding(
                rule="hot-path-copy", path=str(module.path), line=node.lineno,
                message="np.array() always copies — use np.asarray / a view, "
                        "or pragma a deliberate copy",
            )
        elif name in DEEP_COPY_CALLS:
            yield Finding(
                rule="hot-path-copy", path=str(module.path), line=node.lineno,
                message="copy.deepcopy() re-materialises a whole object graph "
                        "on a hot path — pass frozen arrays by reference, or "
                        "pragma a deliberate copy",
            )
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in COPY_METHODS):
            yield Finding(
                rule="hot-path-copy", path=str(module.path), line=node.lineno,
                message=f".{node.func.attr}() materialises a copy on a "
                        "zero-copy hot path — share the buffer, or pragma a "
                        "deliberate copy",
            )
