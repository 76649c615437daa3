"""repro.service — the unified synopsis service API.

Three first-class objects separate the concerns every entry point used to
re-plumb by hand:

* :class:`~repro.service.profile.RuntimeProfile` — *how to run*: cluster,
  cost parameters, seed, executor spec, data plane, as one frozen value.
  It is the only runtime argument of every build entry point, e.g.
  ``HistogramAlgorithm.run(hdfs, input_path, profile=...)``.
* the algorithm registry (:mod:`repro.algorithms.registry`) — *what to
  build*: ``make_algorithm(name, u=..., k=..., **params)`` resolves any of
  the paper's seven algorithms (or a registered extension) by name.
* :class:`~repro.service.facade.SynopsisService` — *where it lives and how
  it serves*: ``build(spec, dataset, profile)`` publishes a stored version
  to any :class:`~repro.serving.store.SynopsisStore` backend, and
  ``query(names, los, his)`` fans one workload across many stored synopses
  with deterministic, executor- and backend-independent answers.

The façade is imported lazily (PEP 562) so that low-level modules —
``repro.algorithms.base`` imports :class:`RuntimeProfile` from here — never
pull the whole algorithm/serving stack in behind a profile import.
"""

from repro.service.profile import RuntimeProfile

__all__ = ["RuntimeProfile", "AlgorithmSpec", "BuildReport", "BuildRequest",
           "SynopsisService"]

_FACADE_EXPORTS = {"AlgorithmSpec", "BuildReport", "BuildRequest", "SynopsisService"}


def __getattr__(name):
    if name in _FACADE_EXPORTS:
        from repro.service import facade

        return getattr(facade, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FACADE_EXPORTS)
