"""Developer tooling for the repository (not shipped with the package).

``tools.reprolint`` is the static-analysis suite (``python -m tools.reprolint``).
"""
