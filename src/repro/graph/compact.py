"""The retired name of :class:`repro.graph.graph.Graph`.

Every graph interns its ids and mirrors its CSR on demand, so there is
nothing left to choose.  The one reader of this name is the frozen perf
ledger (``benchmarks/e2e/workloads.py:29``); the next change to that
benchmark imports ``Graph`` instead and deletes this module.
"""

from repro.graph.graph import Graph

__all__ = ["CompactGraph"]

CompactGraph = Graph
