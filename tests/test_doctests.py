"""Execute the doctests embedded in module docstrings.

Public-API docstrings carry usage examples; a stale example is worse than
no example, so they run as tests.
"""

import doctest

import pytest

import repro.analysis.report
import repro.core.convergence
import repro.core.heuristic
import repro.datasets.catalog
import repro.generators.mesh
import repro.generators.powerlaw
import repro.graph.compact
import repro.graph.graph
import repro.graph.stream
import repro.partitioning.registry
import repro.utils.rng
import repro.utils.stats
import repro.viz.slices

MODULES = [
    repro.analysis.report,
    repro.core.convergence,
    repro.core.heuristic,
    repro.datasets.catalog,
    repro.generators.mesh,
    repro.generators.powerlaw,
    repro.graph.compact,
    repro.graph.graph,
    repro.graph.stream,
    repro.partitioning.registry,
    repro.utils.rng,
    repro.utils.stats,
    repro.viz.slices,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
