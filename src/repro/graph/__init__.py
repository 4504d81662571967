"""Dynamic graph substrate.

The paper's system ingests graphs that mutate continuously — vertices and
edges are injected and removed from a stream while computation runs.  This
package provides:

* :class:`repro.graph.graph.Graph` — the one dynamic graph every other layer
  shares: adjacency sets with O(1) amortised mutation, every vertex interned
  to a dense integer slot, and a CSR-style mirror built on demand for the
  batch sweep and ingest kernels;
* :mod:`repro.graph.events` — the vocabulary of mutation events
  (add/remove vertex/edge) with inverse computation for undo tests;
* :mod:`repro.graph.stream` — timestamped event streams, batching windows and
  replay helpers that feed the Pregel system's mutation channel.
"""

from repro.graph.events import (
    AddEdge,
    AddVertex,
    EventKind,
    GraphEvent,
    RemoveEdge,
    RemoveVertex,
    apply_event,
    apply_events,
    invert_event,
)
from repro.graph.graph import Graph
from repro.graph.stream import EventStream, TimedEvent, batch_by_count, batch_by_time

__all__ = [
    "AddEdge",
    "AddVertex",
    "EventKind",
    "EventStream",
    "Graph",
    "GraphEvent",
    "RemoveEdge",
    "RemoveVertex",
    "TimedEvent",
    "apply_event",
    "apply_events",
    "batch_by_count",
    "batch_by_time",
    "invert_event",
]
