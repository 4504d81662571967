"""Single-source shortest paths (unit edge weights).

Validation workload: breadth-first distance from a source vertex, checked
against a sequential BFS in the tests.
"""

import math

from repro.core.sweep import id_column
from repro.pregel.messages import min_combiner
from repro.pregel.vertex import BatchedVertexProgram, BlockResult

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["SingleSourceShortestPaths"]


class SingleSourceShortestPaths(BatchedVertexProgram):
    """Pregel's canonical example, unit weights."""

    name = "sssp"
    batch_dtype = "float64"

    def __init__(self, source):
        self.source = source

    def initial_value(self, vertex_id, graph):
        return 0.0 if vertex_id == self.source else math.inf

    def compute(self, ctx, messages):
        best = min(messages) if messages else math.inf
        if ctx.superstep == 1 and ctx.vertex_id == self.source:
            best = 0.0
        if best < ctx.value or (
            ctx.superstep == 1 and ctx.vertex_id == self.source
        ):
            ctx.value = min(ctx.value, best)
            ctx.send_to_neighbors(ctx.value + 1.0)
        ctx.vote_to_halt()

    def compute_batch(self, block):
        """Whole-block relaxation; declines when the source is a label id
        (it cannot be matched against the block's int64 id column)."""
        source = id_column([self.source])
        if source is None:
            return None
        values = block.values
        best = _np.full(len(block), math.inf)
        _np.minimum.at(best, block.msg_row, block.msg_values)
        seeded = (block.ids == source[0]) & (block.superstep == 1)
        best[seeded] = 0.0
        relaxed = _np.flatnonzero((best < values) | seeded)
        values = values.copy()
        values[relaxed] = _np.minimum(values[relaxed], best[relaxed])
        out = block.emit_to_neighbors(values[relaxed] + 1.0, rows=relaxed)
        return BlockResult(values, out=out, halt=True)

    def combiner(self):
        return min_combiner
