"""Connected components by minimum-label propagation.

Validation workload with an exact answer (``Graph.connected_components``).
Every vertex adopts the smallest label it has heard of and gossips it on;
quiescence ⇒ per-component constant labels.
"""

from repro.pregel.messages import min_combiner
from repro.pregel.vertex import BatchedVertexProgram, BlockResult

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["ConnectedComponents"]


class ConnectedComponents(BatchedVertexProgram):
    """Min-label flood; vertex values end as component representatives.

    Vertex ids must be orderable within a graph (ints or strs, unmixed).
    """

    name = "connected-components"
    batch_dtype = "int64"

    def initial_value(self, vertex_id, graph):
        return vertex_id

    def compute(self, ctx, messages):
        if ctx.superstep == 1:
            ctx.send_to_neighbors(ctx.value)
            ctx.vote_to_halt()
            return
        best = min(messages) if messages else ctx.value
        if best < ctx.value:
            ctx.value = best
            ctx.send_to_neighbors(best)
        ctx.vote_to_halt()

    def compute_batch(self, block):
        """Whole-block min-label flood (int ids: no store holds a string)."""
        values = block.values
        if block.superstep == 1:
            return BlockResult(
                values, out=block.emit_to_neighbors(values), halt=True
            )
        best = values.copy()
        if len(block.msg_values):
            _np.minimum.at(best, block.msg_row, block.msg_values)
        adopters = _np.flatnonzero(best < values)
        out = block.emit_to_neighbors(best[adopters], rows=adopters)
        return BlockResult(best, out=out, halt=True)

    def combiner(self):
        return min_combiner
