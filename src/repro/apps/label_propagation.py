"""Label propagation community detection (Raghavan et al. [29]).

Included as the related-work comparator the paper discusses: community
detection finds densely connected groups but "do[es] not focus on finding
balanced partitions", and small graph changes can flip many labels.  The
integration tests use it to demonstrate exactly that contrast against the
capacity-bounded adaptive partitioner.

Each vertex adopts the most frequent label among its neighbours (ties
broken deterministically by label order), gossiping until labels stop
changing.
"""

from repro.pregel.vertex import BatchedVertexProgram, BlockResult

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["LabelPropagation"]


class LabelPropagation(BatchedVertexProgram):
    """Synchronous label propagation; value = current community label."""

    name = "label-propagation"
    batch_dtype = "int64"

    def __init__(self, max_rounds=50):
        self.max_rounds = max_rounds

    def initial_value(self, vertex_id, graph):
        return vertex_id

    def compute(self, ctx, messages):
        if ctx.superstep == 1:
            ctx.send_to_neighbors(ctx.value)
            ctx.vote_to_halt()
            return
        if ctx.superstep > self.max_rounds:
            ctx.vote_to_halt()
            return
        if messages:
            counts = {}
            for label in messages:
                counts[label] = counts.get(label, 0) + 1
            best = min(
                counts, key=lambda lab: (-counts[lab], str(lab))
            )
            if best != ctx.value and counts[best] >= counts.get(ctx.value, 0):
                ctx.value = best
                ctx.send_to_neighbors(best)
        ctx.vote_to_halt()

    def compute_batch(self, block):
        """Whole-block label adoption via grouped (row, label) counting.

        The scalar tie-break is ``min`` by ``(-count, str(label))``; here
        the candidate (row, label) pairs are lexsorted by row, then count
        descending, then the label's rank under *string* ordering, and the
        first pair per row wins — the same minimum.  String-labelled
        graphs never reach this kernel (no int64 array store holds them),
        so ``str`` ordering only ever ranks decimal renderings of ints.
        """
        values = block.values
        if block.superstep == 1:
            return BlockResult(
                values, out=block.emit_to_neighbors(values), halt=True
            )
        if block.superstep > self.max_rounds or not len(block.msg_values):
            return BlockResult(values, halt=True)
        labels, inv = _np.unique(block.msg_values, return_inverse=True)
        n_labels = len(labels)
        str_order = _np.argsort(labels.astype(_np.str_), kind="stable")
        str_rank = _np.empty(n_labels, dtype=_np.int64)
        str_rank[str_order] = _np.arange(n_labels, dtype=_np.int64)
        pair_codes, pair_counts = _np.unique(
            block.msg_row * n_labels + inv, return_counts=True
        )
        pair_row = pair_codes // n_labels
        pair_label = pair_codes % n_labels
        sel = _np.lexsort((str_rank[pair_label], -pair_counts, pair_row))
        mailed_rows, firsts = _np.unique(pair_row[sel], return_index=True)
        best_labels = labels[pair_label[sel[firsts]]]
        best_counts = pair_counts[sel[firsts]]
        # Count of each mailed row's *own* label among its messages (0 when
        # absent) — both searchsorted probes are validated before use.
        own = values[mailed_rows]
        pos = _np.searchsorted(labels, own).clip(max=n_labels - 1)
        own_code = mailed_rows * n_labels + pos
        loc = _np.searchsorted(pair_codes, own_code)
        loc = loc.clip(max=len(pair_codes) - 1)
        own_counts = _np.where(
            (labels[pos] == own) & (pair_codes[loc] == own_code),
            pair_counts[loc],
            0,
        )
        adopt = (best_labels != own) & (best_counts >= own_counts)
        adopt_rows = mailed_rows[adopt]
        new_values = values.copy()
        new_values[adopt_rows] = best_labels[adopt]
        out = block.emit_to_neighbors(best_labels[adopt], rows=adopt_rows)
        return BlockResult(new_values, out=out, halt=True)

    @staticmethod
    def communities(values):
        """Group vertices by final label: {label: set(vertices)}."""
        groups = {}
        for vertex, label in values.items():
            groups.setdefault(label, set()).add(vertex)
        return groups
