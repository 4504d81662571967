"""KER001 fixture: vectorised, looping, and pragma-suppressed kernels."""

import numpy as np

from repro.pregel.messages import sum_by_group


class VectorisedKernel:
    """Pure array operations: clean."""

    def compute_batch(self, block):
        """Sum incoming mail per row with a single scatter-add."""
        incoming = np.bincount(
            block.msg_row, weights=block.msg_values, minlength=len(block)
        )
        return incoming * 0.85

    def compute(self, ctx, messages):
        """The scalar reference loop is allowed to iterate."""
        total = 0.0
        for message in messages:
            total += message
        return total


class LoopingKernel:
    """Per-vertex Python iteration inside the kernel: four findings."""

    def compute_batch(self, block):
        """Every loop form the rule must catch."""
        totals = [sum(box) for box in block.boxes]
        folded = {row: t for row, t in enumerate(totals)}
        for row in range(len(block)):
            folded[row] += 1.0
        while folded:
            folded.popitem()
        return totals


class NestedLoopKernel:
    """Hiding the loop in a nested helper does not vectorise it."""

    def compute_batch(self, block):
        """One finding: the generator inside the helper."""

        def fold(boxes):
            return sum(sum(box) for box in boxes)

        return fold(block.boxes)


class DecliningKernel:
    """A bounded, explained loop under a pragma: clean."""

    def compute_batch(self, block):
        """Three label classes, never block rows."""
        for bucket in (0, 1, 2):  # reprolint: allow-KER001 fixture shows a bounded non-row loop under pragma
            if bucket in block.classes:
                return None
        return block.values


class RecordKernel:
    """A two-wide record kernel on column slices and one fold: clean."""

    def compute_batch(self, block):
        """``(v, w)`` rows stay an ``(n, 2)`` array from inbox to outbox."""
        v, w = block.values[:, 0], block.values[:, 1]
        folded = sum_by_group(block.msg_row, block.msg_values, len(block))
        return np.stack((v + folded[:, 0] - folded[:, 1] * v, w), axis=1)


class RecordRowLoopKernel:
    """Unpacking the records row by row is a per-vertex loop: one finding."""

    def compute_batch(self, block):
        """Tuples out of an ``(n, 2)`` column, one Python step per row."""
        return np.array([(v + 1.0, w) for v, w in block.values])
