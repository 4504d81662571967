"""Failure injection and checkpoint-based recovery.

Fig. 8's trace contains "a failure in one of the workers that led to the
triggering of recovery mechanism" — a sudden drop in throughput and
superstep time while the system restores state.  We make that mechanism
first-class and testable:

* the system checkpoints all vertex values every ``checkpoint_interval``
  barriers while its plan still has a failure scheduled (a run that
  cannot fail copies nothing);
* a :class:`FaultPlan` kills a chosen worker at a chosen superstep: the
  values of every vertex hosted there roll back to the last checkpoint,
  all in-flight messages are dropped (the BSP barrier cannot complete), and
  a recovery event with a modelled time penalty is recorded.

Vertices stay on their partition across the failure (the worker restarts in
place), matching the paper's behaviour where the partitioning survives.
"""

from dataclasses import dataclass, field

__all__ = ["Checkpointer", "FaultPlan"]


@dataclass
class FaultPlan:
    """Scheduled worker failures: {superstep: worker_id}."""

    failures: dict = field(default_factory=dict)

    def worker_failing_at(self, superstep):
        """Worker id scheduled to fail at ``superstep``, or None."""
        return self.failures.get(superstep)

    def pending(self, superstep):
        """True while a failure is scheduled at or after ``superstep``."""
        return any(at >= superstep for at in self.failures)

    def add(self, superstep, worker_id):
        """Schedule ``worker_id`` to fail at ``superstep``; returns self."""
        self.failures[superstep] = worker_id
        return self


class Checkpointer:
    """Periodic copy of vertex values (the recovery source), taken only
    while ``plan`` (a :class:`FaultPlan`) has a failure ahead."""

    def __init__(self, interval, plan):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.interval = interval
        self.plan = plan
        self._snapshot = {}
        self._snapshot_superstep = None

    def maybe_checkpoint(self, superstep, values):
        """Snapshot at every ``interval``-th barrier; returns True if taken."""
        if superstep % self.interval or not self.plan.pending(superstep):
            return False
        self._snapshot = dict(values)
        self._snapshot_superstep = superstep
        return True

    @property
    def last_checkpoint_superstep(self):
        """Superstep of the most recent snapshot (None before the first)."""
        return self._snapshot_superstep

    def restore_vertices(self, vertex_ids, values, reinitialise):
        """Roll the given vertices back to the snapshot.

        Vertices born after the snapshot (no entry) are re-initialised via
        ``reinitialise(vertex_id)``.  Returns the number restored.
        """
        restored = 0
        for vid in vertex_ids:
            if vid in self._snapshot:
                values[vid] = self._snapshot[vid]
            else:
                values[vid] = reinitialise(vid)
            restored += 1
        return restored
