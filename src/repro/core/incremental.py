"""Incremental per-partition metrics maintained as deltas.

:class:`~repro.partitioning.base.PartitionState` keeps cut edges and
partition sizes exact per change; the per-partition **load** vector
(balance-policy units) needs the same, or every event batch would re-sum
O(|V|) unchanged loads.

:class:`IncrementalMetrics` owns that vector and maintains it as deltas:

* an admitted **move** shifts the mover's load between partitions — O(1);
* an applied **event** adjusts only the loads the event can change: the
  placed/removed vertex itself and — only for ``degree_sensitive`` balance
  policies such as :class:`~repro.core.balance.EdgeBalance` — the touched
  endpoints/neighbours, O(deg) worst case;
* :meth:`rebuild` is the O(|V|) from-scratch path (one ``bincount`` with
  numpy), and :meth:`cross_check`
  recounts everything (loads, sizes, cut) and raises on drift without
  touching the maintained values — each engine's ``audit()`` runs it, and
  ``play_scenario(audit=True)`` does so after every round.

Loads under the shipped policies are integer-valued floats (vertex counts or
degrees), so delta maintenance is bit-exact; :meth:`cross_check` still
compares with a relative tolerance to stay correct for user policies with
genuinely fractional loads.
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["IncrementalMetrics"]

# Relative tolerance for the cross-check's float comparison.  Exact for the
# integer-valued shipped policies; forgiving of summation-order noise for
# fractional user policies.
_REL_TOL = 1e-9


class IncrementalMetrics:
    """Per-partition load vector, maintained incrementally.

    Bound to a graph, a :class:`PartitionState` and a balance policy.  The
    owner must report every change through the hooks below; ``rebuild()``
    resets from scratch when the owner cannot (initialisation).
    """

    def __init__(self, graph, state, balance):
        self.graph = graph
        self.state = state
        self.balance = balance
        # getattr: duck-typed user policies without the flag default to the
        # safe degree-insensitive fast path only when they declare nothing.
        self._degree_sensitive = bool(getattr(balance, "degree_sensitive", False))
        self._loads = None
        self.rebuild()

    @property
    def degree_sensitive(self):
        """Whether the bound balance policy's loads depend on degrees.

        The batched ingestion path consults this: degree-sensitive loads
        need per-event neighbour snapshots, so batching falls back to the
        per-event loop for those policies.
        """
        return self._degree_sensitive

    # ------------------------------------------------------------------
    # Full recompute
    # ------------------------------------------------------------------

    def rebuild(self):
        """From-scratch O(|V|) recompute of the load vector."""
        self._loads = self._recount()

    def _recount(self):
        """Loads from scratch: one ``bincount`` of the partition column
        weighted by the policy's load column (a per-vertex loop without
        numpy).  Exact for integer-valued loads; fractional user loads may
        sum in a different order than the loop's."""
        k = self.state.num_partitions
        if _np is None:
            loads = [0.0] * k
            for v, pid in self.state.assignment_items():
                loads[pid] += self.balance.load_of(self.graph, v)
            return loads
        column = _np.frombuffer(self.state.partition_column(), dtype=_np.int64)
        slots = _np.flatnonzero(column >= 0)
        weights = self.balance.load_column(self.graph, slots)
        return _np.bincount(column[slots], weights, minlength=k).tolist()

    @property
    def loads(self):
        """Copy of the per-partition load vector (balance-policy units)."""
        return list(self._loads)

    def remaining(self, capacities):
        """``C_t(i)`` vector: capacity minus current load, per partition."""
        return [c - l for c, l in zip(capacities, self._loads)]

    # ------------------------------------------------------------------
    # Move hooks
    # ------------------------------------------------------------------

    def on_move(self, vertex, old_pid, new_pid, load):
        """One vertex relocated (degree unchanged, so load is portable)."""
        self._loads[old_pid] -= load
        self._loads[new_pid] += load

    def on_moves(self, old_pids, new_pids, loads):
        """A round's admitted moves as columns, folded in admitted order."""
        vector = self._loads
        for old_pid, new_pid, load in zip(old_pids, new_pids, loads):
            vector[old_pid] -= load
            vector[new_pid] += load

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    def on_vertices_placed(self, placements):
        """New vertices were added to the graph and assigned partitions.

        ``placements`` holds ``(vertex, pid)`` straight from ``place_many``:
        each pid is the vertex's current assignment in the state.  The
        per-event and the bulk ingestion path both report through here, in
        first-appearance order, so even fractional user loads sum
        bit-identically.
        """
        loads = self._loads
        balance = self.balance
        graph = self.graph
        for vertex, pid in placements:
            loads[pid] += balance.load_of(graph, vertex)

    def apply_edge_flips(self, pid_u, pid_v, signs):
        """Vectorised cut update for a batch of *net* edge flips.

        ``pid_u`` / ``pid_v`` are integer arrays of endpoint partitions
        (−1 = unassigned) for each edge whose presence actually flips
        across the batch; ``signs`` holds +1 per added edge, −1 per
        removed.  Only edges with both endpoints assigned to different
        partitions touch the cut; the summed delta lands on the state in
        one call.  Loads are untouched — callers guarantee a
        degree-insensitive balance policy (the batched path falls back to
        per-event application otherwise).  Returns the applied delta.
        """
        cut = (pid_u >= 0) & (pid_v >= 0) & (pid_u != pid_v)
        delta = int(signs[cut].sum())
        self.state.apply_cut_delta(delta)
        return delta

    def pre_remove_vertex(self, vertex):
        """Call *before* removing ``vertex`` from state and graph.

        Deducts the vertex's own load and snapshots neighbour loads (only
        when the policy is degree-sensitive — removing the vertex lowers
        their degree).  Returns the snapshot for :meth:`post_remove_vertex`.
        """
        pid = self.state.partition_of_or_none(vertex)
        if pid is not None:
            self._loads[pid] -= self.balance.load_of(self.graph, vertex)
        if not self._degree_sensitive:
            return ()
        return self._snapshot(self.graph.neighbors(vertex))

    def post_remove_vertex(self, snapshot):
        """Call after the removal; settles the snapshotted neighbour loads."""
        self._settle(snapshot)

    def pre_edge(self, u, v):
        """Call before adding or removing edge ``{u, v}``.

        Endpoint degrees are about to change; snapshot their loads when the
        policy cares.  Returns the snapshot for :meth:`post_edge`.
        """
        if not self._degree_sensitive:
            return ()
        return self._snapshot((u, v))

    def post_edge(self, snapshot):
        """Call after the edge mutation; settles the snapshotted loads."""
        self._settle(snapshot)

    def _snapshot(self, vertices):
        state = self.state
        balance = self.balance
        graph = self.graph
        snap = []
        for w in vertices:
            pid = state.partition_of_or_none(w)
            if pid is not None:
                snap.append((w, pid, balance.load_of(graph, w)))
        return snap

    def _settle(self, snapshot):
        """Swap each snapshotted load for the vertex's current load."""
        loads = self._loads
        state = self.state
        balance = self.balance
        graph = self.graph
        for w, pid, before in snapshot:
            loads[pid] -= before
            if w in graph:
                current = state.partition_of_or_none(w)
                if current is not None:
                    loads[current] += balance.load_of(graph, w)

    # ------------------------------------------------------------------
    # Cross-check
    # ------------------------------------------------------------------

    def cross_check(self):
        """Recount every maintained metric from scratch; raise on drift.

        Validates the partition state (sizes + cut count against a full
        recount) and compares the incremental load vector against a fresh
        O(|V|) recount.  Read-only: a drifted vector is reported, never
        repaired, so a caller that catches the error still sees it.
        """
        self.state.validate()
        for pid, (got, want) in enumerate(zip(self._loads, self._recount())):
            if abs(got - want) > _REL_TOL * max(1.0, abs(got), abs(want)):
                raise AssertionError(
                    f"load drift in partition {pid}: incremental {got!r}, "
                    f"recomputed {want!r}"
                )
        return True
