"""Event ingestion: the one place graph mutations meet the partitioning.

Both engines — :class:`~repro.core.runner.AdaptiveRunner` and
:class:`~repro.pregel.system.PregelSystem` (and through it the sharded
:class:`~repro.cluster.coordinator.Coordinator`) — apply stream mutations
through this module:

* :func:`apply_event` — what one event does to graph, state, metrics and
  the active set; the reference semantics every configuration can take;
* :func:`apply_events` — a round's events go to the bulk path where that
  is provably equivalent, else through the per-event loop;
* :class:`BatchIngestor` — the bulk path: an
  :class:`~repro.graph.events.EventBatch` splits the round into runs,
  vertex events stay per-event (they touch interning, placement and
  neighbour bookkeeping), and each run of edge events becomes one
  vectorised job over the graph's CSR mirror.

**The host contract** (:class:`IngestHost`, table in
``docs/architecture.md``).  A host exposes ``graph``, ``state``,
``metrics`` (:class:`~repro.core.incremental.IncrementalMetrics`),
``tracer`` and ``_ingestor`` (:func:`make_ingestor`'s answer), and takes
its hooks.  This module never touches a host's active set: it calls ``_activate`` / ``_deactivate``, so each host keeps the set
the way its decision path reads it — a ``set`` of ids, or the runner's
slot mask (:class:`~repro.core.sweep.ActiveSlots`).  The derived arrays
need no hook: the id → slot table lives in the graph and the partition
column in the state, each written by the methods that change it.

The edge-run kernel (:meth:`BatchIngestor._apply_edge_run`) replays each
pair's events as a toggle chain, so only pairs whose presence flips across
the run touch the graph and the cut, in one vectorised pass each.

**Equivalence is the contract**: assignment, metrics, active set and the
RNG stream come out bit-identical to the per-event loop.  New vertices
always take :class:`~repro.partitioning.hashing.HashPartitioner`
placement (per-vertex pure, so batch placement commutes), and the
ingestor exists only where equivalence is provable — numpy present and
a degree-insensitive balance policy (edge events then cannot move
loads).  Everything else — and any batch the loop would abort mid-way (unknown event types, self-loop adds) — takes the
per-event loop, which is also the oracle: the test tree clears
``_ingestor`` to pin the bulk path against it, alongside the golden
timelines (bulk path and loop, both pinned) and the engines' ``audit()``.
"""

from functools import partial
from itertools import chain as _chain
from itertools import compress as _compress

from repro.graph.events import (
    AddEdge,
    AddVertex,
    EventBatch,
    RemoveEdge,
    RemoveVertex,
)
from repro.core.sweep import gather_explicit
from repro.obs import NULL_TRACER
from repro.partitioning.hashing import HashPartitioner

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "BatchIngestor", "IngestHost", "apply_event", "apply_events", "make_ingestor"
]

# Where every new vertex lands (per-vertex pure, so batches commute).
_HASH = HashPartitioner()


class IngestHost:
    """The hooks this module calls, with the defaults both engines share:
    ``_active`` is a ``set`` or an :class:`~repro.core.sweep.ActiveSlots`,
    the notifications do nothing, and a host without a tracer of its own
    times nothing."""

    tracer = NULL_TRACER

    def _activate(self, vertices):
        """Live ids whose adjacency an event changed re-enter the set."""
        self._active.update(vertices)

    def _deactivate(self, vertex):
        """``vertex`` leaves the active set — called *before* it leaves
        the graph, while its slot is still interned."""
        self._active.discard(vertex)

    def _vertices_placed(self, placements):
        """New vertices were interned and placed."""

    def _vertex_removed(self, vertex):
        """``vertex`` left the graph and the state."""



def apply_events(host, events):
    """Apply ``events`` through ``host``; returns how many changed the graph.

    The bulk path where the host has one and the batch is supported, the
    per-event loop otherwise.
    """
    ingestor = host._ingestor
    if ingestor is not None and events:
        batch = EventBatch.from_events(events)
        if not batch.unsupported:
            return ingestor.apply(batch)
    return sum(map(partial(apply_event, host), events))


def apply_event(host, event):
    """Apply one event to graph, state, metrics and active set.

    Returns True when the graph changed.  New vertices are hash-placed
    while still isolated; a removed vertex leaves the state *before* the
    graph drops its edges (the cut count needs them); every touched
    endpoint and neighbour re-enters the active set.
    """
    graph = host.graph
    state = host.state
    metrics = host.metrics
    if isinstance(event, AddVertex):
        if event.vertex in graph:
            return False
        graph.add_vertex(event.vertex)
        _place_new_vertices(host, [event.vertex])
        host._activate((event.vertex,))
        return True
    if isinstance(event, RemoveVertex):
        vertex = event.vertex
        if vertex not in graph:
            return False
        neighbours = list(graph.neighbors(vertex))
        host._deactivate(vertex)  # while its slot is still interned
        snapshot = metrics.pre_remove_vertex(vertex)
        state.remove_vertex(vertex)
        graph.remove_vertex(vertex)
        metrics.post_remove_vertex(snapshot)
        host._activate(neighbours)
        host._vertex_removed(vertex)
        return True
    if isinstance(event, AddEdge):
        u, v = event.u, event.v
        for endpoint in (u, v):
            if endpoint not in graph:
                graph.add_vertex(endpoint)
                _place_new_vertices(host, [endpoint])
        if graph.has_edge(u, v):
            return False
        snapshot = metrics.pre_edge(u, v)
        graph.add_edge(u, v)
        state.on_edge_added(u, v)
    elif isinstance(event, RemoveEdge):
        u, v = event.u, event.v
        if not graph.has_edge(u, v):
            return False
        snapshot = metrics.pre_edge(u, v)
        graph.remove_edge(u, v)
        state.on_edge_removed(u, v)
    else:
        raise TypeError(f"unknown graph event {event!r}")
    metrics.post_edge(snapshot)
    host._activate((u, v))
    return True


def _place_new_vertices(host, vertices):
    """Streaming placement of just-added (still isolated) vertices, with
    delta upkeep — one vertex from the per-event path, a run's worth of new
    endpoints from the bulk path."""
    placements = _HASH.place_many(host.state, vertices)
    host.metrics.on_vertices_placed(placements)
    host._vertices_placed(placements)


def make_ingestor(host):
    """A :class:`BatchIngestor` when the bulk path applies, else None.

    The gate mirrors :func:`~repro.core.sweep.make_sweeper`'s philosophy:
    engage only where equivalence with the per-event loop is structural.
    """
    if _np is None:
        return None
    if host.metrics.degree_sensitive:
        return None
    return BatchIngestor(host)


class BatchIngestor:
    """Applies an :class:`EventBatch` through a host's bookkeeping stack."""

    def __init__(self, host):
        self.host = host

    def apply(self, batch):
        """Apply every segment in order; returns the changed-event count."""
        apply_one = partial(apply_event, self.host)
        changed = 0
        with self.host.tracer.span(
            "ingest-batch", segments=len(batch.segments)
        ):
            for segment in batch.segments:
                if segment[0] == "loop":
                    changed += sum(map(apply_one, segment[1]))
                else:
                    _, kinds, us, vs = segment
                    changed += self._apply_edge_run(kinds, us, vs)
        return changed

    def _intern_new_endpoints(self, kinds_arr, us, vs, su, sv):
        """Create + place endpoints that add events reference for the first
        time, in first-appearance order (u before v, exactly like the loop).

        Remove events never create endpoints; an id they alone mention
        simply stays absent (slot −1) and every event touching it is a
        no-op, as in the per-event path.  Returns refreshed slot arrays.
        """
        host = self.host
        missing_u = su < 0
        missing_v = sv < 0
        add_missing = _np.flatnonzero(kinds_arr & (missing_u | missing_v))
        if not len(add_missing):
            return su, sv
        new_ids = []
        seen = set()
        for i in add_missing.tolist():
            if missing_u[i]:
                u = us[i]
                if u not in seen:
                    seen.add(u)
                    new_ids.append(u)
            if missing_v[i]:
                v = vs[i]
                if v not in seen:
                    seen.add(v)
                    new_ids.append(v)
        host.graph.add_vertices(new_ids)
        # Placement before any edge lands: each new vertex is placed while
        # isolated, exactly when the per-event path would have placed it.
        _place_new_vertices(host, new_ids)
        return self.host.graph.slots_of(us), self.host.graph.slots_of(vs)

    # ------------------------------------------------------------------
    # The edge-run kernel
    # ------------------------------------------------------------------

    def _present0(self, lo, hi):
        """Pre-run edge-presence probe for unique slot pairs.

        Two regimes, picked by what is cheaper *right now*: when the CSR
        mirror is (nearly) clean — typical for cancellation-heavy buffered
        rounds, where few edges ever net-flip — :meth:`ensure_csr` costs
        little and the probe is one fully vectorised gather; when the
        mirror carries lots of dirty slots, repairing it just for a probe
        would drag the sweeper's per-round cost into the ingestion hot
        path, so per-pair adjacency lookups win instead.
        """
        graph = self.host.graph
        m = len(lo)
        if graph.dirty_slot_count * 4 <= m:
            return self._present0_csr(lo, hi, m)
        ids = graph.slot_ids
        has_edge = graph.has_edge
        return _np.fromiter(
            (
                has_edge(ids[a], ids[b])
                for a, b in zip(lo.tolist(), hi.tolist())
            ),
            _np.bool_,
            count=m,
        )

    def _present0_csr(self, lo, hi, m):
        """Vectorised presence probe: gather each pair's smaller-degree
        endpoint's CSR block and scan it for the other endpoint."""
        graph = self.host.graph
        starts_a, lens_a, indices_a = graph.ensure_csr()
        starts = _np.frombuffer(starts_a, dtype=_np.int64)
        lens = _np.frombuffer(lens_a, dtype=_np.int64)
        present = _np.zeros(m, dtype=bool)
        swap = lens[hi] < lens[lo]
        probe = _np.where(swap, hi, lo)
        other = _np.where(swap, lo, hi)
        indices = _np.frombuffer(indices_a, dtype=_np.int64)
        entries, row = gather_explicit(indices, starts[probe], lens[probe])
        present[row[entries == other[row]]] = True
        return present

    def _apply_edge_run(self, kinds, us, vs):
        """One vectorised pass over a run of edge events; returns changed.

        Events are grouped by canonical pair (stable sort, so a pair's
        events keep their temporal order).  Pairs touched by exactly one
        event — the common case — apply straight through the graph's
        flag-returning bulk mutators: the membership check application does
        anyway *is* the presence probe, so no separate graph query happens.
        Pairs with several events replay as a *toggle chain*: an edge's
        presence after any event equals that event's kind, so per-event
        change flags reduce to ``kind != previous kind`` seeded with one
        presence probe per pair — and only the pairs whose presence
        actually flips across the run touch the graph at all.  An edge
        added and expired inside one buffered round therefore costs one
        probe, not two mutations.
        """
        host = self.host
        graph = host.graph
        n = len(kinds)
        kinds_arr = _np.fromiter(kinds, _np.bool_, count=n)
        su = self.host.graph.slots_of(us)
        sv = self.host.graph.slots_of(vs)
        if (kinds_arr & ((su < 0) | (sv < 0))).any():
            su, sv = self._intern_new_endpoints(kinds_arr, us, vs, su, sv)
        valid = (su >= 0) & (sv >= 0)
        if valid.all():
            vidx = None
            lo = _np.minimum(su, sv)
            hi = _np.maximum(su, sv)
            k_v = kinds_arr
        else:
            # Endpoints only remove events mention can be absent for the
            # whole run; every event touching them is a no-op.
            vidx = _np.flatnonzero(valid)
            if not len(vidx):
                return 0
            lo = _np.minimum(su[vidx], sv[vidx])
            hi = _np.maximum(su[vidx], sv[vidx])
            k_v = kinds_arr[vidx]
        key = lo * graph.num_slots + hi
        order = _np.argsort(key, kind="stable")
        key_s = key[order]
        k_s = k_v[order]
        m = len(key_s)
        first = _np.empty(m, dtype=bool)
        first[0] = True
        _np.not_equal(key_s[1:], key_s[:-1], out=first[1:])
        starts = _np.flatnonzero(first)
        gsize = _np.diff(_np.append(starts, m))
        orig = order if vidx is None else vidx[order]

        changed = _np.zeros(n, dtype=bool)
        cut_su = []
        cut_sv = []
        cut_sign = []

        singles = starts[gsize == 1]
        if len(singles):
            spos = orig[singles]  # original event positions, one per pair
            s_changed = self._apply_singles(us, vs, spos, kinds_arr[spos])
            changed[spos] = s_changed
            hit = spos[s_changed]
            if len(hit):
                cut_su.append(su[hit])
                cut_sv.append(sv[hit])
                cut_sign.append(_np.where(kinds_arr[hit], 1, -1))

        multis = _np.flatnonzero(gsize > 1)
        if len(multis):
            self._apply_multis(
                multis, starts, gsize, k_s, lo, hi, order, orig, changed,
                cut_su, cut_sv, cut_sign,
            )

        if cut_su:
            slots_u = _np.concatenate(cut_su)
            slots_v = _np.concatenate(cut_sv)
            signs = _np.concatenate(cut_sign)
            partitions_at = host.state.partitions_at
            host.metrics.apply_edge_flips(
                partitions_at(slots_u), partitions_at(slots_v), signs
            )

        total_changed = int(changed.sum())
        if total_changed:
            # Re-activate the endpoints of every changed event — exactly
            # the vertices the per-event path activates (edge runs never
            # remove vertices, so membership is the sequential result).
            selectors = changed.tolist()
            host._activate(
                _chain(_compress(us, selectors), _compress(vs, selectors))
            )
        return total_changed

    def _apply_singles(self, us, vs, spos, s_kind):
        """Apply single-event pairs through the flag-returning bulk ops."""
        graph = self.host.graph
        changed = _np.empty(len(spos), dtype=bool)
        add_pos = spos[s_kind].tolist()
        if add_pos:
            flags = graph.add_edges(
                zip(map(us.__getitem__, add_pos), map(vs.__getitem__, add_pos))
            )
            changed[s_kind] = _np.fromiter(
                flags, _np.bool_, count=len(add_pos)
            )
        stay = ~s_kind
        rem_pos = spos[stay].tolist()
        if rem_pos:
            flags = graph.remove_edges(
                zip(map(us.__getitem__, rem_pos), map(vs.__getitem__, rem_pos))
            )
            changed[stay] = _np.fromiter(flags, _np.bool_, count=len(rem_pos))
        return changed

    def _apply_multis(self, multis, starts, gsize, k_s, lo, hi, order, orig,
                      changed, cut_su, cut_sv, cut_sign):
        """Toggle-chain replay of pairs touched by several events."""
        graph = self.host.graph
        mstarts = starts[multis]
        midx, group = gather_explicit(  # the pairs' sorted positions
            _np.arange(len(k_s), dtype=_np.int64), mstarts, gsize[multis]
        )
        total = len(midx)
        mk = k_s[midx]
        mfirst = midx == mstarts[group]
        pair_lo = lo[order[mstarts]]
        pair_hi = hi[order[mstarts]]
        present0 = self._present0(pair_lo, pair_hi)
        prev = _np.empty(total, dtype=bool)
        prev[1:] = mk[:-1]
        prev[mfirst] = present0
        mchanged = mk != prev
        changed[orig[midx]] = mchanged
        mlast = _np.empty(total, dtype=bool)
        mlast[:-1] = mfirst[1:]
        mlast[-1] = True
        final = mk[mlast]
        flip = final != present0
        if not flip.any():
            return
        f_lo = pair_lo[flip]
        f_hi = pair_hi[flip]
        f_add = final[flip]
        cut_su.append(f_lo)
        cut_sv.append(f_hi)
        cut_sign.append(_np.where(f_add, 1, -1))
        id_of = graph.slot_ids.__getitem__
        if f_add.any():
            graph.add_edges(
                zip(
                    map(id_of, f_lo[f_add].tolist()),
                    map(id_of, f_hi[f_add].tolist()),
                )
            )
        drop = ~f_add
        if drop.any():
            graph.remove_edges(
                zip(
                    map(id_of, f_lo[drop].tolist()),
                    map(id_of, f_hi[drop].tolist()),
                )
            )
