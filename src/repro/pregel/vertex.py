"""Vertex program API.

User applications subclass :class:`VertexProgram` and implement
:meth:`compute`, which receives a :class:`VertexContext` — the vertex's
window onto the system: its value, its neighbours, message sending,
aggregators and halting.  The same API hosts the user applications *and*
the background partitioning algorithm, mirroring the paper's layered
architecture (Fig. 2) where both sit on the Pregel API.

:class:`BatchedVertexProgram` is the optional fast path: a program that
*additionally* implements :meth:`~BatchedVertexProgram.compute_batch`,
evaluating a whole block of vertices as array operations over a
:class:`BlockContext` — a sharded run's array store calls it.  ``compute``
stays mandatory — it is the reference semantics, what the single-process
oracle and every dict shard (numpy-free, non-numeric graphs) run — and
the two must agree bit for bit (the batch-kernel property suite pins
this for every shipped program).
"""

try:  # numpy is optional everywhere in this repo
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI leg
    _np = None

__all__ = [
    "BatchedVertexProgram",
    "BlockContext",
    "BlockResult",
    "VertexContext",
    "VertexProgram",
]


class VertexProgram:
    """Base class for Pregel computations.

    ``initial_value(vertex_id, graph)`` seeds per-vertex state;
    ``compute(ctx, messages)`` runs once per active vertex per superstep;
    ``compute_cost(ctx, messages)`` returns the modelled CPU units this call
    consumed (default: 1 + number of messages), feeding the cost model —
    the biomedical kernel overrides it to express its heavy per-vertex ODE
    load.
    """

    name = "abstract"

    #: Batched fast path, or None.  :class:`BatchedVertexProgram`
    #: overrides this with a real method; the dispatcher's whole
    #: "does this program batch?" check is this one attribute load.
    compute_batch = None

    def initial_value(self, vertex_id, graph):
        """Value a vertex starts with (and restarts with after recovery)."""
        return None

    def compute(self, ctx, messages):
        """One superstep of work for one vertex."""
        raise NotImplementedError

    def compute_cost(self, ctx, messages):
        """Modelled CPU units for this compute call."""
        return 1.0 + len(messages)

    def combiner(self):
        """Optional message combiner ``f(msg_a, msg_b) -> msg`` or None."""
        return None


class VertexContext:
    """Everything a vertex may see and do during ``compute``.

    The context enforces the paper's locality discipline: a vertex reads its
    own value and neighbour list, sends messages along ids it knows, and
    contributes to global aggregators — nothing else.
    """

    __slots__ = ("_system", "vertex_id", "superstep", "_sent")

    def __init__(self, system, vertex_id, superstep):
        self._system = system
        self.vertex_id = vertex_id
        self.superstep = superstep
        self._sent = 0

    @property
    def value(self):
        """This vertex's current value."""
        return self._system.values[self.vertex_id]

    @value.setter
    def value(self, new_value):
        """Replace this vertex's value."""
        self._system.values[self.vertex_id] = new_value

    def neighbors(self):
        """The vertex's current neighbour ids (live view, do not mutate)."""
        return self._system.graph.neighbors(self.vertex_id)

    def degree(self):
        """Number of neighbours."""
        return self._system.graph.degree(self.vertex_id)

    @property
    def num_vertices(self):
        """Global vertex count (a Pregel master-provided statistic)."""
        return self._system.graph.num_vertices

    def send_message(self, target_id, message):
        """Queue ``message`` for ``target_id``, delivered next superstep."""
        self._system.router.send(self.vertex_id, target_id, message)
        self._sent += 1

    def send_to_neighbors(self, message):
        """Queue ``message`` to every neighbour."""
        for w in self.neighbors():
            self.send_message(w, message)

    def aggregate(self, name, value):
        """Contribute ``value`` to the named aggregator for this superstep."""
        self._system.aggregators.contribute(name, value)

    def aggregated(self, name):
        """Read the named aggregator's value from the previous superstep."""
        return self._system.aggregators.previous(name)

    def vote_to_halt(self):
        """Deactivate until a message arrives (no-op in continuous mode)."""
        self._system.halted.add(self.vertex_id)

    @property
    def messages_sent(self):
        """Messages this context sent during the current compute call."""
        return self._sent


class BlockContext:
    """Slot-indexed view of one block of computed vertices.

    All arrays are positional over the block's ``n`` computed rows, in the
    exact order the scalar loop would have visited them.  Topology never
    names a vertex id — rows and neighbour entries are *slots* (row
    indices into the block), which is what lets a kernel run without
    touching Python objects.  Row ``i`` sees:

    - ``values[i]`` — current value (dtype = program's ``batch_dtype``;
      a row of ``value_width`` components for a record program)
    - ``ids[i]`` — its vertex id, for arithmetic keyed by id (an int64
      column: only an array store, whose ids are all int64, batches)
    - ``degrees[i]`` — neighbour count
    - ``targets[indptr[i]:indptr[i + 1]]`` — neighbour slots, adjacency
      order (slots index ``slot_ids``; a slot ≥ ``n`` is a vertex that is
      present in the graph but not computed this superstep)
    - ``msg_values[msg_row == i]`` — inbox payloads (combiner-folded, so
      at most one physical entry per sender group; ``(m, message_width)``
      for record messages, also when ``m`` is 0); ``msg_counts[i]`` is
      the *logical* message count the scalar cost model would see.

    ``superstep`` and ``num_vertices`` mirror :class:`VertexContext`.
    """

    __slots__ = (
        "superstep",
        "num_vertices",
        "values",
        "ids",
        "degrees",
        "indptr",
        "targets",
        "msg_values",
        "msg_row",
        "msg_counts",
    )

    def __init__(
        self,
        superstep,
        num_vertices,
        values,
        ids,
        degrees,
        indptr,
        targets,
        msg_values,
        msg_row,
        msg_counts,
    ):
        self.superstep = superstep
        self.num_vertices = num_vertices
        self.values = values
        self.ids = ids
        self.degrees = degrees
        self.indptr = indptr
        self.targets = targets
        self.msg_values = msg_values
        self.msg_row = msg_row
        self.msg_counts = msg_counts

    def __len__(self):
        """Number of computed rows in the block."""
        return len(self.values)

    def emit_to_neighbors(self, payloads, rows=None):
        """Build the (src, dst, payload) outbox columns for a broadcast.

        ``payloads`` carries one payload (a scalar or a record row) per
        selected row — length ``n`` when ``rows`` is None, length
        ``len(rows)`` otherwise (``rows`` must be ascending, which
        ``np.flatnonzero``-style masks give for free).  Every selected row
        sends its payload to each of its neighbours in the same row-major
        × adjacency order the scalar loop's ``send_to_neighbors`` produces
        — which is what keeps the reduced outbox byte-identical.
        """
        payloads = _np.asarray(payloads)
        counts = _np.diff(self.indptr)
        if rows is None:
            src = _np.repeat(_np.arange(len(counts), dtype=_np.int64), counts)
            return src, self.targets, _np.repeat(payloads, counts, axis=0)
        rows = _np.asarray(rows, dtype=_np.int64)
        counts = counts[rows]
        keep = counts > 0  # zero-degree rows emit nothing
        if not keep.all():
            rows, payloads, counts = rows[keep], payloads[keep], counts[keep]
        src = _np.repeat(rows, counts)
        payload = _np.repeat(payloads, counts, axis=0)
        if not len(rows):
            return src, self.targets[:0], payload
        # Gather each selected row's contiguous target extent: a cumsum
        # over per-element deltas that step by 1 inside a row and jump to
        # the next row's indptr start at each boundary.
        starts = self.indptr[rows]
        deltas = _np.ones(int(counts.sum()), dtype=_np.int64)
        deltas[0] = starts[0]
        bounds = _np.cumsum(counts)[:-1]
        deltas[bounds] = starts[1:] - starts[:-1] - counts[:-1] + 1
        return src, self.targets[_np.cumsum(deltas)], payload


class BlockResult:
    """What a batched kernel hands back for one block.

    ``values`` — new per-row values (same length/order as the block).
    ``out`` — outbox columns ``(src_rows, dst_slots, payloads)`` or None.
    ``halt`` — halt votes: True (all rows vote), False (none do), or a
    per-row bool array.
    ``costs`` — per-row modelled CPU units, or None for the default
    ``1 + logical message count`` (matching ``compute_cost``).
    """

    __slots__ = ("values", "out", "halt", "costs")

    def __init__(self, values, out=None, halt=False, costs=None):
        self.values = values
        self.out = out
        self.halt = halt
        self.costs = costs


class BatchedVertexProgram(VertexProgram):
    """A :class:`VertexProgram` with an additional whole-block fast path.

    Subclasses implement :meth:`compute_batch` as pure array operations
    over a :class:`BlockContext` (reprolint ``KER001`` rejects per-vertex
    Python loops inside it) and declare ``batch_dtype`` — the numpy dtype
    the block's value/message arrays are built with — and the width of a
    value or message that is a fixed-width *record* (a tuple of that many
    floats) rather than one scalar.  The scalar
    :meth:`~VertexProgram.compute` remains mandatory and authoritative:
    the single-process oracle always runs it, and a shard falls back to
    it whenever numpy is missing or the live ids/values/messages don't fit
    ``batch_dtype`` exactly (e.g. string labels) — and the batched path
    must reproduce it bit for bit.
    """

    #: numpy dtype name for the value/message arrays ("float64"/"int64").
    batch_dtype = "float64"
    #: Components per vertex value and per message: 1 = a scalar and a 1-d
    #: column; ``c`` > 1 = a ``c``-tuple of floats and an ``(n, c)`` column
    #: (float64 only; record messages combine under
    #: :func:`~repro.pregel.messages.record_sum_combiner` or not at all).
    value_width = 1
    message_width = 1

    def __init_subclass__(cls, **kwargs):
        """Disable an inherited kernel when only ``compute`` is overridden.

        A kernel is only valid paired with the ``compute`` it mirrors: a
        subclass that redefines the scalar semantics without redefining
        ``compute_batch`` would silently keep running the parent's kernel,
        so it drops back to the scalar loop instead.
        """
        super().__init_subclass__(**kwargs)
        if "compute" in cls.__dict__ and "compute_batch" not in cls.__dict__:
            cls.compute_batch = None

    def compute_batch(self, block):
        """Evaluate a whole block; returns a :class:`BlockResult`."""
        raise NotImplementedError
