"""Cardiac-tissue FEM kernel (the biomedical workload, Fig. 7).

The paper's 100 M-vertex graph models heart tissue: "each vertex computes
more than 32 differential equations on one hundred variables representing
the way cardiac cells are excited".  We substitute the two-variable
FitzHugh–Nagumo excitable-media model — the canonical reduction of cardiac
cell dynamics — coupled by discrete Laplacian diffusion over mesh edges:

    dv/dt = v − v³/3 − w + I_stim + D·Σ_neighbours (v_n − v)
    dw/dt = ε (v + β − γ w)

Per-vertex state stays small, but :meth:`compute_cost` charges the paper's
heavy ODE load (32 equation-units per vertex), so the cost model sees the
same compute/communication balance the paper measured (~17 % CPU / >80 %
messaging under static hash partitioning).
"""

from repro.core.sweep import id_column
from repro.pregel.messages import record_sum_combiner, sum_by_group
from repro.pregel.vertex import BatchedVertexProgram, BlockResult

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["CardiacFemSimulation", "CombinedCardiacFemSimulation"]


class CardiacFemSimulation(BatchedVertexProgram):
    """FitzHugh–Nagumo reaction–diffusion on the mesh.

    ``stimulus_vertices`` receive a constant excitation current, launching
    the wave the simulation propagates.  Values are ``(v, w)`` tuples — a
    two-wide float record on the array plane.

    ``substeps`` sub-cycles the reaction term: the ODE integrates
    ``substeps`` Euler steps of ``dt / substeps`` between diffusion
    exchanges (standard operator splitting — communication stays one
    message per edge per superstep while per-vertex CPU scales up).  This
    is how the paper's ">32 differential equations on one hundred
    variables" load is expressed at configurable weight; the cluster
    benchmark uses it as the superstep-heavy workload.
    """

    name = "cardiac-fem"
    batch_dtype = "float64"
    value_width = 2

    ODE_EQUATION_UNITS = 32.0  # the paper's per-vertex CPU load

    def __init__(
        self,
        diffusion=0.2,
        dt=0.1,
        epsilon=0.08,
        beta=0.7,
        gamma=0.8,
        stimulus=0.5,
        stimulus_vertices=(),
        substeps=1,
    ):
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.diffusion = diffusion
        self.dt = dt
        self.epsilon = epsilon
        self.beta = beta
        self.gamma = gamma
        self.stimulus = stimulus
        self.stimulus_vertices = set(stimulus_vertices)
        self.substeps = substeps

    def initial_value(self, vertex_id, graph):
        return (-1.2, -0.6)  # FitzHugh–Nagumo resting state

    def _react(self, v, w, current, coupling):
        """The reaction sub-cycle: ``substeps`` Euler steps of ``(v, w)``.

        ``coupling`` is the diffusion forcing, held constant across the
        sub-cycle (it derives from last superstep's neighbour potentials).
        One body serves a vertex's floats and a block's columns, so the
        kernel is the scalar arithmetic operand for operand — which is why
        the cube is ``v * v * v``, never ``v ** 3``: ``pow`` is not the
        same bits in libm and in numpy's SIMD loops, a product is (see
        ``docs/determinism.md``).
        """
        dt = self.dt / self.substeps
        epsilon, beta, gamma = self.epsilon, self.beta, self.gamma
        for _ in range(self.substeps):
            dv = v - (v * v * v) / 3.0 - w + current + coupling
            dw = epsilon * (v + beta - gamma * w)
            v = v + dt * dv
            w = w + dt * dw
        return v, w

    def _integrate(self, ctx, coupling):
        """Advance this vertex one superstep; returns its new potential.
        The variants differ only in how their messages give ``coupling``."""
        current = self.stimulus if ctx.vertex_id in self.stimulus_vertices else 0.0
        ctx.value = self._react(*ctx.value, current, coupling)
        return ctx.value[0]

    def _integrate_batch(self, block, coupling):
        """:meth:`_integrate` and the send over a block, or None (decline)
        when a label stimulus id cannot match the block's int64 id column.
        Rows without mail get ``coupling`` 0.0 exactly, like the scalar
        ``if messages:`` branch."""
        stimulated = id_column(list(self.stimulus_vertices))
        if stimulated is None:
            return None
        coupling = _np.where(block.msg_counts > 0, coupling, 0.0)
        current = _np.where(_np.isin(block.ids, stimulated), self.stimulus, 0.0)
        v, w = self._react(
            block.values[:, 0], block.values[:, 1], current, coupling
        )
        payloads = v
        if self.message_width > 1:  # the combined variant's (potential, 1.0)
            payloads = _np.stack((v, _np.ones(len(v))), axis=1)
        return BlockResult(
            _np.stack((v, w), axis=1),
            out=block.emit_to_neighbors(payloads),
            costs=self.ODE_EQUATION_UNITS * self.substeps + block.msg_counts,
        )

    def compute(self, ctx, messages):
        # Diffusion term from neighbour potentials delivered last superstep.
        v = ctx.value[0]
        if messages:
            coupling = self.diffusion * sum(vn - v for vn in messages)
        else:
            coupling = 0.0
        ctx.send_to_neighbors(self._integrate(ctx, coupling))

    def compute_batch(self, block):
        """Whole-block step; same arithmetic order as ``compute``:
        ``bincount`` folds each row's ``v_n − v`` terms left to right from
        ``+0.0``, which is the scalar ``sum(...)`` (it starts at the int
        ``0``, and ``0 + x`` is exact)."""
        v = block.values[:, 0]
        differences = block.msg_values - v[block.msg_row]
        return self._integrate_batch(block, self.diffusion * _np.bincount(
            block.msg_row, weights=differences, minlength=len(block)
        ))

    def compute_cost(self, ctx, messages):
        return self.ODE_EQUATION_UNITS * self.substeps + len(messages)


class CombinedCardiacFemSimulation(CardiacFemSimulation):
    """The FEM kernel with a Pregel combiner on the diffusion term.

    The coupling only needs ``Σ v_n`` and the neighbour count, so messages
    are ``(potential, 1.0)`` pairs (a two-wide record like the values; a
    float count, so record row and tuple are the same numbers both ways)
    folded per sending worker — the classic combiner optimisation.  Per
    superstep each vertex receives at most one message per worker hosting
    a neighbour instead of one per neighbour, which is what makes the
    sharded process executor's IPC cheap (``benchmarks/bench_cluster.py``
    runs this variant).

    The trajectory is the plain kernel's up to float summation order:
    ``D·(Σ v_n − n·v)`` versus ``D·Σ (v_n − v)``.
    """

    name = "cardiac-fem-combined"
    message_width = 2

    def compute(self, ctx, messages):
        v = ctx.value[0]
        if messages:
            total = sum(m[0] for m in messages)
            count = sum(m[1] for m in messages)
            coupling = self.diffusion * (total - count * v)
        else:
            coupling = 0.0
        ctx.send_to_neighbors((self._integrate(ctx, coupling), 1.0))

    def compute_batch(self, block):
        """Whole-block step; same arithmetic order as ``compute``.

        A row's mailbox holds one ``(Σv, n)`` per sending worker (one in
        all once delivery folded it); :func:`sum_by_group` adds them in
        mailbox order from ``+0.0`` — the scalar ``sum(...)`` from the int
        ``0``.  Potentials are never ``-0.0`` or NaN, the one case the
        canonical folds do not reproduce.
        """
        folded = sum_by_group(block.msg_row, block.msg_values, len(block))
        total, count = folded[:, 0], folded[:, 1]
        return self._integrate_batch(
            block, self.diffusion * (total - count * block.values[:, 0])
        )

    def combiner(self):
        return record_sum_combiner
