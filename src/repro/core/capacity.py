"""Per-iteration migration quotas.

§2.2: capacities can only be enforced worst-case because every vertex
decides independently against the capacities *at the start* of the
iteration.  The free capacity of each destination j is therefore split
equally among all possible sources:

    Q_t(i, j) = C_t(j) / (|P| - 1),   j ≠ i

so even if every source exhausts its quota towards j simultaneously, j
receives at most C_t(j) vertices.  :class:`QuotaTable` freezes the quotas at
iteration start and meters consumption during the round.
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["QuotaTable"]


class QuotaTable:
    """Frozen per-(source, destination) migration quotas for one iteration."""

    def __init__(self, remaining_capacity, num_partitions):
        """``remaining_capacity`` is the per-partition free load at iteration
        start (the paper's ``C_t(j)``); negative values clamp to zero."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        if num_partitions == 1:
            # Degenerate single-partition case: nowhere to migrate.
            self._per_source = [0.0] * num_partitions
        else:
            self._per_source = [
                max(float(c), 0.0) / (num_partitions - 1)
                for c in remaining_capacity
            ]
        self._consumed = {}

    def quota(self, source, destination):
        """The frozen quota ``Q_t(source, destination)`` in load units."""
        self._check(source, destination)
        return self._per_source[destination]

    def available(self, source, destination):
        """Remaining quota on the (source, destination) lane."""
        self._check(source, destination)
        used = self._consumed.get((source, destination), 0.0)
        return self._per_source[destination] - used

    def try_consume(self, source, destination, load=1.0):
        """Consume ``load`` units of lane quota; False when it would overdraw.

        A migration is admitted only when the *whole* load fits — admitting
        fractions would strand a vertex between partitions.
        """
        self._check(source, destination)
        if load <= 0:
            raise ValueError("load must be positive")
        key = (source, destination)
        used = self._consumed.get(key, 0.0)
        if used + load > self._per_source[destination] + 1e-9:
            return False
        self._consumed[key] = used + load
        return True

    def admit(self, sources, destinations, loads):
        """:meth:`try_consume` over columns, item by item; returns the
        admitted mask (numpy only).

        Equal to the sequential loop, down to the ``ValueError`` an invalid
        item raises once the items before it are applied.  Per lane, a
        ``cumsum`` seeded with the lane's consumption adds left to right
        like ``used + load``; the items after a lane's first refusal are
        walked one by one only if the smallest of them could still fit.
        """
        src, dst = _np.asarray(sources), _np.asarray(destinations)
        loads = _np.asarray(loads, dtype=_np.float64)
        k = self.num_partitions
        bad = (src < 0) | (src >= k) | (dst < 0) | (dst >= k) | (src == dst)
        bad |= loads <= 0
        if bad.any():
            i = int(bad.argmax())
            self.admit(src[:i], dst[:i], loads[:i])
            self.try_consume(int(src[i]), int(dst[i]), loads[i])  # raises
        admitted = _np.zeros(len(src), dtype=bool)
        lanes = src * k + dst
        order = _np.argsort(lanes, kind="stable")
        cuts = _np.flatnonzero(_np.diff(lanes[order])) + 1
        for members in _np.split(order, cuts) if len(order) else ():
            key = (int(src[members[0]]), int(dst[members[0]]))
            cap = self._per_source[key[1]] + 1e-9
            seeded = _np.concatenate(([self.consumed(*key)], loads[members]))
            sums = _np.cumsum(seeded)  # sums[j]: used after j admissions
            fit = int(_np.append(sums[1:] > cap, True).argmax())
            admitted[members[:fit]] = True
            used = float(sums[fit])
            tail = members[fit + 1 :]
            if len(tail) and not used + loads[tail].min() > cap:
                for i, load in zip(tail.tolist(), loads[tail].tolist()):
                    if not used + load > cap:
                        used += load
                        admitted[i] = True
            self._consumed[key] = used
        return admitted

    def consumed(self, source, destination):
        """Load already consumed on the lane this iteration."""
        return self._consumed.get((source, destination), 0.0)

    def total_admitted_to(self, destination):
        """Total load admitted towards ``destination`` across all lanes."""
        return sum(
            load
            for (_, dst), load in self._consumed.items()
            if dst == destination
        )

    def _check(self, source, destination):
        for pid in (source, destination):
            if not 0 <= pid < self.num_partitions:
                raise ValueError(f"partition id {pid} out of range")
        if source == destination:
            raise ValueError("no quota lane from a partition to itself")
