"""The span/metric name registry — the static observability vocabulary.

Every span and metric name the system emits as a *literal* must appear
here, and every entry here must be emitted somewhere: the OBS001 checker
(``tools/reprolint``) enforces both directions, so this file — and the
tables in ``docs/observability.md`` that mirror it — cannot silently
drift from the code.  Dynamic names are out of scope by design; the one
dynamic producer (:class:`~repro.obs.metrics.CounterGroup`) derives its
``<prefix>.<kind>`` counters from a prefix registered below.

Names are data, not API: nothing imports these sets at runtime on a hot
path.  They exist for the checker, the docs, and any trace tooling that
wants the authoritative vocabulary.
"""

__all__ = ["METRIC_NAMES", "METRIC_PREFIXES", "SPAN_NAMES"]

#: Tracer span names (``Tracer.span(...)``).
SPAN_NAMES = frozenset(
    {
        "superstep",      # one full superstep (coordinator/system lane)
        "compute",        # vertex-program sweep of one superstep or shard
        "inbox-split",    # coordinator slicing the inbox by resident shard
        "decide",         # partitioning decision phase
        "apply-patch",    # shard applying a migration patch
        "demote",         # shard turning its array store into dict state
        "barrier",        # superstep barrier (message + halt exchange)
        "barrier-merge",  # coordinator merging shard deltas at the barrier
        "deliver",        # router flushing outboxes into the next inbox
        "announce",       # applying this superstep's migration announcements
        "patch-build",    # coordinator turning the dirty set into patches
        "arbitrate",      # migration arbitration among willing vertices
        "ingest",         # applying a graph-event batch
        "ingest-batch",   # one ingest segment inside the batch span
        "wire-send",      # socket executor: one framed message out
        "wire-recv",      # socket executor: one framed message in
    }
)

#: Metric names (``MetricsRegistry.counter``/``gauge``/``histogram``).
METRIC_NAMES = frozenset(
    {
        "supersteps",
        "phase.compute.seconds",
        "phase.decide.seconds",
        "phase.barrier.seconds",
        "ingest.events",
        "kernel.batched_blocks",
        "shard.store.demotions",
        "migrations.announced",
    }
)

#: CounterGroup prefixes: the group emits ``<prefix>.<kind>`` counters.
METRIC_PREFIXES = frozenset(
    {
        "executor.bytes_sent",
        "executor.bytes_received",
        "shard.store.demotions",  # .<patch-shape|inbox-dtype|kernel-declined>
    }
)
