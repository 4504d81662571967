"""Sharded BSP superstep execution with pluggable executors.

The paper's system is distributed: vertices live on separate workers and
supersteps advance through compute → message exchange → barrier.  This
package gives the reproduction that execution shape for real:

* :mod:`shard` — :class:`Shard`: one worker's resident vertex state, its
  compute pass and its share of the migration *decision
  phase* — heuristic + willingness evaluated shard-locally against a
  placement mirror, proposals returned for central quota arbitration —
  exchanged with the coordinator as plain picklable task/delta records
  and one vertex-state record, :class:`PatchColumns` (seed = patch =
  snapshot);
* :mod:`executor` — where shard compute runs: inline, thread, process
  and socket backends (see the module for what each buys) behind one
  :class:`Executor` protocol, each declaring an
  :class:`ExecutorCapabilities` record that :func:`make_executor`
  validates;
* :mod:`wire` — the framed binary wire format those worker protocols
  speak, plus pre-wire inbox combining;
* :mod:`worker` — the TCP worker side (``repro worker --listen``), the
  subprocess fleet ``--executor process`` spawns, the in-thread pool harness;
* :mod:`coordinator` — :class:`Coordinator`, the sharded drop-in for
  :class:`~repro.pregel.system.PregelSystem`: same protocols and barrier
  order, compute fanned out per shard and merged deterministically.

Results are bit-identical across executors by construction (deltas merge in
shard-id order; all order-dependent work stays in the coordinator), which
``tests/test_cluster_golden.py`` pins with golden superstep timelines.
"""

from repro.cluster.coordinator import Coordinator
from repro.cluster.executor import (
    EXECUTORS,
    Executor,
    ExecutorCapabilities,
    InlineExecutor,
    ProcessExecutor,
    SocketExecutor,
    ThreadExecutor,
    make_executor,
    validate_executor,
)
from repro.cluster.shard import PatchColumns, Shard, ShardDelta, ShardTask
from repro.cluster.worker import LocalWorkerPool, WorkerServer

__all__ = [
    "Coordinator",
    "EXECUTORS",
    "Executor",
    "ExecutorCapabilities",
    "InlineExecutor",
    "LocalWorkerPool",
    "PatchColumns",
    "ProcessExecutor",
    "Shard",
    "ShardDelta",
    "ShardTask",
    "SocketExecutor",
    "ThreadExecutor",
    "WorkerServer",
    "make_executor",
    "validate_executor",
]
