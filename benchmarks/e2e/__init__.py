"""The perf ledger: the repo's one end-to-end benchmark.

Four named workloads drive the adaptive partitioner the way a deployment
does — closed loop, one driver process, absolute numbers — and report a
per-layer breakdown measured entirely from outside ``src/repro``.  See
``README.md`` in this directory for how to run it and read a ledger line.
"""
