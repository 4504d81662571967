"""Script entry point: ``python3 benchmarks/e2e/run.py`` from a checkout.

``BENCHMARK.json`` names this file.  A script's own directory heads
``sys.path``; swap it for the checkout root so ``benchmarks.e2e`` imports
as the package it is (and none of its modules shadows a top-level name).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import main

    sys.exit(main())
