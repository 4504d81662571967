"""``python -m benchmarks.e2e`` runs the ledger (see :mod:`.cli`)."""

import sys

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
