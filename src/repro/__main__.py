"""``python -m repro`` dispatches to the CLI."""

import signal
import sys

from repro.cli import main


def _exit_on_sigterm(signum, frame):
    """SIGTERM unwinds like Ctrl-C: worker teardown in ``finally`` runs."""
    raise SystemExit(128 + signum)


signal.signal(signal.SIGTERM, _exit_on_sigterm)
sys.exit(main())
