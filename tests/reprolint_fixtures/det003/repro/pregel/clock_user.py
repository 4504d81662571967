"""DET003 fixture: wall-clock reads in a det-critical module."""

import datetime
import time
from time import perf_counter

STARTED = time.time()  # line 7: DET003 (module level)


class Meter:
    """Three methods, each reading a clock."""

    def observe(self):
        """A bare stopwatch read, no scope."""
        return perf_counter()  # line 15: DET003

    def stamp(self):
        """Two violations: datetime and time_ns."""
        when = datetime.datetime.now()  # line 19: DET003
        tick = time.time_ns()  # line 20: DET003
        return when, tick
