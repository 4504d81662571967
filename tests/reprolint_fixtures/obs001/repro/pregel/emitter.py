"""OBS001 fixture: registered, unregistered, and dynamic name usages."""


def run(tracer, metrics, lane):
    """One clean usage per pool, one violation, and skipped dynamics."""
    with tracer.span("superstep"):  # registered: clean
        metrics.counter("supersteps").add(1)  # registered: clean
        metrics.group("executor.bytes_sent")  # registered prefix: clean
        metrics.counter("executor.bytes_sent.worker")  # prefix ext: clean
        with tracer.span("mystery-span", lane="wire"):  # line 10: OBS001
            metrics.gauge(f"lane.{lane}.depth")  # dynamic: skipped
