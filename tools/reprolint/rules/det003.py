"""DET003 — wall-clock reads on determinism-critical paths.

Byte-identical timelines are the repo's core verification artifact: the
same graph, seed and decision cadence must produce the same digest on
every executor.  A ``time.time()`` (or ``perf_counter``, ``datetime.now``,
…) that flows into a digest, a timeline value or a wire payload breaks
that silently — the run *looks* fine and diverges only under diff.

Measurement is still legitimate, and it has one home: the rule allows
wall-clock reads only under ``repro/obs/``, whose timing scope
(``tracer.span(name, counter)``) feeds phase counters and tracer spans.
A determinism-critical module times a phase by opening that scope, never
by reading the clock itself.
"""

import ast

from tools.reprolint.core import Rule

__all__ = ["WallClockRule"]

#: Functions of the ``time`` module that read a clock.
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
#: Classmethods of ``datetime.datetime``/``date`` that read a clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


def _clock_aliases(tree):
    """(module aliases, names bound to clock functions) for one module."""
    modules = {}  # local name -> "time" | "datetime"
    names = {}    # local name -> rendered clock source, e.g. "time.time"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "datetime"):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_FUNCS:
                        names[alias.asname or alias.name] = (
                            f"time.{alias.name}"
                        )
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        modules[alias.asname or alias.name] = "datetime"
    return modules, names


class WallClockRule(Rule):
    """Flag undeclared wall-clock reads in determinism-critical modules."""

    code = "DET003"
    title = "wall-clock read outside repro/obs"

    def check_module(self, module, ctx):
        """Scan one det-critical module for clock calls."""
        config = ctx.config
        if not module.in_any(config.det_critical):
            return
        if module.in_any(config.wallclock_exempt):
            return
        modules, names = _clock_aliases(module.tree)
        if not modules and not names:
            return

        def clock_source(call):
            """Rendered clock name when ``call`` reads one, else None."""
            func = call.func
            if isinstance(func, ast.Name):
                return names.get(func.id)
            if not isinstance(func, ast.Attribute):
                return None
            base = func.value
            # time.<func>() / datetime.now() on an imported-class alias.
            if isinstance(base, ast.Name):
                origin = modules.get(base.id)
                if origin == "time" and func.attr in _TIME_FUNCS:
                    return f"time.{func.attr}"
                if origin == "datetime" and func.attr in _DATETIME_FUNCS:
                    return f"datetime.{func.attr}"
            # datetime.datetime.now() via the module alias.
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and modules.get(base.value.id) == "datetime"
                and base.attr in ("datetime", "date")
                and func.attr in _DATETIME_FUNCS
            ):
                return f"datetime.{base.attr}.{func.attr}"
            return None

        def visit(node, stack):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                stack = stack + [node.name]
            if isinstance(node, ast.Call):
                source = clock_source(node)
                if source is not None:
                    qualname = ".".join(stack)
                    where = f"in {qualname}" if qualname else "at module level"
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"wall-clock read ({source}) {where}; time the "
                        "phase with a repro.obs scope (tracer.span) instead",
                    )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, stack)

        yield from visit(module.tree, [])
