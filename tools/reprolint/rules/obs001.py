"""OBS001 — span/metric name literals must be in the checked-in registry.

``docs/observability.md`` documents every span and metric name the system
emits.  Nothing ties that table to the code: a renamed span or a new
counter silently de-syncs the docs, and downstream trace tooling keyed on
names breaks without a test failing.  The fix is a checked-in registry —
``repro/obs/names.py`` declares ``SPAN_NAMES``, ``METRIC_NAMES`` and
``METRIC_PREFIXES`` as frozensets of string literals — and this rule
closes the loop in both directions:

* every **literal** first argument to ``span(...)`` must
  be a registered span name, and to ``counter``/``gauge``/``histogram``
  a registered metric name (or extend a registered prefix, for the
  ``CounterGroup`` families); ``group(...)`` literals must be registered
  prefixes;
* a registry entry no name in the tree uses is flagged as stale.

Dynamic names (f-strings, variables) are skipped — the registry governs
the static vocabulary, and the one dynamic producer (``CounterGroup``)
derives from a registered prefix by construction.
"""

import ast

from tools.reprolint.core import Rule

__all__ = ["ObservabilityNamesRule"]

_SPAN_METHODS = frozenset({"span"})
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
_REGISTRY_SETS = ("SPAN_NAMES", "METRIC_NAMES", "METRIC_PREFIXES")


def _literal_strings(node):
    """String constants inside a ``frozenset({...})`` / set / tuple literal."""
    if isinstance(node, ast.Call) and node.args:
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return {
            elt.value
            for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        }
    return set()


def _parse_registry(tree):
    """{set name: (names, lineno)} for the three registry frozensets."""
    registry = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in _REGISTRY_SETS:
                registry[target.id] = (
                    _literal_strings(node.value), node.lineno
                )
    return registry


def _receiver_mentions_metrics(func):
    """True when the call receiver looks like a metrics registry.

    ``group`` is the one method name shared with unrelated stdlib objects
    (``re.Match.group``), so its usages only count when the receiver's
    identifier mentions metrics.
    """
    base = func.value
    name = None
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    return name is not None and "metric" in name.lower()


class ObservabilityNamesRule(Rule):
    """Tie span/metric name literals to ``repro/obs/names.py``."""

    code = "OBS001"
    title = (
        "span/metric name literal missing from the repro/obs/names.py "
        "registry (or a registry entry nothing uses)"
    )

    def check_module(self, module, ctx):
        """Collect registry contents and literal-name usages into scratch."""
        scratch = ctx.scratch.setdefault(
            self.code, {"registry": None, "uses": []}
        )
        if module.module_suffix_matches(ctx.config.obs_registry_suffix):
            scratch["registry"] = (module, _parse_registry(module.tree))
            return ()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _SPAN_METHODS:
                kind = "span"
            elif func.attr in _METRIC_METHODS:
                kind = "metric"
            elif func.attr == "group" and _receiver_mentions_metrics(func):
                kind = "prefix"
            else:
                continue
            arg = node.args[0]
            if not (
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ):
                continue  # dynamic name: out of the registry's scope
            scratch["uses"].append(
                (module, kind, arg.value, node.lineno, node.col_offset)
            )
        return ()

    def finalize(self, ctx):
        """Check collected usages against the registry, both directions."""
        scratch = ctx.scratch.get(
            self.code, {"registry": None, "uses": []}
        )
        uses = scratch["uses"]
        if scratch["registry"] is None:
            if uses:
                module, _, _, line, col = uses[0]
                yield self.finding(
                    module, line, col,
                    "observability name literals found but no "
                    f"{ctx.config.obs_registry_suffix} registry module was "
                    "scanned",
                )
            return
        registry_module, registry = scratch["registry"]
        spans, _ = registry.get("SPAN_NAMES", (set(), 1))
        metrics, _ = registry.get("METRIC_NAMES", (set(), 1))
        prefixes, _ = registry.get("METRIC_PREFIXES", (set(), 1))
        used = {"span": set(), "metric": set(), "prefix": set()}

        for module, kind, value, line, col in uses:
            if kind == "span":
                if value in spans:
                    used["span"].add(value)
                    continue
                pool = "SPAN_NAMES"
            elif kind == "metric":
                if value in metrics:
                    used["metric"].add(value)
                    continue
                prefix = next(
                    (p for p in prefixes if value.startswith(p + ".")),
                    None,
                )
                if prefix is not None:
                    used["prefix"].add(prefix)
                    continue
                pool = "METRIC_NAMES"
            else:
                if value in prefixes:
                    used["prefix"].add(value)
                    continue
                pool = "METRIC_PREFIXES"
            yield self.finding(
                module, line, col,
                f"{kind} name {value!r} is not in {pool} "
                f"({ctx.config.obs_registry_suffix}); register it so "
                "docs/observability.md stays honest",
            )

        for pool_name, names, used_key in (
            ("SPAN_NAMES", spans, "span"),
            ("METRIC_NAMES", metrics, "metric"),
            ("METRIC_PREFIXES", prefixes, "prefix"),
        ):
            line = registry.get(pool_name, (set(), 1))[1]
            for name in sorted(names - used[used_key]):
                yield self.finding(
                    registry_module, line, 0,
                    f"registry entry {name!r} in {pool_name} is used "
                    "nowhere in the scanned tree; remove it or emit it",
                )
