"""reprolint — the repo's AST-based determinism & wire-contract analyzer.

The repo's value proposition is byte-identical timelines across executors,
decision modes and numpy on/off.  That rests on conventions — canonical
sort-before-iterate orders, counter-split RNG keying, picklable
wire-crossing state, honest ``ExecutorCapabilities`` — which golden tests
only catch *after* a regression ships.  reprolint enforces them at the AST
level, before any golden diff runs:

=========  ==============================================================
Code       What it guards
=========  ==============================================================
DET001     no iteration over unordered collections in determinism-
           critical modules without a canonical-order wrapper
DET002     no unseeded ``random.*`` / ``numpy.random.*`` use outside
           ``repro/utils/rng.py``
DET003     no wall-clock reads outside ``repro/obs``: phases are timed
           through its scope
WIRE001    ``ShardTask``/``ShardDelta``/``DecisionContext`` are
           registered with the field-walking struct codec of
           ``cluster/wire.py`` (override keys
           name real fields, field types are codec- or pickle-safe);
           every column-record field is encoded *and* decoded
CAP001     ``ExecutorCapabilities`` literals match the methods the class
           actually implements (nothing checks that at runtime)
OBS001     span/metric name literals appear in the checked-in registry
           (``repro/obs/names.py``), keeping ``docs/observability.md``
           honest
=========  ==============================================================

Plus framework codes: ``PARSE001`` (unparsable file), ``PRAGMA001``
(malformed suppression pragma), ``PRAGMA002`` (suppression that suppressed
nothing).

A true-but-intentional site is silenced with a reasoned pragma::

    for v in set(a) ^ set(b):  # reprolint: allow-DET001 debug diagnostic only

The reason is mandatory — a bare ``allow-DET001`` is itself a finding.
Run ``python -m tools.reprolint src/repro`` (``--json`` for machines);
the rule catalog with rationale lives in ``docs/static-analysis.md``.
"""

from tools.reprolint.config import DEFAULT_CONFIG, LintConfig
from tools.reprolint.core import (
    Finding,
    LintContext,
    ParsedModule,
    Rule,
    lint_paths,
    render_human,
    render_json,
)
from tools.reprolint.rules import ALL_RULES, make_rules

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintContext",
    "ParsedModule",
    "Rule",
    "lint_paths",
    "make_rules",
    "render_human",
    "render_json",
]
