"""The declared project knowledge reprolint checks the tree against.

Everything a checker needs to know about *this* repo that an AST cannot
tell it lives here, checked in and reviewed like code: which packages are
determinism-critical, which attributes are known to hold sets across
module boundaries, where the wall clock may be read, where the wire
structs and the observability name registry live.  Tests construct their own :class:`LintConfig` pointing at fixture
trees; the CLI always uses :data:`DEFAULT_CONFIG`.
"""

from dataclasses import dataclass, field

__all__ = ["DEFAULT_CONFIG", "LintConfig"]


@dataclass(frozen=True)
class LintConfig:
    """One run's project knowledge; all paths are posix substring/suffixes."""

    #: Packages where iteration order is digest- or wire-relevant (DET001,
    #: DET003 scope).  Matched as substrings of the file's posix path.
    det_critical: tuple = (
        "repro/pregel/",
        "repro/cluster/",
        "repro/core/",
        "repro/partitioning/",
        "repro/graph/",
    )
    #: The one module allowed to touch ``random`` directly (DET002).
    rng_module: str = "repro/utils/rng.py"
    #: The only paths where wall-clock reads are fine (DET003): the
    #: observability layer exists to measure wall-clock, and its timing
    #: scope is how every other module times a phase.
    wallclock_exempt: tuple = ("repro/obs/",)
    #: Attributes known to hold sets across module boundaries (DET001's
    #: intra-module inference cannot see e.g. ``PregelSystem._active``
    #: from ``coordinator.py``).
    known_set_attrs: frozenset = frozenset(
        {"halted", "_active", "_dirty", "_in_flight_origins"}
    )
    #: Callables that canonicalise an unordered iterable (DET001
    #: neutralisers).
    order_wrappers: frozenset = frozenset({"sorted", "sort_vertices"})
    #: The module defining the wire-crossing structs, its codec sibling,
    #: the structs as ``(module suffix, class name)`` and the codec's
    #: dispatch table (WIRE001).
    wire_shard_suffix: str = "cluster/shard.py"
    wire_codec_name: str = "wire.py"
    wire_structs: tuple = (
        ("cluster/shard.py", "ShardTask"),
        ("cluster/shard.py", "ShardDelta"),
        ("core/heuristic.py", "DecisionContext"),
    )
    wire_dispatch: str = "_ENCODERS"
    #: Records defined outside the shard module that cross the wire under
    #: a tag of their own, as ``(module suffix, class name)``; WIRE001
    #: holds them to the same per-field encoder/decoder coverage.
    wire_records: tuple = (
        ("pregel/messages.py", "MessageColumns"),
        ("cluster/shard.py", "PatchColumns"),
        ("pregel/migration.py", "ProposalColumns"),
    )
    #: Capability flags and the methods an honest claimant must implement
    #: (CAP001).
    capability_requirements: dict = field(
        default_factory=lambda: {
            "remote": ("_transport_send", "_transport_recv"),
        }
    )
    #: The checked-in span/metric name registry (OBS001).
    obs_registry_suffix: str = "repro/obs/names.py"
    #: Packages holding batched vertex kernels, and the kernel method
    #: whose body must stay loop-free (KER001).
    kernel_paths: tuple = ("repro/apps/", "repro/pregel/")
    kernel_method: str = "compute_batch"


#: The repo's own configuration — what ``python -m tools.reprolint`` uses.
DEFAULT_CONFIG = LintConfig()
