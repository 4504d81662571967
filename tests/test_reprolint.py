"""The reprolint analyzer: every checker, the pragma engine, the CLI.

Each checker is exercised against a fixture subtree under
``tests/reprolint_fixtures/`` that mirrors the repo layout (so the
default config's path scoping applies verbatim), with the expected
findings asserted by (code, file, line).  The repo-clean test is the
local twin of the CI gate: ``src/repro`` must lint clean, and a seeded
violation must trip the gate.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import DEFAULT_CONFIG, lint_paths
from tools.reprolint.core import (
    MALFORMED_PRAGMA,
    PARSE_ERROR,
    UNUSED_PRAGMA,
)

FIXTURES = Path(__file__).parent / "reprolint_fixtures"
REPO = Path(__file__).resolve().parents[1]


def lint(subpath, config=DEFAULT_CONFIG):
    return lint_paths([FIXTURES / subpath], config)


def sites(findings, code=None):
    """Set of (code, filename, line) triples, optionally one code only."""
    return {
        (f.code, Path(f.path).name, f.line)
        for f in findings
        if code is None or f.code == code
    }


# ----------------------------------------------------------------------
# The seven checkers, against their fixture subtrees
# ----------------------------------------------------------------------


class TestDet001:
    def test_flags_unordered_iteration_sites(self):
        findings = lint("det001")
        assert sites(findings) == {
            ("DET001", "bad_iteration.py", 10),
            ("DET001", "bad_iteration.py", 12),
            ("DET001", "bad_iteration.py", 13),
        }

    def test_wrapped_iteration_is_clean(self):
        findings = lint("det001/repro/pregel/good_iteration.py")
        assert findings == []

    def test_outside_critical_packages_is_out_of_scope(self, tmp_path):
        target = tmp_path / "repro" / "scripts" / "loose.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            (FIXTURES / "det001/repro/pregel/bad_iteration.py").read_text()
        )
        assert lint_paths([tmp_path], DEFAULT_CONFIG) == []


class TestDet002:
    def test_flags_module_rng_calls(self):
        findings = lint("det002")
        assert sites(findings) == {
            ("DET002", "chooser.py", 11),
            ("DET002", "chooser.py", 12),
            ("DET002", "chooser.py", 13),
            ("DET002", "chooser.py", 14),
        }

    def test_rng_module_itself_is_exempt(self):
        assert lint("det002/repro/utils/rng.py") == []


class TestDet003:
    def test_flags_wall_clock_reads(self):
        findings = lint("det003")
        assert sites(findings) == {
            ("DET003", "clock_user.py", 7),
            ("DET003", "clock_user.py", 15),
            ("DET003", "clock_user.py", 19),
            ("DET003", "clock_user.py", 20),
        }

    def test_allowlisted_site_is_clean_and_stale_entry_is_flagged(self):
        config = dataclasses.replace(
            DEFAULT_CONFIG,
            wallclock_allowlist={
                "repro/pregel/clock_user.py": frozenset(
                    {"Meter.observe", "Meter.vanished"}
                )
            },
        )
        findings = lint("det003", config)
        assert sites(findings, "DET003") == {
            ("DET003", "clock_user.py", 7),
            ("DET003", "clock_user.py", 19),
            ("DET003", "clock_user.py", 20),
            ("DET003", "clock_user.py", 1),  # the stale-entry finding
        }
        stale = [f for f in findings if "stale" in f.message]
        assert len(stale) == 1
        assert "Meter.vanished" in stale[0].message


class TestWire001:
    def test_codec_coverage_gaps(self):
        findings = lint("wire001")
        messages = sorted(f.message for f in findings)
        assert len(findings) == 7
        # Structs cross field by field through ``dataclasses.fields``, so
        # a dropped field cannot happen; what can is a struct the codec
        # never registered ...
        assert any(
            "ShardDelta has no entry in _STRUCTS" in m for m in messages
        )
        assert not any("ShardTask" in m and "entry" in m for m in messages)
        # ... including one outside shard.py: ``wire_structs`` pairs a
        # module suffix with each class, and the fixture codec leaves the
        # round's DecisionContext (core/heuristic.py) out of _STRUCTS ...
        assert any(
            "DecisionContext has no entry in _STRUCTS" in m for m in messages
        )
        # ... an override keyed by a name that is no field ...
        (typo,) = [m for m in messages if "_FIELD_ENCODERS" in m]
        assert "'outbocks' names no field of ShardTask / ShardDelta" in typo
        # ... and a field type the pickle fallback cannot carry.
        assert any(
            "ShardDelta.context references Snapshot" in m
            and "pickle fallback would fail" in m
            for m in messages
        )
        # The column records keep hand-written codecs and are held to
        # per-field coverage: the one outside shard.py ...
        assert any(
            "MessageColumns.counts is never read by _encode_columns" in m
            for m in messages
        )
        assert any(
            "MessageColumns.payloads is not passed" in m for m in messages
        )
        # ... and the patch record beside the structs.
        assert any(
            "PatchColumns.placed_pids is never read by _encode_patch_columns"
            in m
            for m in messages
        )
        assert {f.code for f in findings} == {"WIRE001"}


class TestCap001:
    def test_capability_honesty(self):
        findings = lint("cap001")
        assert sites(findings) == {
            ("CAP001", "executors.py", 50),  # StubbedRemote claim
            ("CAP001", "executors.py", 56),  # LyingRemote claim
        }
        stubbed = [f.message for f in findings if f.line == 50]
        assert len(stubbed) == 2 and all("StubbedRemote" in m for m in stubbed)
        assert any("_transport_send" in m for m in stubbed)
        assert any("_transport_recv" in m for m in stubbed)
        (lying,) = [f.message for f in findings if f.line == 56]
        assert "LyingRemote" in lying and "_transport_recv" in lying


class TestObs001:
    def test_unregistered_literal_and_stale_entries(self):
        findings = lint("obs001")
        assert sites(findings) == {
            ("OBS001", "emitter.py", 10),  # unregistered span literal
            ("OBS001", "names.py", 3),  # stale SPAN_NAMES entry
            ("OBS001", "names.py", 5),  # stale METRIC_NAMES entry
        }
        stale = sorted(
            f.message for f in findings if "used nowhere" in f.message
        )
        assert "'never-emitted'" in stale[0]
        assert "'orphan.metric'" in stale[1]

    def test_usages_without_a_registry_are_flagged(self):
        assert sites(lint("obs001/repro/pregel")) == {
            ("OBS001", "emitter.py", 6)
        }


class TestKer001:
    def test_loops_in_kernels_are_flagged(self):
        findings = lint("ker001")
        assert sites(findings) == {
            ("KER001", "kernels.py", 31),  # list comprehension
            ("KER001", "kernels.py", 32),  # dict comprehension
            ("KER001", "kernels.py", 33),  # for loop
            ("KER001", "kernels.py", 35),  # while loop
            ("KER001", "kernels.py", 47),  # genexp in a nested helper
            ("KER001", "kernels.py", 78),  # records unpacked row by row
        }
        for finding in findings:
            assert "compute_batch" in finding.message

    def test_scalar_reference_loops_stay_legal(self):
        """Only ``compute_batch`` bodies are scanned; ``compute`` loops,
        vectorised kernels (scalar and record) and the pragma'd bounded
        loop are clean."""
        findings = lint("ker001")
        assert all(f.line not in (21, 22, 58, *range(61, 71)) for f in findings)

    def test_outside_kernel_packages_is_out_of_scope(self, tmp_path):
        target = tmp_path / "repro" / "analysis" / "loose.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            (FIXTURES / "ker001/repro/apps/kernels.py").read_text()
        )
        findings = lint_paths([tmp_path], DEFAULT_CONFIG)
        # the bounded-loop pragma goes stale out of scope (PRAGMA002);
        # what matters is that no kernel-loop finding fires
        assert not any(f.code == "KER001" for f in findings)


# ----------------------------------------------------------------------
# The pragma engine
# ----------------------------------------------------------------------


class TestPragmas:
    def test_explained_suppressions_work_and_stale_ones_report(self):
        findings = lint("pragmas/repro/pregel/suppressed.py")
        assert sites(findings) == {(UNUSED_PRAGMA, "suppressed.py", 17)}

    def test_malformed_pragmas_do_not_suppress(self):
        findings = lint("pragmas/repro/pregel/malformed.py")
        assert sites(findings) == {
            ("DET001", "malformed.py", 8),
            (MALFORMED_PRAGMA, "malformed.py", 8),  # reason missing
            (MALFORMED_PRAGMA, "malformed.py", 10),  # unknown directive
            ("DET001", "malformed.py", 11),
        }

    def test_pragma_reason_is_mandatory_message(self):
        findings = lint("pragmas/repro/pregel/malformed.py")
        reasonless = [
            f
            for f in findings
            if f.code == MALFORMED_PRAGMA and f.line == 8
        ]
        assert "needs a reason" in reasonless[0].message

    def test_unparsable_file_is_a_parse_finding(self, tmp_path):
        bad = tmp_path / "repro" / "pregel" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        findings = lint_paths([tmp_path], DEFAULT_CONFIG)
        assert [f.code for f in findings] == [PARSE_ERROR]


# ----------------------------------------------------------------------
# The repo gate: src/repro lints clean, and seeded violations trip it
# ----------------------------------------------------------------------


class TestRepoGate:
    def test_src_repro_is_clean(self):
        assert lint_paths([REPO / "src" / "repro"], DEFAULT_CONFIG) == []

    def test_seeded_det001_violation_trips_the_gate(self, tmp_path):
        seeded = tmp_path / "repro" / "pregel" / "seeded.py"
        seeded.parent.mkdir(parents=True)
        seeded.write_text(
            '"""Seeded violation."""\n\n'
            "halted = {3, 1, 2}\n"
            "for v in halted:\n"
            "    print(v)\n"
        )
        findings = lint_paths([tmp_path], DEFAULT_CONFIG)
        assert [f.code for f in findings] == ["DET001"]

    def test_seeded_cap001_violation_trips_the_gate(self, tmp_path):
        seeded = tmp_path / "repro" / "cluster" / "seeded.py"
        seeded.parent.mkdir(parents=True)
        seeded.write_text(
            '"""Seeded violation."""\n\n'
            "class ExecutorCapabilities:\n"
            '    """Stub."""\n\n'
            "    def __init__(self, remote=False):\n"
            '        """Stub."""\n'
            "        self.remote = remote\n\n\n"
            "class Liar:\n"
            '    """Claims remote with no transport methods at all."""\n\n'
            "    capabilities = ExecutorCapabilities(remote=True)\n"
        )
        findings = lint_paths([tmp_path], DEFAULT_CONFIG)
        # One finding per missing transport method (send and recv).
        assert [f.code for f in findings] == ["CAP001", "CAP001"]

    def test_seeded_ker001_violation_trips_the_gate(self, tmp_path):
        seeded = tmp_path / "repro" / "apps" / "seeded.py"
        seeded.parent.mkdir(parents=True)
        seeded.write_text(
            '"""Seeded violation."""\n\n\n'
            "class Kernel:\n"
            '    """A kernel that loops over its rows."""\n\n'
            "    def compute_batch(self, block):\n"
            '        """Per-vertex loop: the thing KER001 exists for."""\n'
            "        return [sum(box) for box in block.boxes]\n"
        )
        findings = lint_paths([tmp_path], DEFAULT_CONFIG)
        assert [f.code for f in findings] == ["KER001"]


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args],
        cwd=REPO,
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_json_report_and_exit_one_on_findings(self):
        proc = run_cli("tests/reprolint_fixtures/det001", "--json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["version"] == 1
        assert report["checked"] == 2
        assert report["counts"] == {"DET001": 3}
        assert all(
            f["code"] == "DET001" for f in report["findings"]
        )

    def test_clean_tree_exits_zero(self):
        proc = run_cli(
            "tests/reprolint_fixtures/det001/repro/pregel/"
            "good_iteration.py"
        )
        assert proc.returncode == 0
        assert "no finding(s)" in proc.stdout

    def test_missing_path_exits_two(self):
        proc = run_cli("no/such/path")
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_select_narrows_the_rule_set(self):
        proc = run_cli("tests/reprolint_fixtures/det002", "--select", "DET001")
        assert proc.returncode == 0
        bogus = run_cli("src/repro", "--select", "NOPE999")
        assert bogus.returncode == 2

    def test_human_output_is_path_line_col_code(self):
        proc = run_cli("tests/reprolint_fixtures/det001")
        first = proc.stdout.splitlines()[0]
        assert first.startswith(
            "tests/reprolint_fixtures/det001/repro/pregel/"
            "bad_iteration.py:10:"
        )
        assert " DET001 " in first


# ----------------------------------------------------------------------
# The strict-typing pass (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed"
)
def test_mypy_strict_pass_is_clean():
    proc = subprocess.run(
        [shutil.which("mypy"), "--config-file", "mypy.ini"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
