"""The benchmark's pinned outputs, read and never written: build hashes
from ``perfbench/census.json`` and the verify-full-g3k2 counts checked
by ``perfbench/check.py``.  The harness scripts themselves are run too,
since ``perfbench/traced.py`` and ``perfbench/probe.py`` look src names
up by name, and a renamed or deleted one breaks them."""

from __future__ import annotations

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from strandfloer.cli import main
from strandfloer.verify import SUITE_NAMES

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
CENSUS = json.loads((PERFBENCH / "census.json").read_text(encoding="utf-8"))["builds"]


@pytest.mark.parametrize(
    "entry",
    [e for e in CENSUS if e["g"] <= 2],
    ids=lambda e: f"g{e['g']}k{e['k']}-{e['variant']}",
)
def test_build_matches_census_hash(tmp_path, entry):
    out = tmp_path / "build.json"
    argv = ["build", "-g", str(entry["g"]), "--k", str(entry["k"]), "--variant", entry["variant"]]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"]


def test_verify_full_g3k2_meets_its_pins(tmp_path):
    problems = runpy.run_path(str(PERFBENCH / "check.py"))["problems"]
    out = tmp_path / "verify.json"
    assert main(["verify", "-g", "3", "--k", "2", "--out", str(out)]) == 0
    assert problems("verify-full-g3k2", out) == []


def _run_harness(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(PERFBENCH / script), *argv],
        cwd=REPO, env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("command", ["verify", "build"])
def test_trace_harness_runs(tmp_path, command):
    trace_path = tmp_path / "trace.json"
    argv = [command, "-g", "1", "--k", "1", "--out", str(tmp_path / "out.txt")]
    proc = _run_harness("traced.py", str(trace_path), "--", *argv)
    assert proc.returncode == 0, proc.stderr
    if command == "verify":
        calls = json.loads(trace_path.read_text(encoding="utf-8"))["calls"]
        assert {f"verify.{suite}" for suite in SUITE_NAMES} <= calls.keys()


def test_probe_harness_runs():
    pytest.importorskip("numpy")  # the setup probe records numpy's version
    proc = _run_harness("probe.py", "setup")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "python"
    proc = _run_harness("probe.py", "frontier", "1", "1", "full")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generators"] == 8
