"""The benchmark's pinned outputs, read and never written: build hashes
from ``perfbench/census.json`` and the counts of the two verify
workloads checked by ``perfbench/check.py``; and the sha256 of four
``verify`` reports, so that a change meant to keep them byte-identical
is checked to be; and the sha256 of three product tables, whose rows
ascend by right factor.
The harness scripts themselves are run too, since
``perfbench/traced.py`` and ``perfbench/probe.py`` look src names up by
name, and a renamed or deleted one breaks them."""

from __future__ import annotations

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from strandfloer.circle import matching_from_pairs, standard_matching
from strandfloer.cli import main
from strandfloer.strands import AlgebraTable
from strandfloer.verify import SUITE_NAMES

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
CENSUS = json.loads((PERFBENCH / "census.json").read_text(encoding="utf-8"))["builds"]
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "entry",
    CENSUS,
    ids=lambda e: f"g{e['g']}k{e['k']}-{e['variant']}",
)
def test_build_matches_census_hash(tmp_path, entry):
    out = tmp_path / "build.json"
    argv = ["build", "-g", str(entry["g"]), "--k", str(entry["k"]), "--variant", entry["variant"]]
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == entry["sha256"]


@pytest.mark.parametrize(
    "workload, sha256",
    [
        (
            "verify-full-g3k2",
            "bad36471b383e0bbd830b0b9564e80302c209888d6f4002980e91405f44dc0d6",
        ),
        (
            "verify-half-g3k3",
            "894cbadf94b2a787c69ae94ba49cb40e90f3df2440f39ee047c791dd3b182ea0",
        ),
    ],
    ids=["verify-full-g3k2", "verify-half-g3k3"],
)
def test_verify_workload_meets_its_pins(tmp_path, workload, sha256):
    problems = runpy.run_path(str(PERFBENCH / "check.py"))["problems"]
    argv = WORKLOADS[workload]["argv"]
    out = tmp_path / "verify.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert problems(workload, out) == []
    assert _sha256(out) == sha256


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["-g", "2", "--k", "3"],
            "c0f5483a6f35993d2510174be590347b0aba95c1d5f8502efdb707bb009cc819",
        ),
        (
            ["-g", "2", "--k", "2", "--matching", '{"pairs": [[1, 7], [2, 8], [3, 5], [4, 6]]}'],
            "a68228001204ad44efcdc68a8be43a9c653915dbbaf117dcc123600825ce4031",
        ),
    ],
    ids=["g2k3", "g2k2-matching"],
)
def test_verify_report_matches_its_hash(tmp_path, argv, sha256):
    out = tmp_path / "verify.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    assert _sha256(out) == sha256


@pytest.mark.parametrize(
    "pmc, k, variant, sha256",
    [
        (
            standard_matching(2), 3, "full",
            "8a95da5ccffbe3612ba2ddfec6e4816b6e3beffff2052391bb7c1029abb75a98",
        ),
        (
            matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), 4, "half",
            "c3735b78e8eedc303489974da95d460dc16a09a191ec7b03547624692336e16d",
        ),
        (
            standard_matching(3), 2, "full",
            "1e3f6f213d06dce32ea45fc2d0e5c7666f92bfe7e676896f1e4c70f3a9cdf05b",
        ),
    ],
    ids=["g2k3-full", "g2k4-half-matching", "g3k2-full"],
)
def test_product_rows_ascend_by_right_factor(pmc, k, variant, sha256):
    table = AlgebraTable.build(pmc, k, variant)
    rows = [list(row.items()) for row in table.product_rows()]
    assert all(row == sorted(row) for row in rows)
    # The rows build streams are the rows of the table, in the same order.
    assert rows == [list(row.items()) for row in table.prod]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha256


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
