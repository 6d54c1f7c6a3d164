"""The benchmark's pinned outputs, read and never written: build hashes
from ``perfbench/census.json`` and the verify-full-g3k2 counts checked
by ``perfbench/check.py``."""

from __future__ import annotations

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from strandfloer.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
