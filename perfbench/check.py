"""Check a workload's output file against the values pinned in
workloads.json and print the mismatches as a JSON list (empty when the
output is right).

    python3 perfbench/check.py WORKLOAD OUTPUT_FILE

A build output must match its sha256 and its generator, differential,
product and composable-pair counts; a verify output must report ok,
skip nothing, fail nothing, and check exactly the pinned count in
every suite.
"""

import hashlib
import json
import sys
from pathlib import Path


def build_problems(data: bytes, expect: dict) -> list[str]:
    payload = json.loads(data)
    src_count: dict[int, int] = {}
    tgt_count: dict[int, int] = {}
    for gen in payload["generators"]:
        src_count[gen["source"]] = src_count.get(gen["source"], 0) + 1
        tgt_count[gen["target"]] = tgt_count.get(gen["target"], 0) + 1
    got = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "generators": len(payload["generators"]),
        "differential_entries": len(payload["differential"]),
        "products": len(payload["product"]),
        "composable_pairs": sum(n * src_count.get(u, 0) for u, n in tgt_count.items()),
    }
    return [f"{key}: got {got[key]}, want {want}" for key, want in expect.items() if got[key] != want]


def verify_problems(data: bytes, expect: dict) -> list[str]:
    payload = json.loads(data)
    problems = []
    if payload.get("ok") is not True:
        problems.append("verify reported ok=false")
    if payload.get("skipped"):
        problems.append(f"suites skipped: {payload['skipped']}")
    suites = payload.get("suites", [])
    got = {s["name"]: s["checked"] for s in suites}
    if got != expect["checked"]:
        problems.append(f"checked per suite: got {got}, want {expect['checked']}")
    failing = [s["name"] for s in suites if s["failures"]]
    if failing:
        problems.append(f"suites with failures: {failing}")
    return problems


def problems(workload: str, out: Path) -> list[str]:
    spec = json.loads((Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))
    expect = spec["workloads"][workload]["expect"]
    try:
        data = out.read_bytes()
        check = build_problems if "sha256" in expect else verify_problems
        return check(data, expect)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {err!r}"]


if __name__ == "__main__":
    print(json.dumps(problems(sys.argv[1], Path(sys.argv[2]))))
