"""strandfloer benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --census

Run from a checkout that holds ``src/strandfloer``; nothing is installed.
Every child is ``python3`` with PYTHONPATH=src, the STRANDFLOER_*
variables removed and PYTHONHASHSEED set to the seed, so each workload
runs as one strandfloer CLI invocation with the default single thread.

--trace 0 measures the end-to-end metrics:
  wall_s       seconds from spawning ``python3 -m strandfloer.cli <argv>``
               to its exit, median over the run's samples whose output
               passed the check; samples repeat until S seconds have
               passed, so at S=30 a run holds two build samples or one
               verify sample
  setup_s      seconds from spawn until ``import strandfloer.cli``
               returns, median of import-only children run in batches
               before, between and after the timed samples, so that the
               median spans the run rather than one moment of the
               machine's load
  peak_rss_mb  the workload child's max RSS from os.wait4, median; Linux
               carries the parent's high-water RSS into a child's across
               exec, so this process parses no output itself and fails the
               run if its own RSS reaches the child's
Failed runs are reported through ``attempted`` and ``failed``.

--trace 1 times one untraced child, then runs the same argv through
``cli.main`` in a traced child (perfbench/traced.py) and reports the
per-layer metrics: module self times, per-layer spans and counts, the
tracing overhead, and the g=3 k=4 frontier counts.

The workloads are fixed (g, k, variant) instances whose outputs are
pinned in workloads.json, so the seed does not change what is timed: it
sets the children's PYTHONHASHSEED, is passed to the CLI as --seed
(exhaustive suites ignore it), and picks the census build whose hash
the run checks, untimed.  --census checks every recorded build hash.
workloads.json also pins verify-half-g3k3, which BENCHMARK.json leaves
out to fit the driver's time budget; it runs by name like the others.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full report, with the spans
of a traced run, is written to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 175.0
SETUP_SAMPLES = 4  # per batch; one batch before each timed sample and one after the last
MODULES = ("cli", "circle", "strands", "grid", "index", "gf2", "homalg", "verify", "_kernels")


class Run:
    """Children of one benchmark run: environment, deadline, tallies."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STRANDFLOER_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = str(seed)

    def spawn(self, args: list[str], log: str, checked: bool = True) -> dict:
        """Run ``python3 <args>`` to completion; return its exit code,
        spawn-to-exit seconds, max RSS and the monotonic spawn time.
        Children with ``checked`` count as attempted runs."""
        self.attempted += checked
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(WORK / log, "wb") as err:
            spawned = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - t0
            finally:
                timer.cancel()
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "seconds": seconds,
            "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "spawned": spawned,
            "stdout": stdout,
            "timed_out": seconds >= timeout,
        }

    def fail(self, what: str, child: dict | None = None) -> None:
        if child is not None and child["timed_out"]:
            what += " (timed out)"
        elif child is not None and child["code"] != 0:
            what += f" (exit code {child['code']})"
        self.failed += 1
        self.problems.append(what)

    def cli(self, argv: list[str], out: Path, log: str) -> dict:
        return self.spawn(["-m", "strandfloer.cli", *argv, "--out", str(out)], log)


# ---------------------------------------------------------------------------
# Output checks.


def check_output(run: Run, name: str, out: Path) -> list[str]:
    """Mismatches between a workload's output file and its pinned values,
    found by perfbench/check.py in a child so that this process stays
    small (see peak_rss_mb above)."""
    child = run.spawn([str(HERE / "check.py"), name, str(out)], "check.log", checked=False)
    if child["code"] != 0:
        return [f"output check exited with code {child['code']}"]
    return json.loads(child["stdout"])


def check_census_entry(run: Run, entry: dict) -> bool:
    label = f"census g={entry['g']} k={entry['k']} {entry['variant']}"
    out = WORK / "census.out"
    argv = ["build", "-g", str(entry["g"]), "--k", str(entry["k"]), "--variant", entry["variant"]]
    child = run.cli(argv, out, "census.log")
    if child["code"] != 0:
        run.fail(label, child)
        return False
    sha = hashlib.sha256(out.read_bytes()).hexdigest()
    if sha != entry["sha256"]:
        run.fail(f"{label}: sha256 {sha}, want {entry['sha256']}")
        return False
    print(f"{label}: sha256 matches")
    return True


# ---------------------------------------------------------------------------
# Measurement.


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def machine(run: Run) -> dict:
    """Metadata from a warm-up import child (which also writes bytecode
    caches, so later setup samples do not pay for compilation)."""
    child = run.spawn([str(HERE / "probe.py"), "setup"], "setup.log")
    if child["code"] != 0:
        run.fail("setup probe", child)
        return {}
    meta = json.loads(child["stdout"])
    meta.pop("imported_at")
    meta["commit"], meta["clean_tree"] = None, None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            meta["commit"], meta["clean_tree"] = head.stdout.strip(), status.stdout.strip() == ""
        except (OSError, subprocess.CalledProcessError):
            pass
    return meta


def setup_samples(run: Run) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        child = run.spawn([str(HERE / "probe.py"), "setup"], "setup.log")
        if child["code"] != 0:
            run.fail("setup probe", child)
            continue
        out.append(json.loads(child["stdout"])["imported_at"] - child["spawned"])
    return out


def timed_sample(run: Run, name: str, spec: dict) -> dict:
    out = WORK / f"{name}.out"
    out.unlink(missing_ok=True)
    child = run.cli([*spec["argv"], "--seed", str(run.seed)], out, f"{name}.log")
    child["ok"] = False
    if child["code"] != 0:
        run.fail(f"{name} sample", child)
        return child
    problems = check_output(run, name, out)
    if problems:
        run.fail(f"{name} output: " + "; ".join(problems))
        return child
    child["ok"] = True
    print(f"{name}: sample {child['seconds']:.3f} s ({child['cpu_s']:.3f} s cpu), "
          f"{child['rss_mb']:.1f} MB, output matches")
    return child


def end_to_end(run: Run, name: str, spec: dict, seconds: float, report: dict) -> dict:
    setup = []
    samples = []
    start = time.monotonic()
    while True:
        setup += setup_samples(run)
        samples.append(timed_sample(run, name, spec))
        elapsed = time.monotonic() - start
        if elapsed >= seconds or time.monotonic() + samples[-1]["seconds"] > run.deadline:
            break
    setup += setup_samples(run)
    good = [s for s in samples if s["ok"]] or samples
    walls = [s["seconds"] for s in good]
    peak = median([s["rss_mb"] for s in good])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if own >= peak:
        run.fail(f"harness RSS {own:.1f} MB masks the child's peak {peak:.1f} MB")
    q1, q3 = quartiles(walls)
    report["samples"] = [{k: s[k] for k in ("seconds", "cpu_s", "rss_mb", "ok")} for s in samples]
    report["setup_samples"] = setup
    print(f"{name}: wall_s median {median(walls):.3f} s, quartiles {q1:.3f}..{q3:.3f}, "
          f"n={len(walls)}; setup_s median {median(setup):.4f} s, n={len(setup)}")
    return {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# Traced run.

SUITES = ("regression", "d2", "leibniz", "assoc", "closure", "dictionary-diff",
          "dictionary-prod", "euler", "rigidity", "yoneda")


def per_layer(trace: dict, untraced_wall: float, traced_wall: float, frontier: dict) -> dict:
    sec, calls, cnt = trace["seconds"], trace["calls"], trace["counters"]
    m: dict[str, tuple[float, str]] = {}
    for mod in MODULES:
        m[f"{mod.lstrip('_')}.self_s"] = (trace["self_s"][mod], "s")
    m["cli.output_bytes"] = (cnt.get("cli.output_bytes", 0), "B")
    m["circle.idempotents"] = (cnt.get("circle.idempotents", 0), "count")
    build = sec.get("strands.table_build", 0.0)
    inside = sum(sec.get(k, 0.0) for k in ("strands.enumerate", "strands.differential", "circle.idempotents"))
    m["strands.enumerate_s"] = (sec.get("strands.enumerate", 0.0), "s")
    m["strands.table_build_s"] = (build, "s")
    m["strands.differential_s"] = (sec.get("strands.differential", 0.0), "s")
    m["strands.products_s"] = (build - inside if build else 0.0, "s")
    m["strands.as_csr_s"] = (sec.get("strands.as_csr", 0.0), "s")
    for key in ("generators", "diff_entries", "products", "pairs_visited"):
        m[f"strands.{key}"] = (cnt.get(f"strands.{key}", 0), "count")
    pairs = cnt.get("strands.pairs_visited", 0)
    m["strands.product_yield"] = (cnt.get("strands.products", 0) / pairs if pairs else 0.0, "ratio")
    m["strands.rss_hwm_mb"] = (cnt.get("strands.rss_hwm_mb", 0.0), "MB")
    m["strands.product_oracle_s"] = (sec.get("strands.product_oracle", 0.0), "s")
    m["strands.product_oracle_calls"] = (calls.get("strands.product_oracle", 0), "count")
    for fn in ("floer_product", "floer_differential"):
        m[f"grid.{fn}_s"] = (sec.get(f"grid.{fn}", 0.0), "s")
        m[f"grid.{fn}_calls"] = (calls.get(f"grid.{fn}", 0), "count")
    m["grid.floer_product_nonzero"] = (cnt.get("grid.floer_product_nonzero", 0), "count")
    m["index.verify_rigidity_s"] = (sec.get("index.verify_rigidity", 0.0), "s")
    for fn in ("rref", "nullspace", "rank"):
        m[f"gf2.{fn}_s"] = (sec.get(f"gf2.{fn}", 0.0), "s")
    m["gf2.calls"] = (sum(n for k, n in calls.items() if k.startswith("gf2.")), "count")
    for fn in ("projective_module", "mor_complex", "hom_complex"):
        m[f"homalg.{fn}_s"] = (sec.get(f"homalg.{fn}", 0.0), "s")
    for fn in ("projective_module", "mor_complex"):
        m[f"homalg.{fn}_calls"] = (calls.get(f"homalg.{fn}", 0), "count")
    m["homalg.mor_dim_total"] = (cnt.get("homalg.mor_dim_total", 0), "count")
    m["kernels.rigidity_scan_s"] = (sec.get("kernels.rigidity_scan", 0.0), "s")
    m["kernels.rigidity_scan.chains"] = (cnt.get("kernels.rigidity_scan.chains", 0), "count")
    m["kernels.rigidity_scan.bytes_computed"] = (cnt.get("kernels.rigidity_scan.bytes_computed", 0), "B")
    m["kernels.assoc_scan_s"] = (sec.get("kernels.assoc_scan", 0.0), "s")
    m["kernels.assoc_scan.triples"] = (cnt.get("kernels.assoc_scan.triples", 0), "count")
    m["kernels.assoc_scan.bytes_computed"] = (cnt.get("kernels.assoc_scan.bytes_computed", 0), "B")
    for suite in SUITES:
        m[f"verify.{suite}_s"] = (sec.get(f"verify.{suite}", 0.0), "s")
        m[f"verify.{suite}.checked"] = (cnt.get(f"verify.{suite}.checked", 0), "count")
    total = trace["total_s"]
    m["trace.total_s"] = (total, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1 if untraced_wall else 0.0, "ratio")
    m["trace.unattributed_s"] = (total - sum(trace["self_s"].values()), "s")
    m["frontier.g3k4.generators"] = (frontier.get("generators", 0), "count")
    m["frontier.g3k4.composable_pairs"] = (frontier.get("composable_pairs", 0), "count")
    m["frontier.probe_s"] = (frontier.get("seconds", 0.0), "s")
    m["frontier.probe_rss_mb"] = (frontier.get("rss_mb", 0.0), "MB")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def run_frontier(run: Run, spec: dict) -> dict:
    argv = [str(HERE / "probe.py"), "frontier", str(spec["g"]), str(spec["k"]), spec["variant"]]
    child = run.spawn(argv, "frontier.log")
    if child["code"] != 0:
        run.fail("frontier probe", child)
        return {}
    got = json.loads(child["stdout"])
    got["rss_mb"] = child["rss_mb"]
    for key, want in spec["expect"].items():
        if got[key] != want:
            run.fail(f"frontier {key}: got {got[key]}, want {want}")
    print(f"frontier g={spec['g']} k={spec['k']} {spec['variant']}: {spec['status']} "
          f"({spec['reason']}); {got['generators']} generators, "
          f"{got['composable_pairs']} composable pairs, counted in {got['seconds']:.2f} s")
    return got


def traced(run: Run, name: str, spec: dict, frontier_spec: dict) -> tuple[dict, dict]:
    untraced = timed_sample(run, name, spec)
    out = WORK / f"{name}.traced.out"
    trace_path = WORK / f"{name}.trace.json"
    out.unlink(missing_ok=True)
    trace_path.unlink(missing_ok=True)
    argv = [*spec["argv"], "--seed", str(run.seed), "--out", str(out)]
    child = run.spawn([str(HERE / "traced.py"), str(trace_path), "--", *argv], f"{name}.traced.log")
    trace = {"seconds": {}, "calls": {}, "counters": {}, "self_s": dict.fromkeys(MODULES, 0.0),
             "total_s": 0.0, "spans": []}
    if child["code"] != 0:
        run.fail(f"{name} traced run", child)
    else:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace["counters"]["cli.output_bytes"] = out.stat().st_size
        problems = check_output(run, name, out)
        if problems:
            run.fail(f"{name} traced output: " + "; ".join(problems))
    frontier = run_frontier(run, frontier_spec)
    metrics = per_layer(trace, untraced["seconds"], child["seconds"], frontier)
    overhead_s = child["seconds"] - untraced["seconds"]
    gap = metrics["trace.unattributed_s"]["value"]
    if abs(gap) > max(overhead_s, 0.01 * trace["total_s"]):
        run.fail(f"module self times miss the traced total by {gap:.3f} s")
    print(f"{name}: traced {child['seconds']:.3f} s against untraced {untraced['seconds']:.3f} s "
          f"(overhead {overhead_s:+.3f} s); module self times sum to the traced total within {abs(gap):.2e} s")
    for mod in MODULES:
        print(f"  {mod:9s} self {trace['self_s'][mod]:9.3f} s")
    return metrics, trace


def kernel_counts(metrics: dict) -> dict:
    """Kernel operation counts and bytes, labelled as computed."""
    out = {}
    for kernel, ops in (("assoc_scan", "triples"), ("rigidity_scan", "chains")):
        out[kernel] = {
            ops: metrics[f"kernels.{kernel}.{ops}"]["value"],
            "bytes": metrics[f"kernels.{kernel}.bytes_computed"]["value"],
            "seconds": metrics[f"kernels.{kernel}_s"]["value"],
            "kind": f"computed: {ops} as the kernel reports them; bytes are the sizes of the "
                    "arrays handed to the kernel, ignoring cache misses and temporaries",
        }
    return out


# ---------------------------------------------------------------------------


def census_all(run: Run) -> bool:
    entries = json.loads((HERE / "census.json").read_text(encoding="utf-8"))["builds"]
    return all([check_census_entry(run, e) for e in entries])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--census", action="store_true", help="check every recorded build hash")
    args = parser.parse_args()

    if not (SRC / "strandfloer" / "cli.py").is_file():
        print(f"error: no strandfloer sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    run = Run(args.seed)
    if args.census:
        ok = census_all(run)
        print(f"census: {run.attempted - run.failed} of {run.attempted} builds match")
        return 0 if ok else 1
    spec = config["workloads"].get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(config['workloads'])}", file=sys.stderr)
        return 2

    meta = machine(run)
    print("machine:", json.dumps(meta))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": meta}
    if args.trace:
        metrics, trace = traced(run, args.workload, spec, config["frontier"])
        report["kernels"] = kernel_counts(metrics)
        report["spans"] = trace["spans"]
        report["calls"] = trace["calls"]
    else:
        metrics = end_to_end(run, args.workload, spec, args.seconds, report)
    entries = json.loads((HERE / "census.json").read_text(encoding="utf-8"))["builds"]
    cheap = [e for e in entries if (e["g"], e["k"], e["variant"]) != (3, 3, "full")]
    check_census_entry(run, cheap[args.seed % len(cheap)])

    for problem in run.problems:
        print("FAILED:", problem)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    report.update(result, problems=run.problems)
    report_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
