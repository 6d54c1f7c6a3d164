"""Run one strandfloer CLI invocation in-process with spans around the
public entry points of every module, then write the trace as JSON.

    python3 perfbench/traced.py TRACE_JSON -- <strandfloer argv>

Each wrapper replaces a name where its caller looks it up (for example
``verify.floer_product`` is the grid function as the verify module
calls it), so the program itself is unchanged.  A wrapper opens a frame
on a stack; when it returns, its duration minus the time of the frames
it contained is the self time of the module that implements the
function.  ``cli.main`` is the root frame, so the module self times add
up to the traced total.  Calls made once per phase keep their own span
(name, start, end, parent); calls made per generator or per pair are
aggregated into a call count and a total time.

Method calls on small value types (PointedMatchedCircle, GF2Sum,
AlgebraTable lookups) are not wrapped: their time counts for the
module that makes the call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

from strandfloer import _kernels, cli, gf2, grid, homalg, index, strands, verify

MODULES = ("cli", "circle", "strands", "grid", "index", "gf2", "homalg", "verify", "_kernels")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.self_s: dict[str, float] = dict.fromkeys(MODULES, 0.0)
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self.spans: list[dict] = []
        self.origin = time.perf_counter()

    def run(self, name, module, span, fn, args, kwargs, count=True):
        frame = [name, 0.0]
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.self_s[module] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            if count:
                self.calls[name] += 1
            self.seconds[name] += dur
            if span:
                self.spans.append(
                    {"name": name, "start": t0 - self.origin, "end": t1 - self.origin, "parent": parent}
                )

    def wrap(self, owner, attr, name, module, span=False, post=None, pre=None):
        """Replace owner.attr with a traced call of the same function."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            out = tracer.run(name, module, span, fn, args, kwargs)
            if post is not None:
                post(out)
            return out

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr, name, module):
        """A generator function's body runs while it is iterated: trace
        every step of the iteration, count one call per generator."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.run(name, module, False, next, (it,), {}, count=False)
                except StopIteration:
                    return
                yield item

        setattr(owner, attr, traced)


def install(tr: Tracer) -> None:
    c = tr.counters

    def on_table(table):
        if c["strands.rss_hwm_mb"] == 0:
            c["strands.rss_hwm_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        c["strands.generators"] += len(table.gens)
        c["strands.diff_entries"] += sum(len(row) for row in table.diff)
        c["strands.products"] += len(table.prod)
        c["strands.pairs_visited"] += sum(
            len(t) * len(s) for t, s in zip(table.by_target, table.by_source)
        )

    def add(key, amount_of):
        def post(out):
            c[key] += amount_of(out)

        return post

    def array_bytes(key):
        def pre(args):
            c[key] += sum(a.nbytes for a in args if hasattr(a, "nbytes"))

        return pre

    table_build = strands.AlgebraTable.build.__func__

    def build(cls, *args, **kwargs):
        table = tr.run("strands.table_build", "strands", True, table_build, (cls, *args), kwargs)
        on_table(table)
        return table

    strands.AlgebraTable.build = classmethod(build)

    tr.wrap(strands, "enumerate_generators", "strands.enumerate", "strands", span=True)
    tr.wrap(strands, "differential", "strands.differential", "strands")
    tr.wrap(strands, "circle_idempotents", "circle.idempotents", "circle",
            post=add("circle.idempotents", len))
    tr.wrap(strands.AlgebraTable, "as_csr", "strands.as_csr", "strands", span=True)
    tr.wrap(cli, "standard_matching", "circle.standard_matching", "circle")
    tr.wrap(cli, "validate_surface", "circle.validate_surface", "circle")

    tr.wrap(verify, "run_suites", "verify.run_suites", "verify", span=True)
    for suite in verify.SUITE_NAMES:
        tr.wrap(verify, "suite_" + suite.replace("-", "_"), f"verify.{suite}", "verify", span=True,
                post=add(f"verify.{suite}.checked", lambda r: r["checked"]))
    tr.wrap(verify, "standard_matching", "circle.standard_matching", "circle")
    tr.wrap(verify, "product", "strands.product_oracle", "strands")
    tr.wrap(verify, "differential", "strands.differential_oracle", "strands")
    tr.wrap(verify, "floer_product", "grid.floer_product", "grid",
            post=add("grid.floer_product_nonzero", lambda s: 1 if s else 0))
    tr.wrap(verify, "floer_differential", "grid.floer_differential", "grid")
    tr.wrap(verify, "from_algebra", "grid.from_algebra", "grid")
    tr.wrap(verify, "to_algebra", "grid.to_algebra", "grid")
    tr.wrap(verify, "make_spec", "grid.make_spec", "grid")

    tr.wrap(index, "verify_rigidity", "index.verify_rigidity", "index", span=True)
    tr.wrap_generator(index, "counted_rectangle_domains", "index.counted_rectangle_domains", "index")
    tr.wrap_generator(index, "counted_product_domains", "index.counted_product_domains", "index")
    tr.wrap(index.Domain, "maslov", "index.maslov", "index")
    tr.wrap(index, "all_floer_generators", "grid.all_floer_generators", "grid")
    tr.wrap(index, "source_labels", "grid.source_labels", "grid")
    tr.wrap(index, "target_labels", "grid.target_labels", "grid")
    tr.wrap(index, "product_triangles", "grid.product_triangles", "grid")
    tr.wrap(index, "overlap_class", "grid.overlap_class", "grid")
    tr.wrap(index, "floer_product", "grid.floer_product", "grid",
            post=add("grid.floer_product_nonzero", lambda s: 1 if s else 0))
    # index.counted_rectangle_domains imports this name from grid at call time.
    tr.wrap(grid, "empty_rectangles", "grid.empty_rectangles", "grid")

    tr.wrap(_kernels, "rigidity_scan", "kernels.rigidity_scan", "_kernels", span=True,
            pre=array_bytes("kernels.rigidity_scan.bytes_computed"),
            post=add("kernels.rigidity_scan.chains", lambda r: r[0]))
    tr.wrap(_kernels, "assoc_scan", "kernels.assoc_scan", "_kernels", span=True,
            pre=array_bytes("kernels.assoc_scan.bytes_computed"),
            post=add("kernels.assoc_scan.triples", lambda r: r[0]))
    tr.wrap(_kernels, "gf2_eliminate", "kernels.gf2_eliminate", "_kernels")

    tr.wrap(homalg, "yoneda_ranks", "homalg.yoneda_ranks", "homalg")
    tr.wrap(homalg, "projective_module", "homalg.projective_module", "homalg")
    tr.wrap(homalg, "mor_complex", "homalg.mor_complex", "homalg",
            post=add("homalg.mor_dim_total", lambda m: m.dim))
    tr.wrap(homalg, "hom_complex", "homalg.hom_complex", "homalg")
    for method in ("rank", "rref", "nullspace", "__matmul__"):
        tr.wrap(gf2.BooleanMatrix, method, f"gf2.{method.strip('_')}", "gf2")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: traced.py TRACE_JSON -- <strandfloer argv>")
    out_path, cli_argv = argv[0], argv[2:]
    tr = Tracer()
    install(tr)
    code = tr.run("cli.main", "cli", True, cli.main, (cli_argv,), {})
    trace = {
        "argv": cli_argv,
        "exit_code": code,
        "total_s": tr.seconds["cli.main"],
        "self_s": tr.self_s,
        "calls": dict(tr.calls),
        "seconds": dict(tr.seconds),
        "counters": dict(tr.counters),
        "spans": tr.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
