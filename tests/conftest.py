"""Shared fixtures: a memoized table builder and the acceptance report.

Algebra tables are pure functions of (g, k, variant), so tests share one
cache across the whole session; the biggest table (g=3, k=3, full) takes
several seconds to build and is needed by more than one module.
``assoc_walk`` is the dense associativity oracle shared by the kernel
and suite tests; ``check_exceptional`` and ``check_directed`` are the
half-algebra properties shared by the verify and acceptance tests.

Acceptance tests wrap their body in the ``criterion`` context manager,
which records a pass/fail line (with wall time) whether or not the body
raises; the lines are printed in a terminal section after the run.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from strandfloer.circle import standard_matching
from strandfloer.strands import AlgebraTable

_TABLES: dict[tuple[int, int, str], AlgebraTable] = {}
_ACCEPTANCE: list[tuple[int, str, bool, float]] = []


def build_table(g: int, k: int, variant: str = "full") -> AlgebraTable:
    key = (g, k, variant)
    if key not in _TABLES:
        _TABLES[key] = AlgebraTable.build(standard_matching(g), k, variant)
    return _TABLES[key]


def assoc_walk(table: AlgebraTable) -> tuple[int, list[tuple[int, int, int]], int]:
    """The dense associativity oracle: every composable triple (i, j, l)
    by dict lookups.  Returns (triples, failing triples in order, nonzero
    sides), where nonzero sides counts (ij)l and i(jl) separately."""
    prod = table.prod
    checked = sides = 0
    bad = []
    for i in range(len(table.gens)):
        for j in table.by_source[table.tgt[i]]:
            ij = prod.get((i, j))
            for l in table.by_source[table.tgt[j]]:
                checked += 1
                jl = prod.get((j, l))
                left = None if ij is None else prod.get((ij, l))
                right = None if jl is None else prod.get((i, jl))
                sides += (left is not None) + (right is not None)
                if left != right:
                    bad.append((i, j, l))
    return checked, bad, sides


def check_exceptional(table: AlgebraTable) -> dict:
    """Half variant: hom(s,s) is one-dimensional for every s."""
    failures = []
    for s in table.idem_list:
        d = table.hom_dim(s, s)
        if d != 1:
            failures.append({"s": list(s), "dim": d})
    return {"name": "exceptional", "checked": len(table.idem_list), "failures": failures}


def check_directed(table: AlgebraTable) -> dict:
    """Half variant: no two distinct objects support morphisms both ways."""
    failures = []
    checked = 0
    for s, t in itertools.combinations(table.idem_list, 2):
        checked += 1
        if table.hom_dim(s, t) > 0 and table.hom_dim(t, s) > 0:
            failures.append({"s": list(s), "t": list(t)})
    return {"name": "directed", "checked": checked, "failures": failures}


@contextmanager
def criterion(num: int, text: str):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        _ACCEPTANCE.append((num, text, ok, time.perf_counter() - t0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, text, ok, secs in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {text} ({secs:.2f}s)")
