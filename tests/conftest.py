"""Shared fixtures: a memoized table builder and the acceptance report.

Algebra tables are pure functions of (g, k, variant), so tests share one
cache across the whole session; the biggest table (g=3, k=3, full) takes
several seconds to build and is needed by more than one module.
``assoc_walk`` is the dense associativity oracle shared by the kernel
and suite tests, ``rigidity_walk`` the dense oracle of the
composite-domain sweep; ``check_exceptional`` and ``check_directed`` are the
half-algebra properties shared by the verify and acceptance tests;
``intersection_pattern`` is the curve-pair point count of the grid, and
``verify_module_axioms`` (with ``action_row``) the module-axiom oracle,
``block_rows`` the row-by-row reading of the linearity blocks,
``every_generator`` the module whose linearity rows are all written out,
``thimble_index_sets`` the thimble count of acceptance criterion 10,
``ADMISSIBLE_G2`` the admissible genus-2 matchings, ``reflected``,
``opposite_map`` and ``opposite_mismatches`` the orientation-reversal
identity A(-Z) = A(Z)^op, ``graph_suite_counts`` the algebra-side
counts of euler and rigidity, ``product_pairs`` and ``set_products``
the product table as one {(i, j): m} map, and ``dims_table`` the
hom-space dimensions by idempotent pair, each read by more than one
test module.

Acceptance tests wrap their body in the ``criterion`` context manager,
which records a pass/fail line (with wall time) whether or not the body
raises; the lines are printed in a terminal section after the run.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from collections import Counter

from strandfloer.circle import (
    PointedMatchedCircle,
    matching_from_pairs,
    standard_matching,
    validate_surface,
)
from strandfloer.gf2 import bits
from strandfloer.grid import GridSpec, points_for_labels
from strandfloer.homalg import RightDGModule
from strandfloer.strands import AlgebraTable, MatchedGenerator

_TABLES: dict[tuple[int, int, str], AlgebraTable] = {}
_ACCEPTANCE: list[tuple[int, str, bool, float]] = []


def build_table(g: int, k: int, variant: str = "full") -> AlgebraTable:
    key = (g, k, variant)
    if key not in _TABLES:
        _TABLES[key] = AlgebraTable.build(standard_matching(g), k, variant)
    return _TABLES[key]


def product_pairs(table: AlgebraTable) -> dict[tuple[int, int], int]:
    """The product entries as one map {(i, j): m}, rows in index order."""
    return {(i, j): m for i, row in enumerate(table.prod) for j, m in row.items()}


def set_products(table: AlgebraTable, pairs: dict[tuple[int, int], int]) -> None:
    """Give table fresh product rows holding exactly the entries of
    pairs, each row ascending by right factor, as the table stores them."""
    rows: list[dict[int, int]] = [{} for _ in table.gens]
    for (i, j), m in sorted(pairs.items()):
        rows[i][j] = m
    table._prod = rows


def dims_table(table: AlgebraTable) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The number of generators from s to t, for each pair of idempotents
    (s, t) with at least one."""
    return dict(
        Counter((table.idem_list[s], table.idem_list[t]) for s, t in zip(table.src, table.tgt))
    )


def assoc_walk(table: AlgebraTable) -> tuple[int, list[tuple[int, int, int]], int]:
    """The dense associativity oracle: every composable triple (i, j, l)
    by dict lookups.  Returns (triples, failing triples in order, nonzero
    sides), where nonzero sides counts (ij)l and i(jl) separately."""
    prod = table.prod
    checked = sides = 0
    bad = []
    for i in range(len(table.gens)):
        for j in table.by_source[table.tgt[i]]:
            ij = prod[i].get(j)
            for l in table.by_source[table.tgt[j]]:
                checked += 1
                jl = prod[j].get(l)
                left = None if ij is None else prod[ij].get(l)
                right = None if jl is None else prod[i].get(jl)
                sides += (left is not None) + (right is not None)
                if left != right:
                    bad.append((i, j, l))
    return checked, bad, sides


def rigidity_walk(prod, tri_ids, k, triangles, attach) -> tuple[int, int, int]:
    """The dense composite-domain oracle: every glued chain (e1, e2), e2
    attached at prod[e1], crossed pair by pair over the two edges' pinned
    triangles, edge e's triangles being triangles[t] for the ids t in
    tri_ids[k * e : k * e + k].  Returns (chains, violations, max_cross),
    as ``_kernels.rigidity_scan`` does."""
    chains = violations = max_cross = 0
    pinned = [
        [triangles[t] for t in tri_ids[k * e : k * e + k] if not triangles[t].flex]
        for e in range(len(prod))
    ]
    for e1, p in enumerate(prod):
        for e2 in attach.get(p, ()):
            cross = 0
            for c2, m2, r2, _ in pinned[e2]:
                for c1, m1, r1, _ in pinned[e1]:
                    dm = m1 - m2
                    if (c1 - c2) * dm < 0 and dm * (r1 - r2) < 0:
                        cross += 1
            chains += 1
            max_cross = max(max_cross, cross)
            # e = 2k quarter-units by construction; mu = i for l = 3.
            mu4 = 4 * cross
            if mu4 < 0 or not mu4 > 4 * (2 - 3):
                violations += 1
    return chains, violations, max_cross


def matchings(points):
    """Every perfect matching of the points, as tuples of pairs."""
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for m in matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + m


# 21 of the 105 matchings of eight points are admissible: the genus-2
# count of one-face chord diagrams with four chords (Harer-Zagier).
ADMISSIBLE_G2 = [
    pmc
    for pmc in (matching_from_pairs(2, m) for m in matchings(tuple(range(1, 9))))
    if validate_surface(pmc).valid
]


def reflected(pmc: PointedMatchedCircle) -> PointedMatchedCircle:
    """-Z: the circle read the other way round, position p at 4g + 1 - p."""
    n1 = pmc.n_points + 1
    return matching_from_pairs(pmc.g, [(n1 - b, n1 - a) for a, b in pmc.pairs])


def opposite_map(table: AlgebraTable, op: AlgebraTable) -> list[int]:
    """phi from the generators of table, over Z, to those of op, the table
    of -Z with the same k and variant: chord (a, b) goes to
    (4g + 1 - b, 4g + 1 - a), and a dotted label to the label of its
    reflected lower position.  A generator phi sends outside op raises
    KeyError."""
    pmc, n1 = table.pmc, table.pmc.n_points + 1
    out = []
    for gen in table.gens:
        chords = tuple(sorted((n1 - b, n1 - a) for a, b in gen.chords))
        dotted = (op.pmc.labels[n1 - pmc.positions_of(p)[0] - 1] for p in gen.dotted)
        out.append(op.index[MatchedGenerator(chords, tuple(sorted(dotted)))])
    return out


def opposite_mismatches(table: AlgebraTable, op: AlgebraTable) -> int:
    """The product entries on which A(-Z) and A(Z)^op differ under phi:
    the symmetric difference of op.prod and {(phi b, phi a): phi c for
    every a.b = c of table}, as sets of entries."""
    phi = opposite_map(table, op)
    mapped = {((phi[j], phi[i]), phi[m]) for (i, j), m in product_pairs(table).items()}
    return len(mapped.symmetric_difference(product_pairs(op).items()))


def graph_suite_counts(table: AlgebraTable) -> tuple[int, int]:
    """What euler and rigidity should check on the grid of the table's
    matching, read off the table alone: one empty rectangle per
    differential entry plus one product domain per product entry, and
    per product entry a.b = m the entries with m as a factor, left or
    right."""
    pairs = product_pairs(table)
    left = Counter(i for i, _ in pairs)
    right = Counter(j for _, j in pairs)
    euler = sum(len(row) for row in table.diff) + len(pairs)
    return euler, sum(left[m] + right[m] for m in pairs.values())


def thimble_index_sets(g: int, k: int) -> list[tuple[int, ...]]:
    """Index sets of the k-fold thimble generators: k-subsets of 1..2g+1.

    The plane curve presenting the once-bounded genus-g surface has 2g+1
    critical values, one thimble each; products of k distinct thimbles are
    indexed by these subsets.
    """
    n = 2 * g + 1
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]


def check_exceptional(table: AlgebraTable) -> dict:
    """Half variant: hom(s,s) is one-dimensional for every s."""
    failures = []
    for s in table.idem_list:
        d = len(table.hom_indices(s, s))
        if d != 1:
            failures.append({"s": list(s), "dim": d})
    return {"name": "exceptional", "checked": len(table.idem_list), "failures": failures}


def check_directed(table: AlgebraTable) -> dict:
    """Half variant: no two distinct objects support morphisms both ways."""
    failures = []
    checked = 0
    for s, t in itertools.combinations(table.idem_list, 2):
        checked += 1
        if table.hom_indices(s, t) and table.hom_indices(t, s):
            failures.append({"s": list(s), "t": list(t)})
    return {"name": "directed", "checked": checked, "failures": failures}


def intersection_pattern(spec: GridSpec, i: int, j: int) -> int:
    """Point count of the (i, j) curve pair, found by counting cells;
    a label out of range raises ValueError."""
    return len(points_for_labels(spec, i, j))


def action_row(mod: RightDGModule, x: int, a: int) -> int:
    """The bitmask of x.a in mod, 0 when a acts on x by zero."""
    return mod.actions.get(a, {}).get(x, 0)


def verify_module_axioms(mod: RightDGModule) -> list[str]:
    """Returns a list of axiom failures (empty means the module passes).

    Checked: idempotent actions are the block projections summing to the
    identity; every action respects the source and target blocks;
    Leibniz d(xa) = (dx)a + x(da); associativity (xa)b = x(ab),
    vanishing products included.
    """
    table = mod.table
    n = mod.dim
    failures = []

    total = [0] * n
    for r, gi in enumerate(table.idem_gen):
        for x in range(n):
            expect = (1 << x) if mod.blocks[x] == r else 0
            got = action_row(mod, x, gi)
            if got != expect:
                failures.append(f"idempotent {r} acts wrongly on basis {x}")
            total[x] ^= got
    for x in range(n):
        if total[x] != 1 << x:
            failures.append(f"idempotent actions do not sum to identity at {x}")

    block_mask = {}
    for y in range(n):
        block_mask[mod.blocks[y]] = block_mask.get(mod.blocks[y], 0) | (1 << y)
    for a, rows in mod.actions.items():
        sa, ta = table.src[a], table.tgt[a]
        for x, row in rows.items():
            if mod.blocks[x] != sa and row:
                failures.append(f"generator {a} acts outside its source block")
                break
            if row & ~block_mask.get(ta, 0):
                failures.append(f"generator {a} lands outside its target block")
                break

    d = mod.complex.d
    for a in range(len(table.gens)):
        for x in range(n):
            acc = 0
            for x2 in bits(d.rows[x]):
                acc ^= action_row(mod, x2, a)
            for y in bits(action_row(mod, x, a)):
                acc ^= d.rows[y]
            for b in table.diff[a]:
                acc ^= action_row(mod, x, b)
            if acc:
                failures.append(f"Leibniz fails at basis {x}, generator {a}")

    for x in range(n):
        for a in table.by_source[mod.blocks[x]]:
            row_xa = action_row(mod, x, a)
            for b in table.by_source[table.tgt[a]]:
                acc = 0
                for y in bits(row_xa):
                    acc ^= action_row(mod, y, b)
                ab = table.prod[a].get(b)
                if ab is not None:
                    acc ^= action_row(mod, x, ab)
                if acc:
                    failures.append(f"associativity fails at ({x}, {a}, {b})")
    return failures


def block_rows(blocks):
    """The rows of ``homalg._linearity_blocks``' blocks one by one, as id
    lists: per block and per (lo, ox), the weight-one rows, then the hit
    pairs; after them the block's listed rows."""
    for los, oxs, zs, hits, rows in blocks:
        for lo, ox in zip(los, oxs):
            for z in zs:
                yield [lo + z]
            for p, j in hits:
                yield [lo + p, ox + j]
        yield from rows


def every_generator(mod: RightDGModule) -> RightDGModule:
    """A copy of mod whose explicit set is every non-idempotent
    generator: maps into or out of it write every generator's linearity
    rows, the oracle for the generating set.  mod itself is not touched."""
    out = RightDGModule(mod.table, mod.complex, mod.blocks, mod.actions)
    out.explicit = frozenset(range(len(mod.table.gens))) - set(mod.table.idem_gen)
    return out


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
