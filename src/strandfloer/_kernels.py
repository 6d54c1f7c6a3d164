"""The inner loops: GF(2) elimination, the numpy associativity sweep and
the composite-domain sweep.

Bit-matrix rows are Python ints, bit c being column c.  Only the
associativity sweep uses numpy, where it vectorises whole product-table
lookups.
"""

from __future__ import annotations

import numpy as np

# Recorded in the machine metadata of perfbench/probe.py.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# GF(2) row reduction.


def gf2_eliminate(rows: list[int], ncols: int) -> tuple[int, list[int]]:
    """Reduce ``rows`` (bitmask ints) to reduced row echelon form in place:
    the first rank rows carry the pivots, in ascending column order, and
    the rest are zero.  Returns (rank, pivot column list).
    """
    n = len(rows)
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        if rank == n:
            break
        bit = 1 << col
        for sel in range(rank, n):
            if rows[sel] & bit:
                break
        else:
            continue
        rows[sel], rows[rank] = rows[rank], rows[sel]
        pivot = rows[rank]
        for r in range(n):
            if r != rank and rows[r] & bit:
                rows[r] ^= pivot
        pivots.append(col)
        rank += 1
    return rank, pivots


# ---------------------------------------------------------------------------
# Associativity sweep over a product table.
#
# Generators are integers 0..n-1.  tgt[i] is the target idempotent id of
# generator i; (off, items) is a CSR listing of generators by source
# idempotent id; (keys, vals) encode the nonzero products, keys sorted,
# key = i*n + j, val = index of the product generator.  The sweep walks all
# composable triples (i, j, l) and demands
# table(table(i,j), l) == table(i, table(j,l)) with -1 meaning zero.


def assoc_scan(tgt, off, items, keys, vals, n):
    """Returns (triples_checked, i, j, l) with (-1,-1,-1) when no violation."""
    checked = 0
    n64 = np.int64(n)
    for i in range(n):
        u = tgt[i]
        js = items[off[u]:off[u + 1]]
        if js.size == 0:
            continue
        ps = _lookup_many(keys, vals, i * n64 + js)
        degs = off[tgt[js] + 1] - off[tgt[js]]
        total = int(degs.sum())
        if total == 0:
            continue
        j_rep = np.repeat(js, degs)
        p_rep = np.repeat(ps, degs)
        l_cat = np.concatenate([items[off[tgt[j]]:off[tgt[j] + 1]] for j in js])
        qs = _lookup_many(keys, vals, j_rep * n64 + l_cat)
        lhs = np.full(total, -1, np.int64)
        sel = p_rep >= 0
        if sel.any():
            lhs[sel] = _lookup_many(keys, vals, p_rep[sel] * n64 + l_cat[sel])
        rhs = np.full(total, -1, np.int64)
        sel = qs >= 0
        if sel.any():
            rhs[sel] = _lookup_many(keys, vals, np.int64(i) * n64 + qs[sel])
        bad = np.nonzero(lhs != rhs)[0]
        if bad.size:
            b = int(bad[0])
            return checked + b + 1, i, int(j_rep[b]), int(l_cat[b])
        checked += total
    return checked, -1, -1, -1


def _lookup_many(keys, vals, queries):
    pos = np.searchsorted(keys, queries)
    pos_safe = np.minimum(pos, keys.size - 1) if keys.size else pos
    out = np.full(queries.shape, -1, np.int64)
    if keys.size:
        hit = keys[pos_safe] == queries
        out[hit] = vals[pos_safe[hit]]
    return out


# ---------------------------------------------------------------------------
# Composite-domain index sweep.
#
# For every glued chain (edge e1 followed by an edge e2 attached at the
# product generator prod[e1]) the sweep counts forbidden triangle pairs
# across the two product steps and checks the index inequalities: pieces
# = 2k, quadrupled Maslov index 4*mu = 4*i >= 0 > 4*(2-3).  Triangles
# with flex >= 1 are the both-avatars item of that pair label and never
# make forbidden pairs, so only pinned triangles (flex = 0) are crossed.


def rigidity_scan(prod, tris, attach):
    """Scan all glued chains.  ``prod[e]`` is the product generator of
    edge e, ``tris[e]`` its triangles and ``attach`` maps a generator to
    the edges taking it as their left (or right) factor.  Returns
    (chains, violations, max_cross).
    """
    chains = 0
    violations = 0
    max_cross = 0
    pinned = [[t for t in ts if not t.flex] for ts in tris]
    for e1, p in enumerate(prod):
        pinned1 = pinned[e1]
        for e2 in attach.get(p, ()):
            cross = 0
            for c2, m2, r2, _ in pinned[e2]:
                for c1, m1, r1, _ in pinned1:
                    dm = m1 - m2
                    if (c1 - c2) * dm < 0 and dm * (r1 - r2) < 0:
                        cross += 1
            chains += 1
            if cross > max_cross:
                max_cross = cross
            # e = 2k quarter-units by construction; mu = i for l = 3.
            mu4 = 4 * cross
            if mu4 < 0 or not mu4 > 4 * (2 - 3):
                violations += 1
    return chains, violations, max_cross
