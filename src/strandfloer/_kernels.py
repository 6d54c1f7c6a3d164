"""Array kernels in plain numpy.

Rows of bit matrices are packed little endian into uint64 words, column c
living at word c >> 6, bit c & 63.
"""

from __future__ import annotations

import numpy as np

# Recorded in the machine metadata of perfbench/probe.py.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# GF(2) row reduction on packed rows.


def gf2_eliminate(rows: np.ndarray, ncols: int) -> tuple[int, list[int]]:
    """Reduce ``rows`` (shape (n, words), uint64) to reduced row echelon form
    in place.  Returns (rank, pivot column list).  Column loop stays in
    Python; the row clearing is a vectorized xor.
    """
    n, _ = rows.shape
    rank = 0
    pivots: list[int] = []
    for col in range(ncols):
        if rank == n:
            break
        word, bit = divmod(col, 64)
        mask = np.uint64(1 << bit)
        hits = np.nonzero((rows[rank:, word] & mask) != 0)[0]
        if hits.size == 0:
            continue
        sel = rank + int(hits[0])
        if sel != rank:
            rows[[rank, sel]] = rows[[sel, rank]]
        has = (rows[:, word] & mask) != 0
        has[rank] = False
        if has.any():
            rows[has] ^= rows[rank]
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
# For every glued chain (entry e1 followed by entry e2 with left factor
# ep[e1]) the kernel counts forbidden triangle pairs across the two product
# steps and checks the index inequalities: pieces = 2k, quadrupled Maslov
# index 4*mu = 4*i >= 0 > 4*(2-3).  Triangles are rows (c, m, r, flex)
# with flex >= 1 marking the both-avatars item of that pair label (then
# c = m = r = flex) and flex = 0 a pinned triangle.


def rigidity_scan(ep, eoff, eitems, tris, k):
    """Scan all glued chains.  ``tris`` has one (k,4) block per entry,
    flattened to shape (entries*k, 4); (eoff, eitems) lists entries by left
    factor; ep[e] is the product generator of entry e.  Flexible rows never
    make forbidden pairs, so only pinned rows are crossed.  Returns
    (chains, violations, max_cross).
    """
    chains = 0
    violations = 0
    max_cross = 0
    n_entries = ep.shape[0]
    for e1 in range(n_entries):
        p = ep[e1]
        seconds = eitems[eoff[p]:eoff[p + 1]]
        if seconds.size == 0:
            continue
        t1 = tris[e1 * k:(e1 + 1) * k]
        pinned1 = t1[t1[:, 3] == 0]
        for e2 in seconds:
            t2 = tris[e2 * k:(e2 + 1) * k]
            pinned2 = t2[t2[:, 3] == 0]
            cross = 0
            if pinned1.shape[0] and pinned2.shape[0]:
                dc = pinned1[:, 0:1] - pinned2[:, 0].reshape(1, -1)
                dm = pinned1[:, 1:2] - pinned2[:, 1].reshape(1, -1)
                dr = pinned1[:, 2:3] - pinned2[:, 2].reshape(1, -1)
                cross = int(((dc * dm < 0) & (dm * dr < 0)).sum())
            chains += 1
            if cross > max_cross:
                max_cross = cross
            # e = 2k quarter-units by construction; mu = i for l = 3.
            mu4 = 4 * cross
            if mu4 < 0 or not mu4 > 4 * (2 - 3):
                violations += 1
    return chains, violations, max_cross
