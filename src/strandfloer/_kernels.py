"""The inner loops: GF(2) elimination, the associativity walk and the
composite-domain sweep, all in plain Python.

Bit-matrix rows are Python ints, bit c being column c; the product table
is read as it is built, one dict per left factor.
"""

from __future__ import annotations

# Recorded in the machine metadata of perfbench/probe.py.
BACKEND = "python"


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
# Associativity walk over a product table.
#
# prod[i] maps each j with a nonzero product to its index, so prod[p] is
# the row of p; cols[q] lists the left factors i with prod[i][q] set.  A
# composable triple (i, j, l) whose two sides (ij)l and i(jl) are both
# zero holds trivially, so the walk reaches only the triples with a
# nonzero side: (ij)l is nonzero only for l in the row of ij, and i(jl)
# only for i in the column of jl.


def assoc_scan(prod, cols, src, tgt):
    """Walk the composable triples with a nonzero side.  ``src`` and
    ``tgt`` give each generator's idempotent ids, so that a triple is
    composable when tgt[i] == src[j] and tgt[j] == src[l].  Returns
    (visits, failing triples in (i, j, l) order), where visits counts the
    row and column entries read.
    """
    visits = 0
    bad = []
    for i, row_i in enumerate(prod):
        for j, p in row_i.items():
            if tgt[i] != src[j]:
                continue
            row = prod[p]
            visits += len(row)
            row_j = prod[j]
            t = tgt[j]
            for l, left in row.items():
                if src[l] != t:
                    continue
                q = row_j.get(l)
                if q is None or row_i.get(q) != left:
                    bad.append((i, j, l))
    # Triples whose left side is nonzero were settled above.
    for j, row_j in enumerate(prod):
        s = src[j]
        for l, q in row_j.items():
            if tgt[j] != src[l]:
                continue
            col = cols[q]
            visits += len(col)
            for i in col:
                if tgt[i] != s:
                    continue
                p = prod[i].get(j)
                if p is None or l not in prod[p]:
                    bad.append((i, j, l))
    bad.sort()
    return visits, bad


# ---------------------------------------------------------------------------
# Composite-domain index sweep.
#
# For every glued chain (edge e1 followed by an edge e2 attached at the
# product generator prod[e1]) the sweep counts forbidden triangle pairs
# across the two product steps and checks the index inequalities: pieces
# = 2k, quadrupled Maslov index 4*mu = 4*i >= 0 > 4*(2-3).  Triangles
# with flex >= 1 are the both-avatars item of that pair label and never
# make forbidden pairs, so only pinned triangles (flex = 0) are crossed.
# The sweep takes one product generator p at a time and indexes the
# pinned triangles of the edges attached at p.  Each edge into p looks
# up, per triangle of its own, the attached edges holding a triangle
# that crosses it, so only the chains with a crossing pair are visited.
# Every other chain has no crossing, 0 >= 0 > -4, and is counted.


def rigidity_scan(prod, tri_ids, k, triangles, attach):
    """Scan all glued chains.  ``prod[e]`` is the product generator of
    edge e, ``tri_ids[k * e : k * e + k]`` the ids of its k triangles in
    ``triangles`` and ``attach`` maps a generator to the edges taking it
    as a factor.  Returns (chains, violations, max_cross).
    """
    # Imported here, not with the module: loading the extension adds
    # about 0.15 MB to the RSS of every run, a build included.
    from array import array

    chains = 0
    violations = 0
    max_cross = 0
    pinned = [not t.flex for t in triangles]
    # The edges into each product generator with attached edges, as
    # arrays: a list would hold one int object per edge.
    into: dict[int, array] = {}
    for e, p in enumerate(prod):
        if p in attach:
            if p not in into:
                into[p] = array("i")
            into[p].append(e)
    for p, firsts in into.items():
        seconds = attach[p]
        chains += len(firsts) * len(seconds)
        # Each pinned triangle id of an attached edge, to the positions in
        # ``seconds`` that hold it: an edge listed twice is two chains.
        holders: dict[int, list[int]] = {}
        for n, e2 in enumerate(seconds):
            for t in tri_ids[k * e2 : k * e2 + k]:
                if pinned[t]:
                    holders.setdefault(t, []).append(n)
        held_at = [(triangles[t], held) for t, held in holders.items()]
        # Each triangle id of an edge into p, to the positions holding a
        # triangle that crosses it, once per crossing pair.
        crossed: dict[int, list[int]] = {}
        for e1 in firsts:
            cross_at: dict[int, int] = {}
            for t1 in tri_ids[k * e1 : k * e1 + k]:
                hit = crossed.get(t1)
                if hit is None:
                    c1, m1, r1, flex = triangles[t1]
                    hit = crossed[t1] = [] if flex else [
                        n
                        for (c2, m2, r2, _), held in held_at
                        if (c1 - c2) * (m1 - m2) < 0 and (m1 - m2) * (r1 - r2) < 0
                        for n in held
                    ]
                for n in hit:
                    cross_at[n] = cross_at.get(n, 0) + 1
            for cross in cross_at.values():
                if cross > max_cross:
                    max_cross = cross
                # e = 2k quarter-units by construction; mu = i for l = 3.
                mu4 = 4 * cross
                if mu4 < 0 or not mu4 > 4 * (2 - 3):
                    violations += 1
    return chains, violations, max_cross
