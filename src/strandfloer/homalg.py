"""Chain complexes over GF(2), strict right dg-modules over a strands
algebra table, morphism complexes and homology ranks.

A chain complex is its differential alone, and every walk over the set
bits of a row is gf2.bits.

A module stores its right actions sparsely: for each algebra generator,
only the nonzero rows, as basis index -> bitmask of the image.  At g=3
k=2 full the 15 projectives e_s A hold the table's 32,253 nonzero
products between them, so one dense matrix per acting generator would
be almost all zero rows.  mor_complex reads only the actions of the
generators in the explicit sets below, so the yoneda suite keeps only
those: at g=3 k=2 full, 2,930 of the 32,253 entries in 710 of 15,526
action dicts.

The morphism space Mor(M, N) is computed the long way around: module
maps are unknown matrices, algebra generators contribute the linearity
constraints f(m(x,a)) = m(f(x),a), and the solution space is the kernel
of that homogeneous system.

Rows are written only for a generating set.  Per table, each
decomposable generator c gets one factorization c = a.b from the
product, with a and b non-idempotent and each of smaller total chord
length than c (lengths read from the generators).  Per module, the
explicit set is the indecomposables plus every c whose identity
x.c = (x.a).b fails on some basis x of that module.  Mor(M, N) writes
the rows of M.explicit | N.explicit.  The other rows are implied: if c
is in neither set, then f(x.c) = f((x.a).b) = f(x.a).b = f(x).a.b =
f(x).c, using linearity for b and a, which holds by induction on chord
length.  Fewer rows can only enlarge the solution space, so the result
is the space every generator's rows give, exactly, for any M and N:
corrupt tables, non-associative actions and hand-built non-modules
included.  At g=3 k=2 full 54 of 1,730 non-idempotent generators are
indecomposable, and the 225 projective pairs need 530k rows instead of
6.6M.

For a generator a, the row of the entry (x, y') reads M's action row
x.a directly and N's action through its transpose
y' -> {y : y.a contains y'}.  The rows come in blocks: when x.a is one
basis element x2, the rows of x over x2's block are a range of unknown
ids, each a weight-one row, except where the transpose hits y', which
adds f(x, y) and, with one such y, makes a weight-two row.  That pattern
depends only on N, a and the two blocks, so N keeps it per generator
and a block is one list of offsets fed for every such x; only the
heavier rows are built as id lists.  At g=3 k=2 full the 225
projective pairs have 309,820 weight-one rows, 220,108 weight-two rows
and none heavier.
The solver is generic sparse GF(2) reduction, one function: weight-one
rows mark a variable zero and weight-two rows identify two variables in
a union-find.  Marks and merges only grow, so the classes do not depend
on the order the rows arrive in.  Heavier rows (multi-bit action rows,
as in sums and rebased modules, or a y' hit by several y) are rewritten
once over the classes that survive, and one packed elimination over
those classes solves them exactly; the projectives send none.
Nothing here assumes the modules are projective; the yoneda comparison
against e_t A e_s is meaningful precisely because the two sides are
computed by unrelated routes.

Unknowns are allocated for the in-block matrix entries only (row and
column carrying the same idempotent block): the action rows of the
idempotent generators are weight-one constraints zeroing every off-block
entry, so restricting the unknown set is the presolved form of exactly
those rows.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, filterfalse

from .gf2 import BooleanMatrix, bits
from .strands import AlgebraTable


class ChainComplex:
    """A square GF(2) differential with d.d = 0 enforced."""

    def __init__(self, d: BooleanMatrix):
        if d.nrows != d.ncols:
            raise ValueError("differential is not square")
        if any((d @ d).rows):
            raise ValueError("differential does not square to zero")
        self.d = d

    @property
    def dim(self) -> int:
        return self.d.nrows

    def homology_rank(self) -> int:
        """dim ker d - rank d, which over a field is dim - 2 rank."""
        return self.dim - 2 * self.d.rank()


def _restricted_complex(table: AlgebraTable, basis: list[int]) -> ChainComplex:
    """The generators ``basis`` (table indices) with table.diff restricted
    to them; a term of a basis element's differential outside the basis
    is a ValueError."""
    pos = {gi: p for p, gi in enumerate(basis)}
    rows = []
    try:
        for gi in basis:
            mask = 0
            for gj in table.diff[gi]:
                mask |= 1 << pos[gj]
            rows.append(mask)
    except KeyError:
        raise ValueError(f"the differential of {gi} has the term {gj} outside the basis") from None
    return ChainComplex(BooleanMatrix(len(basis), len(basis), rows))


def hom_complex(table: AlgebraTable, s, t) -> ChainComplex:
    """The summand hom(s, t) of the algebra with the restricted differential."""
    return _restricted_complex(table, table.hom_indices(s, t))


@dataclass
class RightDGModule:
    """A strict right module over an algebra table.

    The basis is adapted to the idempotent decomposition: basis element
    x is fixed by exactly one idempotent action, recorded in blocks[x].
    actions maps an algebra generator index to the nonzero rows of its
    right action, {x: bitmask of x.a}; generators and rows acting by
    zero are omitted.  mor_complex reads the actions of the generators
    in M.explicit | N.explicit only, so a module may drop the others
    once its explicit set is computed.
    """

    table: AlgebraTable
    complex: ChainComplex
    blocks: tuple[int, ...]
    actions: dict[int, dict[int, int]]
    # Per generator, this module's side of the linearity rows of maps
    # into it, filled by _target on first use.
    _targets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.complex.dim

    @cached_property
    def block_lists(self) -> tuple[dict[int, list[int]], list[int]]:
        """The basis of each block in order, and the position of each
        basis element in its block's list."""
        lists: dict[int, list[int]] = {}
        pos = []
        for x, b in enumerate(self.blocks):
            blk = lists.setdefault(b, [])
            pos.append(len(blk))
            blk.append(x)
        return lists, pos

    @cached_property
    def explicit(self) -> frozenset[int]:
        """The generators whose linearity rows mor_complex writes out for
        this module: the indecomposables, plus every generator c whose
        chosen factorization a.b this module does not respect, that is
        x.c != (x.a).b for some basis x.  Computed once per module, from
        the actions it holds then; later changes to actions do not move
        it."""
        table = self.table
        factor = _factorizations(table)
        out = set(range(len(table.gens))) - set(table.idem_gen) - factor.keys()
        empty: dict = {}
        for c, (a, b) in factor.items():
            rows_a = self.actions.get(a, empty)
            rows_c = self.actions.get(c, empty)
            if not rows_a and not rows_c:
                continue
            rows_b = self.actions.get(b, empty)
            for x in rows_a.keys() | rows_c.keys():
                acc = 0
                for y in bits(rows_a.get(x, 0)):
                    acc ^= rows_b.get(y, 0)
                if acc != rows_c.get(x, 0):
                    out.add(c)
                    break
        return frozenset(out)


# Per table, (the prod rows it was read from, its factorizations); a
# table whose prod is replaced gets a fresh pass.
_FACTORIZATION_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _factorizations(table: AlgebraTable) -> dict[int, tuple[int, int]]:
    """One factorization c = a.b, read from table.prod, for every
    decomposable generator c: a and b are not idempotents, and each has a
    smaller total chord length than c.  The lengths come from
    table.gens, not from the product, so the induction on length that
    lets mor_complex skip c stays well-founded on a corrupt table; a
    generator with no such factorization is indecomposable.  The one
    kept is the smallest (a, b)."""
    cached = _FACTORIZATION_CACHE.get(table)
    if cached is not None and cached[0] is table.prod:
        return cached[1]
    length = [sum(end - start for start, end in gen.chords) for gen in table.gens]
    idem = set(table.idem_gen)
    out: dict[int, tuple[int, int]] = {}
    for a, row in enumerate(table.prod):
        if a in idem:
            continue
        for b, c in row.items():
            if c not in out and b not in idem and length[a] < length[c] and length[b] < length[c]:
                out[c] = (a, b)
    _FACTORIZATION_CACHE[table] = (table.prod, out)
    return out


def projective_actions(table: AlgebraTable, s, acting=None) -> dict[int, dict[int, int]]:
    """The right actions on e_s A of the generators in ``acting``, or of
    every generator when it is None, as RightDGModule.actions holds them.
    They are read from the rows of the basis generators, composable
    entries only, filled in (basis position, acting generator) order; a
    product outside e_s A is a ValueError."""
    basis = table.by_source[table.idem_id[tuple(sorted(s))]]
    pos = {gi: p for p, gi in enumerate(basis)}
    tgt, src = table.tgt, table.src
    # One int per basis position, shared by every action entry onto it.
    unit = [1 << q for q in range(len(basis))]
    actions: dict[int, dict[int, int]] = {}
    try:
        for p, gi in enumerate(basis):
            t = tgt[gi]
            for a, m in table.prod[gi].items():
                if src[a] == t and (acting is None or a in acting):
                    actions.setdefault(a, {})[p] = unit[pos[m]]
    except KeyError:
        raise ValueError(f"the product {gi} * {a} = {m} lies outside e_s A") from None
    return actions


def projective_module(table: AlgebraTable, s) -> RightDGModule:
    """e_s A with right multiplication: basis is every generator with
    source s, graded into blocks by target idempotent, with the actions
    of ``projective_actions``.  The yoneda suite keeps only the actions
    that mor_complex reads (``verify._yoneda_modules``)."""
    basis = table.by_source[table.idem_id[tuple(sorted(s))]]
    cx = _restricted_complex(table, basis)
    actions = projective_actions(table, s)
    return RightDGModule(table, cx, tuple(table.tgt[gi] for gi in basis), actions)


# ---------------------------------------------------------------------------
# Morphism complexes.


def _solve(n: int, blocks) -> tuple[list[list[int]], list[int], list[int]]:
    """Solve the homogeneous GF(2) rows of blocks (see _linearity_blocks)
    over the variable ids 0..n-1: (members, reps, basis), with the
    variables of each surviving class and one representative of it per
    column, and the nullspace vectors over those columns.

    A weight-one row marks its variable zero and a weight-two row merges
    the pair in a union-find, or, with a marked end, marks the other end;
    a class is zero when any member is marked, so the surviving classes
    are the components of the pairs that no mark reaches, whatever order
    the rows arrive in.  Heavier rows are kept, rewritten over the
    surviving classes and eliminated once."""
    parent = list(range(n))
    zero = bytearray(n)
    heavy = []

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for los, oxs, zs, hits, rows in blocks:
        for lo, ox in zip(los, oxs):
            for z in zs:
                zero[lo + z] = 1
            for p, j in hits:
                u = lo + p
                v = ox + j
                if zero[u] or zero[v]:
                    zero[u] = zero[v] = 1
                    continue
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                parent[v] = u
        for row in rows:
            if len(row) == 1:
                zero[row[0]] = 1
            elif len(row) == 2:
                u, v = row
                if zero[u] or zero[v]:
                    zero[u] = zero[v] = 1
                else:
                    parent[find(v)] = find(u)
            else:
                heavy.append(row)

    # Fold the marks into the roots.
    for u in compress(range(n), zero):
        if parent[u] != u:
            zero[find(u)] = 1
    root_col: dict[int, int] = {}
    reps: list[int] = []
    members: list[list[int]] = []
    for u in filterfalse(zero.__getitem__, range(n)):
        r = find(u)
        if zero[r]:
            continue
        col = root_col.get(r)
        if col is None:
            col = root_col[r] = len(reps)
            reps.append(u)
            members.append([])
        members[col].append(u)
    # A repeated id cancels and a zero class drops out.
    masks = []
    for row in heavy:
        mask = 0
        for u in row:
            col = root_col.get(find(u))
            if col is not None:
                mask ^= 1 << col
        if mask:
            masks.append(mask)
    return members, reps, BooleanMatrix(len(masks), len(reps), masks).nullspace()


@dataclass
class MorComplex:
    """Basis of module maps M -> N with the commutator differential."""

    maps: list[list[int]]  # each basis map as per-source-row bitmasks
    complex: ChainComplex

    @property
    def dim(self) -> int:
        return self.complex.dim

    def homology_rank(self) -> int:
        return self.complex.homology_rank()


def _unknown_layout(M: RightDGModule, N: RightDGModule):
    """Ids of the in-block unknowns of a map M -> N, as (base, n_blocks,
    total).

    Entry (x, y), for M.blocks[x] == N.blocks[y], is unknown base[x] + p,
    where p is the position of y in its block list n_blocks[N.blocks[y]]:
    ids run over x, then over y, and total counts them.
    """
    n_blocks = N.block_lists[0]
    base = []
    total = 0
    for b in M.blocks:
        base.append(total)
        total += len(n_blocks.get(b, ()))
    return base, n_blocks, total


def _target(N: RightDGModule, a: int) -> tuple[dict, dict]:
    """(into, patterns) for generator a acting on N as the target of a
    map.  into is N's action transposed and grouped by the block of y,
    {block: {y': [position of y in its block, for each y.a containing
    y']}}; patterns caches _target_rows.  Built once per module and
    generator, so actions must not change afterwards."""
    got = N._targets.get(a)
    if got is None:
        npos = N.block_lists[1]
        into: dict[int, dict[int, list[int]]] = {}
        for y, row in N.actions.get(a, {}).items():
            by_yp = into.setdefault(N.blocks[y], {})
            for yp in bits(row):
                by_yp.setdefault(yp, []).append(npos[y])
        got = N._targets[a] = (into, {})
    return got


def _target_rows(N: RightDGModule, a: int, c: int, b: int | None) -> tuple[list, list, list]:
    """The rows generator a writes for the keys (x, y') of one x in block
    c with x.a a single basis element x2 in block b, or with x.a = 0 when
    b is None, as offsets from lo = base[x2] (base[x] when b is None) and
    ox = base[x]: (zs, hits, rows) as in a block of _linearity_blocks,
    with each listed row a pair (ps, js) of the ids lo + p and ox + j.

    Over b every y' of the block is a row, the unhit ones of weight one;
    with b None only the y' that N's transposed action hits are rows."""
    into, patterns = _target(N, a)
    got = patterns.get((c, b))
    if got is None:
        ys_of = into.get(c, {})
        if b is None:
            zs = [ys[0] for ys in ys_of.values() if len(ys) == 1]
            hits = []
            rows = [((), ys) for ys in ys_of.values() if len(ys) > 1]
        else:
            blk = N.block_lists[0].get(b, ())
            zs = [p for p, yp in enumerate(blk) if yp not in ys_of]
            hit = [(p, ys_of[yp]) for p, yp in enumerate(blk) if yp in ys_of]
            hits = [(p, ys[0]) for p, ys in hit if len(ys) == 1]
            rows = [((p,), ys) for p, ys in hit if len(ys) > 1]
            rows += [((), ys) for yp, ys in ys_of.items() if N.blocks[yp] != b]
        got = patterns[(c, b)] = (zs, hits, rows)
    return got


def _linearity_blocks(M: RightDGModule, N: RightDGModule, layout):
    """Yield the A-linearity constraints on maps f: M -> N in blocks.  The
    rows are those of the keys (generator a, x, y') with a term,

        sum of f(x2, y') over x2 in x.a  +  sum of f(x, y) over y.a containing y',

    each a sum of unknown ids.  A block (los, oxs, zs, hits, rows) holds,
    for each i, the weight-one rows of the ids los[i] + z for z in zs and
    the weight-two rows (los[i] + p, oxs[i] + j) for (p, j) in hits; then
    the rows listed in rows, as id lists in which a repeated id cancels.

    For x.a = x2 a single basis element, the rows of (x, y') over x2's
    block are the id range from los = base[x2], zeroed, except at the y'
    that N's transposed action y' -> {y : y.a contains y'} hits: there the
    row also holds f(x, y), for oxs = base[x], and with one such y it is a
    pair.  The pattern depends only on N, a and the blocks of x and x2
    (_target_rows), so one block carries every such x.  The keys with a
    term on N's side only (x.a = 0) make a block whose zs are the y hit
    alone, from los = oxs = base[x].  A multi-bit x.a, a y' hit by several
    ys and a y' outside x2's block write their rows one by one.

    Rows are written for the generators in M.explicit | N.explicit that
    act on M or N; the rest are implied (see the module docstring).
    Idempotent generators are never explicit; their rows are the block
    structure of the unknowns (layout is _unknown_layout(M, N))."""
    base, n_blocks, _ = layout
    m_blocks = M.block_lists[0]
    empty: dict = {}
    for a in sorted(M.explicit | N.explicit):
        if a not in M.actions and a not in N.actions:
            continue
        m_rows = M.actions.get(a, empty)
        into = _target(N, a)[0]
        rows: list[list[int]] = []
        groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for x, row_x in m_rows.items():
            ox = base[x]
            if not row_x & (row_x - 1):
                x2 = row_x.bit_length() - 1
                los, oxs = groups.setdefault((M.blocks[x], M.blocks[x2]), ([], []))
                los.append(base[x2])
                oxs.append(ox)
                continue
            ys_of = into.get(M.blocks[x], empty)
            offsets: dict[int, list[int]] = {}
            for x2 in bits(row_x):
                offsets.setdefault(M.blocks[x2], []).append(base[x2])
            for b, offs in offsets.items():
                for p, yp in enumerate(n_blocks.get(b, ())):
                    rows.append([o + p for o in offs] + [ox + j for j in ys_of.get(yp, ())])
            rows += [
                [ox + j for j in ys] for yp, ys in ys_of.items() if N.blocks[yp] not in offsets
            ]
        if rows:
            yield (), (), (), (), rows
        keys = [(key, los, oxs) for key, (los, oxs) in groups.items()]
        for c in into:
            oxs = [base[x] for x in m_blocks.get(c, ()) if x not in m_rows]
            if oxs:
                keys.append(((c, None), oxs, oxs))
        for (c, b), los, oxs in keys:
            zs, hits, listed = _target_rows(N, a, c, b)
            rows = [
                [lo + p for p in ps] + [ox + j for j in js]
                for ps, js in listed
                for lo, ox in zip(los, oxs)
            ]
            yield los, oxs, zs, hits, rows


def mor_complex(M: RightDGModule, N: RightDGModule) -> MorComplex:
    """Solve the A-linearity constraints and carry D(f) = d f + f d.

    One constraint row is written for every (generator in M.explicit |
    N.explicit, source basis, target basis) triple with a term (see
    _linearity_blocks); the other generators' rows are implied.  The
    differential of each solution is re-expressed in the solution basis
    and the expansion is required to reproduce it exactly: the honest
    check that D preserves the space.
    """
    if M.table is not N.table:
        raise ValueError("modules live over different algebras")
    nm = M.dim
    layout = _unknown_layout(M, N)
    base, n_blocks, total = layout

    def entry(u: int) -> tuple[int, int]:
        """The matrix entry (x, y) of unknown u."""
        x = bisect_right(base, u) - 1
        return x, n_blocks[M.blocks[x]][u - base[x]]

    members, reps, basis = _solve(total, _linearity_blocks(M, N, layout))

    maps: list[list[int]] = []
    for vec in basis:
        f_rows = [0] * nm
        for col in bits(vec):
            for u in members[col]:
                x, y = entry(u)
                f_rows[x] |= 1 << y
        maps.append(f_rows)
    # Each basis vector is read at its defining (highest) column.
    read_at = [entry(reps[v.bit_length() - 1]) for v in basis]

    dn_rows = N.complex.d.rows
    dm_terms = [(x, list(bits(row))) for x, row in enumerate(M.complex.d.rows) if row]
    d_rows = []
    for f_rows in maps:
        g_rows = [0] * nm
        for x, x2s in dm_terms:
            acc = 0
            for x2 in x2s:
                acc ^= f_rows[x2]
            g_rows[x] = acc
        for x, row in enumerate(f_rows):
            if row:
                acc = g_rows[x]
                for y in bits(row):
                    acc ^= dn_rows[y]
                g_rows[x] = acc
        coords = 0
        for j, (xr, yr) in enumerate(read_at):
            if (g_rows[xr] >> yr) & 1:
                coords |= 1 << j
        check = [0] * nm
        for j in bits(coords):
            check = [c ^ m for c, m in zip(check, maps[j])]
        if check != g_rows:
            raise ValueError("differential leaves the morphism space")
        d_rows.append(coords)

    dim = len(maps)
    cx = ChainComplex(BooleanMatrix(dim, dim, d_rows))
    return MorComplex(maps, cx)


def yoneda_ranks(table: AlgebraTable, s, t) -> tuple[int, int]:
    """H* rank of Mor(e_s A, e_t A) next to H* rank of e_t A e_s."""
    mc = mor_complex(projective_module(table, s), projective_module(table, t))
    return mc.homology_rank(), hom_complex(table, t, s).homology_rank()
