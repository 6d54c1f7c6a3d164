"""Chain complexes over GF(2), strict right dg-modules over a strands
algebra table, morphism complexes and homology ranks.

A module stores its right actions sparsely: for each algebra generator,
only the nonzero rows, as basis index -> bitmask of the image.  At g=3
k=2 full the 15 projectives e_s A hold the table's 32,253 nonzero
products between them, so one dense matrix per acting generator would
be almost all zero rows.

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
y' -> {y : y.a contains y'}, so each row is written once as a short
sequence of unknown ids.  The solver is generic sparse GF(2)
reduction: weight-one rows zero a variable, weight-two rows identify two
variables, and whatever remains goes through packed elimination.
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
from dataclasses import dataclass
from functools import cached_property

from .gf2 import BooleanMatrix
from .strands import AlgebraTable


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ChainComplex:
    """Basis labels plus a GF(2) differential with d.d = 0 enforced."""

    def __init__(self, labels: tuple, d: BooleanMatrix):
        n = len(labels)
        if d.nrows != n or d.ncols != n:
            raise ValueError("differential shape does not match the basis")
        square = d @ d
        if any(square.rows):
            raise ValueError("differential does not square to zero")
        self.labels = tuple(labels)
        self.d = d

    @property
    def dim(self) -> int:
        return len(self.labels)

    def homology_rank(self) -> int:
        """dim ker d - rank d, which over a field is dim - 2 rank."""
        return self.dim - 2 * self.d.rank()


def hom_complex(table: AlgebraTable, s, t) -> ChainComplex:
    """The summand hom(s, t) of the algebra with the restricted differential."""
    idx = table.hom_indices(s, t)
    pos = {gi: p for p, gi in enumerate(idx)}
    rows = []
    for gi in idx:
        mask = 0
        for gj in table.diff[gi]:
            mask |= 1 << pos[gj]
        rows.append(mask)
    labels = tuple(table.gens[gi] for gi in idx)
    return ChainComplex(labels, BooleanMatrix(len(idx), len(idx), rows))


@dataclass
class RightDGModule:
    """A strict right module over an algebra table.

    The basis is adapted to the idempotent decomposition: basis element
    x is fixed by exactly one idempotent action, recorded in blocks[x].
    actions maps an algebra generator index to the nonzero rows of its
    right action, {x: bitmask of x.a}; generators and rows acting by
    zero are omitted.
    """

    table: AlgebraTable
    complex: ChainComplex
    blocks: tuple[int, ...]
    actions: dict[int, dict[int, int]]

    @property
    def dim(self) -> int:
        return self.complex.dim

    def action_row(self, x: int, a: int) -> int:
        rows = self.actions.get(a)
        return rows.get(x, 0) if rows is not None else 0

    @cached_property
    def explicit(self) -> frozenset[int]:
        """The generators whose linearity rows mor_complex writes out for
        this module: the indecomposables, plus every generator c whose
        chosen factorization a.b this module does not respect, that is
        x.c != (x.a).b for some basis x.  Computed once per module;
        actions must not change afterwards."""
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
                for y in _bits(rows_a.get(x, 0)):
                    acc ^= rows_b.get(y, 0)
                if acc != rows_c.get(x, 0):
                    out.add(c)
                    break
        return frozenset(out)


# Per table, (the prod dict it was read from, its factorizations); a
# table whose prod is replaced gets a fresh pass.
_FACTORIZATION_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _factorizations(table: AlgebraTable) -> dict[int, tuple[int, int]]:
    """One factorization c = a.b, read from table.prod, for every
    decomposable generator c: a and b are not idempotents, and each has a
    smaller total chord length than c.  The lengths come from
    table.gens, not from the product, so the induction on length that
    lets mor_complex skip c stays well-founded on a corrupt table; a
    generator with no such factorization is indecomposable."""
    cached = _FACTORIZATION_CACHE.get(table)
    if cached is not None and cached[0] is table.prod:
        return cached[1]
    length = [sum(end - start for start, end in gen.chords) for gen in table.gens]
    idem = set(table.idem_gen)
    out: dict[int, tuple[int, int]] = {}
    for (a, b), c in table.prod.items():
        if (
            c not in out
            and a not in idem
            and b not in idem
            and length[a] < length[c]
            and length[b] < length[c]
        ):
            out[c] = (a, b)
    _FACTORIZATION_CACHE[table] = (table.prod, out)
    return out


def projective_module(table: AlgebraTable, s) -> RightDGModule:
    """e_s A with right multiplication: basis is every generator with
    source s, graded into blocks by target idempotent."""
    sid = table.idem_id[tuple(sorted(s))]
    basis = table.by_source[sid]
    pos = {gi: p for p, gi in enumerate(basis)}
    n = len(basis)

    d_rows = []
    for gi in basis:
        mask = 0
        for gj in table.diff[gi]:
            mask |= 1 << pos[gj]
        d_rows.append(mask)
    labels = tuple(table.gens[gi] for gi in basis)
    cx = ChainComplex(labels, BooleanMatrix(n, n, d_rows))

    actions: dict[int, dict[int, int]] = {}
    for p, gi in enumerate(basis):
        for a in table.by_source[table.tgt[gi]]:
            prod = table.prod.get((gi, a))
            if prod is not None:
                actions.setdefault(a, {})[p] = 1 << pos[prod]
    return RightDGModule(table, cx, tuple(table.tgt[gi] for gi in basis), actions)


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
            got = mod.action_row(x, gi)
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
            for x2 in _bits(d.rows[x]):
                acc ^= mod.action_row(x2, a)
            for y in _bits(mod.action_row(x, a)):
                acc ^= d.rows[y]
            for b in table.diff[a]:
                acc ^= mod.action_row(x, b)
            if acc:
                failures.append(f"Leibniz fails at basis {x}, generator {a}")

    for x in range(n):
        for a in table.by_source[mod.blocks[x]]:
            row_xa = mod.action_row(x, a)
            for b in table.by_source[table.tgt[a]]:
                acc = 0
                for y in _bits(row_xa):
                    acc ^= mod.action_row(y, b)
                ab = table.prod.get((a, b))
                if ab is not None:
                    acc ^= mod.action_row(x, ab)
                if acc:
                    failures.append(f"associativity fails at ({x}, {a}, {b})")
    return failures


# ---------------------------------------------------------------------------
# Morphism complexes.


class _LinearSystem:
    """Accumulates homogeneous GF(2) rows over integer variable ids and
    reduces them: a weight-one row zeroes its variable, a weight-two row
    merges the pair (union-find), heavier rows wait for elimination."""

    def __init__(self, n: int):
        self.n = n
        self.parent = list(range(n))
        self.zero = bytearray(n)
        self.rows: list[frozenset[int]] = []
        self._seen: set[frozenset[int]] = set()

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def _normalize(self, ids) -> frozenset[int]:
        out: set[int] = set()
        for i in ids:
            r = self.find(i)
            if not self.zero[r]:
                out.symmetric_difference_update((r,))
        return frozenset(out)

    def add(self, ids) -> bool:
        """Feed one row, a sequence of variable ids, in; True when it
        changed a variable's fate.

        Rows of one or two ids settle through find alone; a heavier row
        is normalized and, unless it shrinks to weight one or two, kept
        for elimination."""
        if len(ids) == 1:
            r = self.find(ids[0])
            if self.zero[r]:
                return False
            self.zero[r] = 1
            return True
        if len(ids) == 2:
            a, b = self.find(ids[0]), self.find(ids[1])
            if a == b or (self.zero[a] and self.zero[b]):
                return False
            if self.zero[a]:
                self.zero[b] = 1
            elif self.zero[b]:
                self.zero[a] = 1
            else:
                self.parent[b] = a
            return True
        row = self._normalize(ids)
        if not row:
            return False
        if len(row) <= 2:
            return self.add(tuple(row))
        if row not in self._seen:
            self._seen.add(row)
            self.rows.append(row)
        return False

    def settle(self):
        """Re-feed stored rows until a full pass changes nothing."""
        while self.rows:
            pending, self.rows, self._seen = self.rows, [], set()
            changed = False
            for row in pending:
                changed |= self.add(row)
            if not changed:
                return

    def solve(self) -> "_Solution":
        self.settle()
        root_col: dict[int, int] = {}
        reps: list[int] = []
        members: list[list[int]] = []
        for u in range(self.n):
            r = self.find(u)
            if self.zero[r]:
                continue
            col = root_col.get(r)
            if col is None:
                col = root_col[r] = len(reps)
                reps.append(u)
                members.append([])
            members[col].append(u)
        masks = []
        for row in self.rows:
            mask = 0
            for r in row:
                mask |= 1 << root_col[r]
            masks.append(mask)
        basis = BooleanMatrix(len(masks), len(reps), masks).nullspace()
        free_cols = [v.bit_length() - 1 for v in basis]
        return _Solution(members, reps, basis, free_cols)


@dataclass
class _Solution:
    members: list[list[int]]  # variables of each surviving class, per column
    reps: list[int]  # one representative variable per column
    basis: list[int]  # nullspace vectors over columns
    free_cols: list[int]  # defining column of each basis vector


@dataclass
class MorComplex:
    """Basis of module maps M -> N with the commutator differential."""

    source: RightDGModule
    target: RightDGModule
    maps: list[list[int]]  # each basis map as per-source-row bitmasks
    complex: ChainComplex

    @property
    def dim(self) -> int:
        return self.complex.dim

    def homology_rank(self) -> int:
        return self.complex.homology_rank()


def _unknown_layout(M: RightDGModule, N: RightDGModule):
    """Ids of the in-block unknowns of a map M -> N.

    Entry (x, y), for M.blocks[x] == N.blocks[y], is unknown
    base[x] + npos[y], where npos[y] is the position of y in its block
    list n_blocks[N.blocks[y]]: ids run over x, then over y.
    """
    n_blocks: dict[int, list[int]] = {}
    npos = []
    for y, b in enumerate(N.blocks):
        blk = n_blocks.setdefault(b, [])
        npos.append(len(blk))
        blk.append(y)
    base = []
    total = 0
    for b in M.blocks:
        base.append(total)
        total += len(n_blocks.get(b, ()))
    return base, npos, n_blocks


def _linearity_rows(M: RightDGModule, N: RightDGModule, layout, every_generator=False):
    """Yield the A-linearity constraints on maps f: M -> N as sequences
    of unknown ids, one per (generator a, x, y') with a term:

        sum of f(x2, y') over x2 in x.a  +  sum of f(x, y) over y.a containing y'

    Rows are written for the generators in M.explicit | N.explicit; the
    rest are implied (see the module docstring).  every_generator writes
    them for every non-idempotent generator instead, the test oracle.
    Idempotent generators are always left out; their rows are the block
    structure of the unknowns (layout is _unknown_layout(M, N)).  A row
    may repeat an id, which then cancels."""
    base, npos, n_blocks = layout
    m_blocks: dict[int, list[int]] = {}
    for x, b in enumerate(M.blocks):
        m_blocks.setdefault(b, []).append(x)
    empty: dict = {}
    acting = M.actions.keys() | N.actions.keys()
    if every_generator:
        gens = acting - set(M.table.idem_gen)
    else:
        gens = acting & (M.explicit | N.explicit)
    for a in sorted(gens):
        m_rows = M.actions.get(a, empty)
        # N's action transposed and grouped by the block of y: y' -> [npos[y]].
        into: dict[int, dict[int, list[int]]] = {}
        for y, row in N.actions.get(a, empty).items():
            by_yp = into.setdefault(N.blocks[y], {})
            for yp in _bits(row):
                by_yp.setdefault(yp, []).append(npos[y])
        # Keys (x, y') with a term on M's side: y' in a block that x.a meets.
        for x, row_x in m_rows.items():
            ox = base[x]
            ys_of = into.get(M.blocks[x], empty)
            offsets: dict[int, list[int]] = {}
            for x2 in _bits(row_x):
                offsets.setdefault(M.blocks[x2], []).append(base[x2])
            for b, offs in offsets.items():
                blk = n_blocks.get(b, ())
                # Row of (x, y'), M's side: f(x2, y') is base[x2] + npos[y'].
                for yp, row in zip(blk, zip(*[range(o, o + len(blk)) for o in offs])):
                    ys = ys_of.get(yp)
                    if ys is not None:
                        row += tuple([ox + j for j in ys])
                    yield row
            for yp, ys in ys_of.items():
                if N.blocks[yp] not in offsets:
                    yield [ox + j for j in ys]
        # Keys with terms on N's side only.
        for b, ys_of in into.items():
            tails = list(ys_of.values())
            for x in m_blocks.get(b, ()):
                if x not in m_rows:
                    ox = base[x]
                    for ys in tails:
                        yield [ox + j for j in ys]


def mor_complex(M: RightDGModule, N: RightDGModule) -> MorComplex:
    """Solve the A-linearity constraints and carry D(f) = d f + f d.

    One constraint row is written for every (generator in M.explicit |
    N.explicit, source basis, target basis) triple with a term (see
    _linearity_rows); the other generators' rows are implied.  The
    differential of each solution is re-expressed in the solution basis
    and the expansion is required to reproduce it exactly: the honest
    check that D preserves the space.
    """
    if M.table is not N.table:
        raise ValueError("modules live over different algebras")
    nm = M.dim
    layout = _unknown_layout(M, N)
    n_blocks = layout[2]
    uid_xy = [(x, y) for x, b in enumerate(M.blocks) for y in n_blocks.get(b, ())]

    system = _LinearSystem(len(uid_xy))
    add = system.add
    for row in _linearity_rows(M, N, layout):
        add(row)
    sol = system.solve()

    maps: list[list[int]] = []
    for vec in sol.basis:
        f_rows = [0] * nm
        for col in _bits(vec):
            for u in sol.members[col]:
                x, y = uid_xy[u]
                f_rows[x] |= 1 << y
        maps.append(f_rows)
    read_at = [uid_xy[sol.reps[c]] for c in sol.free_cols]

    dm, dn = M.complex.d, N.complex.d
    d_rows = []
    for f_rows in maps:
        g_rows = [0] * nm
        for x in range(nm):
            acc = 0
            for x2 in _bits(dm.rows[x]):
                acc ^= f_rows[x2]
            for y in _bits(f_rows[x]):
                acc ^= dn.rows[y]
            g_rows[x] = acc
        coords = 0
        for j, (xr, yr) in enumerate(read_at):
            if (g_rows[xr] >> yr) & 1:
                coords |= 1 << j
        check = [0] * nm
        for j in _bits(coords):
            for x in range(nm):
                check[x] ^= maps[j][x]
        if check != g_rows:
            raise ValueError("differential leaves the morphism space")
        d_rows.append(coords)

    dim = len(maps)
    cx = ChainComplex(tuple(range(dim)), BooleanMatrix(dim, dim, d_rows))
    return MorComplex(M, N, maps, cx)


def yoneda_ranks(table: AlgebraTable, s, t) -> tuple[int, int]:
    """H* rank of Mor(e_s A, e_t A) next to H* rank of e_t A e_s."""
    mc = mor_complex(projective_module(table, s), projective_module(table, t))
    return mc.homology_rank(), hom_complex(table, t, s).homology_rank()
