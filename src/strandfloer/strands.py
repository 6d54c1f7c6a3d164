"""Strands algebras of a pointed matched circle.

A generator is a k-element upward strand picture drawn on the circle
positions: chords (a, b) moving from position a up to position b, plus
dotted pair labels occupying both positions of a matched pair.  Source and
target idempotents are the k-subsets of pair labels read off the chord
endpoints and the dotted items; all source labels are distinct and all
target labels are distinct.

A dotted pair is not a single strand: it stands for the sum of the two
horizontal strands at its positions.  The operations ``differential`` and
``product`` therefore expand a generator into its 2^(#dotted) sections
(plain diagrams), act on those by crossing resolution or concatenation
under the double-crossing rule, and reassemble complete section families
back into generators.  A plain diagram is a sorted tuple of (start, end)
strands, and a mod-2 sum is the frozenset of its terms.  The reassembly
is all-or-nothing; a partial family raises ClosureError, which never
happens downstream of the algebra operations themselves (a tested
property, and the content of the closure claims for both variants).
``product`` is ``compose`` of two ``sections`` records, the
per-generator half of the route, so a caller that multiplies many pairs
expands each generator once.

The product table works on matched generators instead: a product of two
generators is one generator or zero (Lipshitz-Ozsvath-Thurston,
arXiv:0810.0687, section 3).  Let a end and b start on the idempotent u.
A section of a and a section of b compose exactly when they put every
label of u at the same middle position y: a chord on either side fixes
y, and a label dotted on both sides leaves y free between the two
positions of its pair.  The composite diagram is the same generator for
every such y: a label with a chord on both sides joins them into one
chord, a label with a chord on one side keeps it, and a label dotted on
both sides stays dotted.  Within one diagram all starts are distinct
positions and so are all ends, so for two labels with strands x -> y ->
z and x' -> y' -> z' the signs of (x - x')(y - y') and (y - y')(z - z')
multiply to the sign of (x - x')(z - z'): the pair crosses in the
composite exactly when it crosses in one factor.  Inversions therefore
add, and the section pair survives, exactly when no label pair crosses
in both factors.  That holds for every consistent y or for none, so the
product is the composite or zero.  Two consistent choices of y differ
only at labels t dotted on both sides, and such a t crosses nothing in
both factors: it is a horizontal strand at its middle position y_t in
both, while any other label s runs x_s -> y_s -> z_s with x_s <= y_s <=
z_s, crossing t on the left only if x_s < y_t < y_s and on the right
only if y_s < y_t < z_s.  Every other label pair has the same strands
at every y.  ``AlgebraTable.product_rows`` yields the table row by row.

The "half" variant keeps only generators with no chord crossing the split
between positions 2g and 2g+1; the "full" variant keeps everything.
"""

from __future__ import annotations

import itertools
import os
from operator import lshift
from typing import Iterable, NamedTuple

from .circle import Idempotent, PointedMatchedCircle
from .circle import idempotents as circle_idempotents

VARIANTS = ("full", "half")


class ClosureError(Exception):
    """A section family came back incomplete during reassembly, or a
    product left the generator set."""


class SizeError(Exception):
    """A table whose estimated size exceeds the machine's memory."""


# Peak RSS per composable pair of a run holding the product table (Python
# 3.11): 5.8 bytes at g=3 k=3 full (71 MB, 12,866,332 pairs) and 1.24 at
# g=3 k=4 full (340 MB, 287,492,375).  These fit a reader of ``prod``, not
# ``build``, which writes each row as it is made and peaks at 29 and 70
# MB.  The estimate keeps 12, rounded up from when each product had a
# tuple key, so it errs high by about a factor of two.
BYTES_PER_PAIR = 12


def memory_budget() -> int:
    """Bytes a table may take: the machine's physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class MatchedGenerator(NamedTuple):
    """Chords sorted by start position; dotted pair labels sorted."""

    chords: tuple[tuple[int, int], ...]
    dotted: tuple[int, ...]


Diagram = tuple[tuple[int, int], ...]
"""A plain diagram: strands (start, end), start <= end, sorted by start."""


def source_idempotent(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> Idempotent:
    labels = pmc.labels
    return tuple(sorted(itertools.chain((labels[a - 1] for a, _ in gen.chords), gen.dotted)))


def target_idempotent(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> Idempotent:
    labels = pmc.labels
    return tuple(sorted(itertools.chain((labels[b - 1] for _, b in gen.chords), gen.dotted)))


def idempotent(s: Idempotent) -> MatchedGenerator:
    """The all-dotted generator: the identity endomorphism of object s."""
    return MatchedGenerator(chords=(), dotted=tuple(sorted(s)))


def enumerate_generators(
    pmc: PointedMatchedCircle,
    k: int,
    variant: str = "full",
) -> list[MatchedGenerator]:
    """All k-item generators.

    Enumerates chord subsets with pairwise-distinct start and end labels,
    then fills the remaining slots with dotted labels untouched by any
    chord.  Output is sorted by (source, target, chords, dotted).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if not 0 <= k <= 2 * pmc.g:
        raise ValueError(f"k must lie in 0..{2 * pmc.g}, got {k}")
    labels = pmc.labels
    n = pmc.n_points

    chords = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if variant == "half" and pmc.crosses_split(a, b):
                continue
            chords.append((a, b, labels[a - 1], labels[b - 1]))

    out: list[MatchedGenerator] = []
    chosen: list[tuple[int, int]] = []

    def fill_dotted(src_mask: int, tgt_mask: int) -> None:
        used = src_mask | tgt_mask
        free = [p for p in range(1, 2 * pmc.g + 1) if not (used >> p) & 1]
        need = k - len(chosen)
        chord_part = tuple(chosen)
        for dotted in itertools.combinations(free, need):
            out.append(MatchedGenerator(chords=chord_part, dotted=dotted))

    def walk(start_idx: int, src_mask: int, tgt_mask: int) -> None:
        fill_dotted(src_mask, tgt_mask)
        if len(chosen) == k:
            return
        for idx in range(start_idx, len(chords)):
            a, b, la, lb = chords[idx]
            if (src_mask >> la) & 1 or (tgt_mask >> lb) & 1:
                continue
            chosen.append((a, b))
            walk(idx + 1, src_mask | (1 << la), tgt_mask | (1 << lb))
            chosen.pop()

    walk(0, 0, 0)
    return sorted(out, key=lambda g: (source_idempotent(pmc, g), target_idempotent(pmc, g), g))


def section_expand(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> list[Diagram]:
    """The 2^(#dotted) plain diagrams of a generator.

    Each dotted pair label contributes a horizontal strand at one of its
    two positions; chords are copied verbatim.
    """
    choices = [pmc.positions_of(p) for p in gen.dotted]
    out = []
    for picks in itertools.product(*choices):
        strands = list(gen.chords) + [(pos, pos) for pos in picks]
        strands.sort()
        out.append(tuple(strands))
    return out


def inversions(strands: Diagram) -> int:
    """Number of crossing strand pairs: (a-a')(b-b') < 0."""
    count = 0
    for i in range(len(strands)):
        a1, b1 = strands[i]
        for j in range(i + 1, len(strands)):
            a2, b2 = strands[j]
            if (a1 - a2) * (b1 - b2) < 0:
                count += 1
    return count


def differential_unmatched(strands: Diagram) -> frozenset[Diagram]:
    """Resolve one crossing in every way that drops the count by exactly 1.

    Resolving swaps the two ends; a resolution that removes more than its
    own crossing (some third strand crossed both arms between the swap
    points) is the double-crossing case and is excluded.
    """
    base = inversions(strands)
    terms: set[Diagram] = set()
    for i in range(len(strands)):
        a1, b1 = strands[i]
        for j in range(i + 1, len(strands)):
            a2, b2 = strands[j]
            if (a1 - a2) * (b1 - b2) >= 0:
                continue
            resolved = list(strands)
            resolved[i] = (a1, b2)
            resolved[j] = (a2, b1)
            resolved.sort()
            if inversions(resolved) == base - 1:
                terms ^= {tuple(resolved)}
    return frozenset(terms)


def recognize(pmc: PointedMatchedCircle, total: Iterable[Diagram]) -> frozenset[MatchedGenerator]:
    """Reassemble a sum of plain diagrams into matched generators.

    Horizontal strands name dotted pair labels; a candidate generator is
    accepted only when all of its sections are present.  Anything partial
    raises ClosureError.
    """
    labels = pmc.labels
    groups: dict[MatchedGenerator, set[Diagram]] = {}
    for diagram in total:
        chords = []
        dotted = []
        for a, b in diagram:
            if a == b:
                dotted.append(labels[a - 1])
            else:
                chords.append((a, b))
        dotted.sort()
        for p, q in zip(dotted, dotted[1:]):
            if p == q:
                raise ClosureError(f"diagram {diagram} occupies both positions of pair {p}")
        cand = MatchedGenerator(chords=tuple(sorted(chords)), dotted=tuple(dotted))
        groups.setdefault(cand, set()).add(diagram)
    for cand, seen in groups.items():
        expected = 1 << len(cand.dotted)
        if len(seen) != expected:
            raise ClosureError(
                f"candidate {cand} has {len(seen)} of {expected} sections present"
            )
    return frozenset(groups)


def differential(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> frozenset[MatchedGenerator]:
    """Sum of single-crossing resolutions, reassembled to generators."""
    acc: set[Diagram] = set()
    for section in section_expand(pmc, gen):
        acc ^= differential_unmatched(section)
    return recognize(pmc, acc)


class Sections(NamedTuple):
    """A generator's idempotents and its sections, for ``compose``.  Each
    section is a tuple (strands sorted by start, sorted end positions,
    start positions, inversion count, map from start to end)."""

    source: Idempotent
    target: Idempotent
    sections: tuple[tuple, ...]


def sections(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> Sections:
    """Everything ``compose`` needs of gen, computed once per generator."""
    out = []
    for strands in section_expand(pmc, gen):
        ends = tuple(sorted(b for _, b in strands))
        starts = tuple(a for a, _ in strands)
        out.append((strands, ends, starts, inversions(strands), dict(strands)))
    return Sections(source_idempotent(pmc, gen), target_idempotent(pmc, gen), tuple(out))


def compose(
    pmc: PointedMatchedCircle, left: Sections, right: Sections
) -> frozenset[MatchedGenerator]:
    """Concatenation product of two generators given by their sections;
    zero when the idempotents do not meet.

    A section pair concatenates when the left's end positions are the
    right's start positions, and its composite survives exactly when
    inversions add, which is the no double-crossing condition.  The
    surviving composites are reassembled by ``recognize``.
    """
    if left.target != right.source:
        return frozenset()
    acc: set[Diagram] = set()
    for strands1, ends, _, inv1, _ in left.sections:
        for _, _, starts, inv2, follow in right.sections:
            if ends != starts:
                continue
            composite = sorted((a, follow[b]) for a, b in strands1)
            if inversions(composite) == inv1 + inv2:
                acc ^= {tuple(composite)}
    return recognize(pmc, acc) if acc else frozenset()


def product(
    pmc: PointedMatchedCircle, g1: MatchedGenerator, g2: MatchedGenerator
) -> frozenset[MatchedGenerator]:
    """Concatenation product; zero when the idempotents do not meet."""
    return compose(pmc, sections(pmc, g1), sections(pmc, g2))


# ---------------------------------------------------------------------------
# Indexed tables.


def _generator_code(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> int:
    """Bit (a - 1) * n + b - 1 for each chord (a, b) and bit n * n + p - 1
    for each dotted label p, where n = 4g."""
    n = pmc.n_points
    code = 0
    for a, b in gen.chords:
        code |= 1 << ((a - 1) * n + b - 1)
    for p in gen.dotted:
        code |= 1 << (n * n + p - 1)
    return code


def _packed_crossings(pmc: PointedMatchedCircle, u: Idempotent, middle, outer) -> int:
    """Crossing masks of one factor's sections over the middle idempotent u.

    The strand of label u[t] runs between its middle position y[t] (where
    it meets the other factor) and its outer position outer[t].  A chord
    fixes middle[t]; a dotted label has middle[t] = outer[t] = 0 and is a
    horizontal strand at either position of its pair.  Middle choices y
    are numbered as in itertools.product over the pair positions: digit t
    of choice number c, most significant first, is the index of y[t] in
    its pair.  Only the consistent choices are enumerated: a chord fixes
    its label's digit, and only dotted labels branch, so the AND of two
    factors' masks sets bits only at choices that both allow.  Choice c
    owns the C(k, 2) bits from c * C(k, 2), one per label pair t1 < t2,
    set when the two strands cross.
    """
    k = len(u)
    width = k * (k - 1) // 2
    options = [
        ((pmc.positions_of(p).index(m), m),) if m else tuple(enumerate(pmc.positions_of(p)))
        for p, m in zip(u, middle)
    ]
    packed = 0
    for picks in itertools.product(*options):
        c = 0
        for digit, _ in picks:
            c = 2 * c + digit
        ys = [y for _, y in picks]
        ends = [o or y for o, y in zip(outer, ys)]
        bit = c * width
        for t1 in range(k):
            for t2 in range(t1 + 1, k):
                if (ends[t1] - ends[t2]) * (ys[t1] - ys[t2]) < 0:
                    packed |= 1 << bit
                bit += 1
    return packed


def _factor(pmc: PointedMatchedCircle, gen: MatchedGenerator, u: Idempotent, left: bool):
    """What the product builder needs of gen as a left factor (u its
    target) or a right factor (u its source).

    Returns (signature, packed, outer): per label of u the chord's middle
    position or 0 when dotted, the packed crossing masks, and per label
    the chord's outer position or 0 when dotted.  Every field is an int
    or a tuple of ints, which the cyclic collector stops tracking at its
    first pass: the builder keeps every right factor's record through a
    whole pass over the table.
    """
    labels = pmc.labels
    on_label = {labels[(b if left else a) - 1]: (a, b) for a, b in gen.chords}
    strands = [on_label.get(p, (0, 0)) for p in u]
    middle = tuple(b if left else a for a, b in strands)
    outer = tuple(a if left else b for a, b in strands)
    return middle, _packed_crossings(pmc, u, middle, outer), outer


class AlgebraTable:
    """The whole algebra for one (circle, k, variant), densely indexed.

    Generators get stable indices in (source, target, chords, dotted)
    order; the differential is a tuple of sorted index tuples and the
    product a list of rows, one dict per generator: ``prod[i][j] = m``
    for each nonzero product over the composable pairs, of which there
    are ``composable_pairs``: pairs where i ends on the idempotent where
    j starts.  Rows ascend by j, so no reader sorts one.  Keys and values
    are the ``index`` dict's own ints: the table holds no object per
    product.  Tables are immutable once built, but ``build`` makes the
    differential only: ``product_rows()`` yields the rows in index order
    and ``prod`` is made from it on first read, so a caller that uses
    each row as it comes never holds the table.

    Products follow the matched rule of the module docstring: a left
    factor over the middle idempotent u visits only the right factors
    whose chord starts equal its chord ends wherever both have a chord,
    and a pair's product is zero exactly when the AND of the two
    factors' packed crossing masks is nonzero.  The composite is found
    by its integer code (one bit per chord, one per dotted label), made
    from the left factor's code and the right factor's chord ends; one
    that is not a generator of the table raises ClosureError.  The loop
    over a plan makes no tuple per pair: dropped by the thousand, such
    tuples fill the tuple free lists with blocks scattered over partly
    used pools, which raises a build's peak memory.
    """

    def __init__(self, pmc, k, variant, gens, idem_list):
        self.pmc = pmc
        self.k = k
        self.variant = variant
        self.gens: list[MatchedGenerator] = gens
        self.index: dict[MatchedGenerator, int] = {g: i for i, g in enumerate(gens)}
        self.idem_list: list[Idempotent] = idem_list
        self.idem_id: dict[Idempotent, int] = {s: i for i, s in enumerate(idem_list)}
        self.src = [self.idem_id[source_idempotent(pmc, g)] for g in gens]
        self.tgt = [self.idem_id[target_idempotent(pmc, g)] for g in gens]
        self.by_source: list[list[int]] = [[] for _ in idem_list]
        self.by_target: list[list[int]] = [[] for _ in idem_list]
        # Every field holds the index's own int objects, one per generator,
        # so that a table does not keep further copies of each index.
        for i in self.index.values():
            self.by_source[self.src[i]].append(i)
            self.by_target[self.tgt[i]].append(i)
        self.idem_gen: list[int] = [self.index[idempotent(s)] for s in idem_list]
        self.diff: tuple[tuple[int, ...], ...] = ()
        self._prod: list[dict[int, int]] | None = None
        self.composable_pairs = sum(len(t) * len(s) for t, s in zip(self.by_target, self.by_source))

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, pmc, k, variant="full"):
        gens = enumerate_generators(pmc, k, variant)
        table = cls(pmc, k, variant, gens, circle_idempotents(pmc, k))
        table._check_size()
        table._build_differential()
        return table

    @property
    def prod(self) -> list[dict[int, int]]:
        # Not functools.cached_property: its __dict__ write slows all attribute reads.
        if self._prod is None:
            self._prod = list(self.product_rows())
        return self._prod

    def _check_size(self):
        """Refuse, before the product table is allocated, a table whose
        composable pairs would not fit in memory."""
        pairs = self.composable_pairs
        need, budget = pairs * BYTES_PER_PAIR, memory_budget()
        if need > budget:
            raise SizeError(
                f"g={self.pmc.g} k={self.k} {self.variant}: {len(self.gens):,} generators"
                f" and {pairs:,} composable pairs need about {need / 2**30:.1f} GiB,"
                f" over the {budget / 2**30:.1f} GiB of physical memory"
            )

    def _build_differential(self):
        self.diff = tuple(
            tuple(sorted(self.index[t] for t in differential(self.pmc, gen)))
            for gen in self.gens
        )

    def product_rows(self):
        """Yield prod[i], the product row of left factor i, in index order.
        Each plan (the right groups a left factor meets) is made once."""
        pmc, gens, n = self.pmc, self.gens, self.pmc.n_points
        codes = [_generator_code(pmc, g) for g in gens]
        # Products hold the index's ints too (see __init__).
        lookup = dict(zip(codes, self.index.values())).get
        # A right factor keeps its index, masks and tails: z - 1 on each
        # label with a chord (s, z), else 0.  Its chord starts key its group.
        rights: list[dict[tuple[int, ...], list]] = [{} for _ in self.idem_list]
        for j in self.index.values():
            starts, packed, outer = _factor(pmc, gens[j], self.idem_list[self.src[j]], left=False)
            tails = tuple(z - 1 if z else 0 for z in outer)
            rights[self.src[j]].setdefault(starts, []).append((j, packed, tails))
        plans: dict[tuple[int, tuple[int, ...]], list] = {}
        for i in self.index.values():
            u = self.idem_list[self.tgt[i]]
            ends, m1, outer = _factor(pmc, gens[i], u, left=True)
            plan = plans.get((self.tgt[i], ends))
            if plan is None:
                # Right groups whose chord starts meet the left's chord ends
                # label by label; a dotted label on either side meets anything.
                group = rights[self.tgt[i]]
                choices = [(0, y) if y else (0, *pmc.positions_of(p)) for y, p in zip(ends, u)]
                plan = plans[self.tgt[i], ends] = [
                    (starts, group[starts])
                    for starts in itertools.product(*choices)
                    if starts in group
                ]
            # The composite keeps the left's term, its chord or dotted bit,
            # on each label where the right is dotted.  Where the right has a
            # chord (s, z), it has the chord (x, z), x the left's chord start
            # or s where the left is dotted: the head 1 << (x - 1) * n shifted
            # by the right's tail.  Heads are 0 where the right is dotted.
            terms = [
                1 << ((x - 1) * n + y - 1) if y else 1 << (n * n + p - 1)
                for x, y, p in zip(outer, ends, u)
            ]
            row = {}
            for starts, rgroup in plan:
                base = codes[i] - sum(term for term, s in zip(terms, starts) if s)
                heads = [1 << ((x or s) - 1) * n if s else 0 for x, s in zip(outer, starts)]
                for j, m2, tails in rgroup:
                    if m1 & m2:
                        continue
                    m = lookup(base + sum(map(lshift, heads, tails)))
                    if m is None:
                        raise ClosureError(f"{gens[i]} * {gens[j]} is not in the table")
                    row[j] = m
            # Plan order is not j order; sorting the int keys makes no tuple.
            yield {j: row[j] for j in sorted(row)}

    # -- lookups -----------------------------------------------------------

    def hom_indices(self, s: Idempotent, t: Idempotent) -> list[int]:
        sid, tid = self.idem_id[tuple(sorted(s))], self.idem_id[tuple(sorted(t))]
        return [i for i in self.by_source[sid] if self.tgt[i] == tid]

    def as_csr(self):
        """The row and column views of the product, (rows, cols): rows is
        ``prod`` itself, and cols[j] lists, in index order, every i with
        prod[i][j] set.  The column view is built afresh on each call,
        with no cache, so it always matches ``prod``.  (The name is older
        than the views; perfbench/traced.py looks it up.)
        """
        cols: list[list[int]] = [[] for _ in self.prod]
        for i, row in enumerate(self.prod):
            for j in row:
                cols[j].append(i)
        return self.prod, cols
