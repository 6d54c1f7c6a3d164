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

The table finds a composite by its integer code: bit(a, b) for each
chord (a, b) and dot(p) for each dotted label p (``_generator_code``).
Every item of a ends on a label of u and every item of b starts on one,
so code(a) + code(b) - dot(u), dot(u) the sum of dot(p) over the labels
p of u, is the composite's code but at the labels where a has a chord
(x, y) and b a chord (y, z).  There it holds bit(x, y) + bit(y, z) -
dot(label(y)) in place of bit(x, z), and adding the join term
join[x, y][z] = bit(x, z) - bit(x, y) - bit(y, z) + dot(label(y)) mends
it.  With join[x, y][0] = 0 for a right factor dotted there, the sum of
the join terms runs over a's chords alone.

The "half" variant keeps only generators with no chord crossing the split
between positions 2g and 2g+1; the "full" variant keeps everything.
"""

from __future__ import annotations

import itertools
import os
from operator import add, not_
from typing import Iterable, NamedTuple

from .circle import Idempotent, PointedMatchedCircle
from .circle import idempotents as circle_idempotents

VARIANTS = ("full", "half")


class ClosureError(Exception):
    """A section family came back incomplete during reassembly, or a
    product left the generator set."""


class SizeError(Exception):
    """A table whose estimated size exceeds the machine's memory."""


# Peak RSS per composable pair of a run that builds the table and reads
# ``prod`` (Python 3.11): 4.7 bytes at g=3 k=3 full (57.6 MB, 12,866,332
# pairs) and 1.15 at g=3 k=4 full (316.4 MB, 287,492,375).  These fit a
# reader of ``prod``, not ``build``, which writes each row as it is made
# and peaks at 26.6 and 69.8 MB.  The estimate keeps 12, rounded up from
# when each product had a tuple key, so it errs high by more than a
# factor of two.
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
    width = len(u) * (len(u) - 1) // 2
    # Per label its options (digit, middle position, outer position).
    options = []
    for p, m, o in zip(u, middle, outer):
        lo, hi = pmc.pairs[p - 1]
        options.append(((int(m == hi), m, o),) if m else ((0, lo, lo), (1, hi, hi)))
    packed = 0
    for picks in itertools.product(*options):
        c = 0
        for digit, _, _ in picks:
            c = 2 * c + digit
        bit = 1 << c * width
        for (_, y1, o1), (_, y2, o2) in itertools.combinations(picks, 2):
            if (o1 - o2) * (y1 - y2) < 0:
                packed |= bit
            bit <<= 1
    return packed


def _factor(pmc: PointedMatchedCircle, gen: MatchedGenerator, u: Idempotent, left: bool):
    """What the product builder needs of gen as a left factor (u its
    target) or a right factor (u its source).

    Returns (signature, packed, outer): per label of u the chord's middle
    position or 0 when dotted, the packed crossing masks, and per label
    the chord's outer position or 0 when dotted.  Every field is an int
    or a tuple of ints, which the cyclic collector stops tracking at its
    first pass: the builder keeps the signatures as the keys of its
    groups and plans through the whole build.
    """
    labels = pmc.labels
    middle = [0] * len(u)
    outer = [0] * len(u)
    for a, b in gen.chords:
        m, o = (b, a) if left else (a, b)
        t = u.index(labels[m - 1])
        middle[t], outer[t] = m, o
    middle, outer = tuple(middle), tuple(outer)
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
    by its code, the sum of the factors' codes, -dot(u) and a join term
    per chord of the left factor (module docstring); one that is not a
    generator of the table raises ClosureError.  The right factors are
    held as columns over j: the masks m2[j] and, per label position t,
    tail[t][j], the end z of j's chord on that label or 0.  A plan, kept
    per (target, chord ends), lists in ascending order the j that such a
    left factor meets, so a row is a chain of iterators over its plan,
    run in C: the AND keeps the pairs whose masks do not meet, and only
    those have their codes summed and looked up.  The chain makes no
    tuple per pair: dropped by the thousand, such tuples fill the tuple
    free lists with blocks scattered over partly used pools, which
    raises a build's peak memory.
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
        """Yield prod[i], the product row of left factor i, in index order,
        each ascending by j as its plan is.  Each plan and each join
        column joins[x, y] is made once."""
        pmc, gens, n = self.pmc, self.gens, self.pmc.n_points
        codes = [_generator_code(pmc, g) for g in gens]
        # Products hold the index's ints too (see __init__).
        lookup = dict(zip(codes, self.index.values())).get
        # The right factors as columns over j: the packed masks m2[j] and,
        # per label position t of the source, tail[t][j] = z where the
        # right has a chord (s, z) on that label, else 0.  The chord starts
        # key each factor's group.
        m2 = [0] * len(gens)
        tail = [[0] * len(gens) for _ in range(self.k)]
        rights: list[dict[tuple[int, ...], list[int]]] = [{} for _ in self.idem_list]
        for j in self.index.values():
            starts, m2[j], outer = _factor(pmc, gens[j], self.idem_list[self.src[j]], left=False)
            for column, z in zip(tail, outer):
                column[j] = z
            rights[self.src[j]].setdefault(starts, []).append(j)

        def bit(a, b):
            return 1 << (a - 1) * n + b - 1

        def dot(p):
            return 1 << n * n + p - 1

        # dot(u) of each idempotent u, and the join terms of the module
        # docstring, joins[x, y][z] for each left chord (x, y).
        dots = [sum(map(dot, u)) for u in self.idem_list]
        joins: dict[tuple[int, int], list[int]] = {}
        plans: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for i in self.index.values():
            u = self.idem_list[self.tgt[i]]
            ends, m1, outer = _factor(pmc, gens[i], u, left=True)
            plan = plans.get((self.tgt[i], ends))
            if plan is None:
                # Right groups whose chord starts meet the left's chord ends
                # label by label; a dotted label on either side meets anything.
                group = rights[self.tgt[i]]
                choices = [(0, y) if y else (0, *pmc.positions_of(p)) for y, p in zip(ends, u)]
                plan = plans[self.tgt[i], ends] = sorted(
                    itertools.chain.from_iterable(
                        group[starts] for starts in itertools.product(*choices) if starts in group
                    )
                )
            # The pairs whose masks share no crossing, and their composites:
            # code(a.b) = code(a) - dot(u) + code(b) + a join term per chord of a.
            kept = map(not_, map(m1.__and__, map(m2.__getitem__, plan)))
            js = list(itertools.compress(plan, kept))
            found = map(codes.__getitem__, js)
            for x, y, column in zip(outer, ends, tail):
                if y:
                    join = joins.get((x, y))
                    if join is None:
                        join = joins[x, y] = [0] * (y + 1) + [
                            bit(x, z) - bit(x, y) - bit(y, z) + dot(pmc.labels[y - 1])
                            for z in range(y + 1, n + 1)
                        ]
                    found = map(add, found, map(join.__getitem__, map(column.__getitem__, js)))
            row = dict(zip(js, map(lookup, map((codes[i] - dots[self.tgt[i]]).__add__, found))))
            # Free this row's list of j before the next row makes its own:
            # two of them alive at once leave holes between the kept rows,
            # which raises the peak of a run that holds the table.
            del js, found
            if None in row.values():
                j = next(j for j, m in row.items() if m is None)
                raise ClosureError(f"{gens[i]} * {gens[j]} is not in the table")
            yield row

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
