"""Strands algebras of a pointed matched circle.

A generator is a k-element upward strand picture drawn on the circle
positions: chords (a, b) moving from position a up to position b, plus
dotted pair labels occupying both positions of a matched pair.  Source and
target idempotents are the k-subsets of pair labels read off the chord
endpoints and the dotted items; all source labels are distinct and all
target labels are distinct.

A dotted pair is not a single strand: it stands for the sum of the two
horizontal strands at its positions.  Every algebra operation therefore
expands a generator into its 2^(#dotted) sections (plain diagrams), acts
on those by crossing resolution or concatenation under the double-crossing
rule, and reassembles complete section families back into generators.  The
reassembly is all-or-nothing; a partial family raises ClosureError, which
never happens downstream of the algebra operations themselves (a tested
property, and the content of the closure claims for both variants).

The "half" variant keeps only generators with no chord crossing the split
between positions 2g and 2g+1; the "full" variant keeps everything.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple

from .circle import Idempotent, PointedMatchedCircle
from .circle import idempotents as circle_idempotents

VARIANTS = ("full", "half")


class ClosureError(Exception):
    """A section family came back incomplete during reassembly."""


class MatchedGenerator(NamedTuple):
    """Chords sorted by start position; dotted pair labels sorted."""

    chords: tuple[tuple[int, int], ...]
    dotted: tuple[int, ...]


class UnmatchedDiagram(NamedTuple):
    """A plain diagram: strands (start, end), start <= end, sorted by start."""

    strands: tuple[tuple[int, int], ...]


class GF2Sum:
    """A formal mod-2 sum of basis objects (the support set).

    Adding is symmetric difference.  Iteration is sorted, so equal sums
    serialize identically.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        self.terms = frozenset(terms)

    @classmethod
    def zero(cls) -> "GF2Sum":
        return cls()

    @classmethod
    def of(cls, *terms) -> "GF2Sum":
        return cls(terms)

    def __add__(self, other: "GF2Sum") -> "GF2Sum":
        return GF2Sum(self.terms ^ other.terms)

    __xor__ = __add__

    def __iter__(self):
        return iter(sorted(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2Sum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"GF2Sum({sorted(self.terms)!r})"


@lru_cache(maxsize=None)
def _label_array(pmc: PointedMatchedCircle) -> tuple[int, ...]:
    """labels[pos-1] for every position, cached per circle."""
    labels = [0] * pmc.n_points
    for idx, (lo, hi) in enumerate(pmc.pairs):
        labels[lo - 1] = idx + 1
        labels[hi - 1] = idx + 1
    return tuple(labels)


def _label(pmc: PointedMatchedCircle, position: int) -> int:
    return _label_array(pmc)[position - 1]


def source_idempotent(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> Idempotent:
    labels = _label_array(pmc)
    return tuple(sorted(itertools.chain((labels[a - 1] for a, _ in gen.chords), gen.dotted)))


def target_idempotent(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> Idempotent:
    labels = _label_array(pmc)
    return tuple(sorted(itertools.chain((labels[b - 1] for _, b in gen.chords), gen.dotted)))


def is_half(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> bool:
    """No chord crossing the split between positions 2g and 2g+1."""
    return not any(pmc.crosses_split(a, b) for a, b in gen.chords)


def check_generator(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> None:
    """Raise ValueError unless gen is a well-formed generator for pmc."""
    labels = _label_array(pmc)
    n = pmc.n_points
    src = list(gen.dotted)
    tgt = list(gen.dotted)
    for a, b in gen.chords:
        if not 1 <= a < b <= n:
            raise ValueError(f"chord {(a, b)} out of range")
        src.append(labels[a - 1])
        tgt.append(labels[b - 1])
    for p in gen.dotted:
        if not 1 <= p <= 2 * pmc.g:
            raise ValueError(f"dotted label {p} out of range")
    if len(set(src)) != len(src):
        raise ValueError("source labels repeat")
    if len(set(tgt)) != len(tgt):
        raise ValueError("target labels repeat")
    if tuple(sorted(gen.chords)) != gen.chords or tuple(sorted(gen.dotted)) != gen.dotted:
        raise ValueError("generator not canonically sorted")


def idempotent(s: Idempotent) -> MatchedGenerator:
    """The all-dotted generator: the identity endomorphism of object s."""
    return MatchedGenerator(chords=(), dotted=tuple(sorted(s)))


def enumerate_generators(
    pmc: PointedMatchedCircle,
    k: int,
    variant: str = "full",
    source: Idempotent | None = None,
    target: Idempotent | None = None,
) -> list[MatchedGenerator]:
    """All k-item generators, optionally restricted to hom(source, target).

    Enumerates chord subsets with pairwise-distinct start and end labels,
    then fills the remaining slots with dotted labels untouched by any
    chord.  Output is sorted by (source, target, chords, dotted).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if not 0 <= k <= 2 * pmc.g:
        raise ValueError(f"k must lie in 0..{2 * pmc.g}, got {k}")
    if source is not None and len(set(source)) != k:
        raise ValueError("source must be a k-subset of pair labels")
    if target is not None and len(set(target)) != k:
        raise ValueError("target must be a k-subset of pair labels")
    labels = _label_array(pmc)
    n = pmc.n_points
    src_filter = frozenset(source) if source is not None else None
    tgt_filter = frozenset(target) if target is not None else None

    chords = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if variant == "half" and pmc.crosses_split(a, b):
                continue
            la, lb = labels[a - 1], labels[b - 1]
            if src_filter is not None and la not in src_filter:
                continue
            if tgt_filter is not None and lb not in tgt_filter:
                continue
            chords.append((a, b, la, lb))

    out: list[MatchedGenerator] = []
    chosen: list[tuple[int, int]] = []

    def fill_dotted(src_mask: int, tgt_mask: int) -> None:
        used = src_mask | tgt_mask
        free = [
            p
            for p in range(1, 2 * pmc.g + 1)
            if not (used >> p) & 1
            and (src_filter is None or p in src_filter)
            and (tgt_filter is None or p in tgt_filter)
        ]
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
    keyed = [
        (source_idempotent(pmc, g), target_idempotent(pmc, g), g.chords, g.dotted, g) for g in out
    ]
    keyed.sort()
    return [entry[4] for entry in keyed]


def section_expand(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> list[UnmatchedDiagram]:
    """The 2^(#dotted) plain diagrams of a generator.

    Each dotted pair label contributes a horizontal strand at one of its
    two positions; chords are copied verbatim.
    """
    choices = [pmc.positions_of(p) for p in gen.dotted]
    out = []
    for picks in itertools.product(*choices):
        strands = list(gen.chords) + [(pos, pos) for pos in picks]
        strands.sort()
        out.append(UnmatchedDiagram(tuple(strands)))
    return out


def inversions(d: UnmatchedDiagram) -> int:
    """Number of crossing strand pairs: (a-a')(b-b') < 0."""
    return _inversions(d.strands)


def _inversions(strands) -> int:
    count = 0
    for i in range(len(strands)):
        a1, b1 = strands[i]
        for j in range(i + 1, len(strands)):
            a2, b2 = strands[j]
            if (a1 - a2) * (b1 - b2) < 0:
                count += 1
    return count


def differential_unmatched(d: UnmatchedDiagram) -> GF2Sum:
    """Resolve one crossing in every way that drops the count by exactly 1.

    Resolving swaps the two ends; a resolution that removes more than its
    own crossing (some third strand crossed both arms between the swap
    points) is the double-crossing case and is excluded.
    """
    strands = d.strands
    base = _inversions(strands)
    terms = set()
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
            if _inversions(resolved) == base - 1:
                terms.symmetric_difference_update((UnmatchedDiagram(tuple(resolved)),))
    return GF2Sum(terms)


def product_unmatched(d1: UnmatchedDiagram, d2: UnmatchedDiagram) -> GF2Sum:
    """Concatenate when end positions match start positions; zero or one term.

    The composite survives exactly when inversions add, which is the no
    double-crossing condition.
    """
    ends = tuple(sorted(b for _, b in d1.strands))
    starts = tuple(a for a, _ in d2.strands)
    if ends != starts:
        return GF2Sum.zero()
    follow = dict(d2.strands)
    composite = tuple((a, follow[b]) for a, b in d1.strands)
    if _inversions(composite) != _inversions(d1.strands) + _inversions(d2.strands):
        return GF2Sum.zero()
    comp = sorted(composite)
    return GF2Sum.of(UnmatchedDiagram(tuple(comp)))


def recognize(pmc: PointedMatchedCircle, total: GF2Sum | Iterable[UnmatchedDiagram]) -> GF2Sum:
    """Reassemble a sum of plain diagrams into matched generators.

    Horizontal strands name dotted pair labels; a candidate generator is
    accepted only when all of its sections are present.  Anything partial
    raises ClosureError.
    """
    groups: dict[MatchedGenerator, set[UnmatchedDiagram]] = {}
    for diagram in total:
        chords = []
        dotted = []
        for a, b in diagram.strands:
            if a == b:
                dotted.append(_label(pmc, a))
            else:
                chords.append((a, b))
        dotted.sort()
        for p, q in zip(dotted, dotted[1:]):
            if p == q:
                raise ClosureError(f"diagram {diagram} occupies both positions of pair {p}")
        cand = MatchedGenerator(chords=tuple(sorted(chords)), dotted=tuple(dotted))
        groups.setdefault(cand, set()).add(diagram)
    terms = []
    for cand, seen in groups.items():
        expected = 1 << len(cand.dotted)
        if len(seen) == expected:
            terms.append(cand)
        else:
            raise ClosureError(
                f"candidate {cand} has {len(seen)} of {expected} sections present"
            )
    return GF2Sum(terms)


def differential(pmc: PointedMatchedCircle, gen: MatchedGenerator) -> GF2Sum:
    """Sum of single-crossing resolutions, reassembled to generators."""
    acc: set[UnmatchedDiagram] = set()
    for section in section_expand(pmc, gen):
        acc ^= differential_unmatched(section).terms
    return recognize(pmc, acc)


def product(pmc: PointedMatchedCircle, g1: MatchedGenerator, g2: MatchedGenerator) -> GF2Sum:
    """Concatenation product; zero when the idempotents do not meet."""
    if target_idempotent(pmc, g1) != source_idempotent(pmc, g2):
        return GF2Sum.zero()
    acc: set[UnmatchedDiagram] = set()
    for s1 in section_expand(pmc, g1):
        for s2 in section_expand(pmc, g2):
            acc ^= product_unmatched(s1, s2).terms
    return recognize(pmc, acc)


# ---------------------------------------------------------------------------
# Indexed tables.


def _section_left(pmc, gen):
    """Per section: (strands, inversions, sorted end positions)."""
    out = []
    for s in section_expand(pmc, gen):
        out.append((s.strands, _inversions(s.strands), tuple(sorted(b for _, b in s.strands))))
    return out


def _section_right(pmc, gen):
    """Per start tuple: list of (start->end map, inversions)."""
    grouped: dict[tuple[int, ...], list[tuple[dict, int]]] = {}
    for s in section_expand(pmc, gen):
        starts = tuple(a for a, _ in s.strands)
        grouped.setdefault(starts, []).append((dict(s.strands), _inversions(s.strands)))
    return grouped


class AlgebraTable:
    """The whole algebra for one (circle, k, variant), densely indexed.

    Generators get stable indices in (source, target, chords, dotted)
    order; the differential is a tuple of sorted index tuples and the
    product a dict of nonzero (i, j) -> index entries over composable
    pairs.  Tables are immutable once built.
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
        for i, g in enumerate(gens):
            self.by_source[self.src[i]].append(i)
            self.by_target[self.tgt[i]].append(i)
        self.idem_gen: list[int] = [self.index[idempotent(s)] for s in idem_list]
        self.diff: tuple[tuple[int, ...], ...] = ()
        self.prod: dict[tuple[int, int], int] = {}
        self._csr_cache = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, pmc, k, variant="full"):
        gens = enumerate_generators(pmc, k, variant)
        table = cls(pmc, k, variant, gens, circle_idempotents(pmc, k))
        table._build_differential()
        table._build_products()
        return table

    def _build_differential(self):
        self.diff = tuple(
            tuple(sorted(self.index[t] for t in differential(self.pmc, gen)))
            for gen in self.gens
        )

    def _build_products(self):
        pmc = self.pmc
        left_data = [_section_left(pmc, g) for g in self.gens]
        right_data = [_section_right(pmc, g) for g in self.gens]
        prod: dict[tuple[int, int], int] = {}
        for u in range(len(self.idem_list)):
            for i in self.by_target[u]:
                for j in self.by_source[u]:
                    acc: set[UnmatchedDiagram] = set()
                    for strands1, inv1, ends1 in left_data[i]:
                        for follow, inv2 in right_data[j].get(ends1, ()):
                            comp = tuple((a, follow[b]) for a, b in strands1)
                            if _inversions(comp) == inv1 + inv2:
                                d = UnmatchedDiagram(tuple(sorted(comp)))
                                if d in acc:
                                    acc.remove(d)
                                else:
                                    acc.add(d)
                    if not acc:
                        continue
                    terms = list(recognize(pmc, acc))
                    if len(terms) > 1:
                        raise AssertionError("product support exceeded one generator")
                    if terms:
                        prod[(i, j)] = self.index[terms[0]]
        self.prod = prod

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gens)

    def hom_dim(self, s: Idempotent, t: Idempotent) -> int:
        sid, tid = self.idem_id[tuple(s)], self.idem_id[tuple(t)]
        return sum(1 for i in self.by_source[sid] if self.tgt[i] == tid)

    def hom_indices(self, s: Idempotent, t: Idempotent) -> list[int]:
        sid, tid = self.idem_id[tuple(s)], self.idem_id[tuple(t)]
        return [i for i in self.by_source[sid] if self.tgt[i] == tid]

    def dims_table(self) -> dict[tuple[Idempotent, Idempotent], int]:
        dims: dict[tuple[Idempotent, Idempotent], int] = {}
        for i in range(len(self.gens)):
            key = (self.idem_list[self.src[i]], self.idem_list[self.tgt[i]])
            dims[key] = dims.get(key, 0) + 1
        return dims

    def multiply(self, i: int, j: int) -> int | None:
        """Index of gens[i]*gens[j], None when the product is zero."""
        return self.prod.get((i, j))

    def as_csr(self):
        """Arrays for the kernel layer: (tgt, off, items, keys, vals, n)."""
        if self._csr_cache is None:
            import numpy as np

            n = len(self.gens)
            tgt = np.asarray(self.tgt, dtype=np.int64)
            counts = [len(lst) for lst in self.by_source]
            off = np.zeros(len(counts) + 1, dtype=np.int64)
            off[1:] = np.cumsum(counts)
            items = np.asarray(
                [i for lst in self.by_source for i in lst], dtype=np.int64
            )
            keyed = sorted((i * n + j, m) for (i, j), m in self.prod.items())
            keys = np.asarray([kv[0] for kv in keyed], dtype=np.int64)
            vals = np.asarray([kv[1] for kv in keyed], dtype=np.int64)
            self._csr_cache = (tgt, off, items, keys, vals, n)
        return self._csr_cache
