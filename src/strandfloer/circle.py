"""Pointed matched circles and the surfaces they bound.

A pointed matched circle is 4g marked points on an oriented circle, matched
in pairs, with a basepoint in one of the complementary arcs.  Attaching a
band to a disc along each matched pair produces a surface; the matching is
admissible when that surface has genus g and a single boundary circle.

Positions are numbered 1..4g anticlockwise starting after the basepoint.
Pairs carry labels 1..2g, assigned by increasing lower position, so the
standard matching pairs position i with i + 2g under label i.  Which
position carries which label is decided here, once per circle: the
algebra and the grid both read ``labels`` and ``positions_of``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

Idempotent = tuple[int, ...]


@dataclass(frozen=True)
class PointedMatchedCircle:
    """A matched circle: genus and pair list.

    ``pairs`` holds 2g position pairs (lo, hi), sorted by lo; the pair at
    index p-1 carries label p.  ``labels[pos-1]`` is the label of each
    position, computed once from the pairs.
    """

    g: int
    pairs: tuple[tuple[int, int], ...]
    labels: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError("genus must be at least 1")
        n = 4 * self.g
        seen = sorted(p for pair in self.pairs for p in pair)
        if len(self.pairs) != 2 * self.g or seen != list(range(1, n + 1)):
            raise ValueError("matching must cover positions 1..4g in 2g disjoint pairs")
        for lo, hi in self.pairs:
            if not lo < hi:
                raise ValueError("each pair must be stored as (lo, hi)")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("pairs must be sorted by lower position")
        label = {p: i for i, pair in enumerate(self.pairs, 1) for p in pair}
        object.__setattr__(self, "labels", tuple(label[p] for p in range(1, n + 1)))

    @property
    def n_points(self) -> int:
        return 4 * self.g

    def label_of(self, position: int) -> int:
        """Label (1..2g) of the pair containing ``position``."""
        if not 1 <= position <= self.n_points:
            raise ValueError(f"position {position} out of range 1..{self.n_points}")
        return self.labels[position - 1]

    def positions_of(self, label: int) -> tuple[int, int]:
        """The two positions carrying ``label``."""
        if not 1 <= label <= 2 * self.g:
            raise ValueError(f"label {label} out of range 1..{2 * self.g}")
        return self.pairs[label - 1]

    def crosses_split(self, start: int, end: int) -> bool:
        """Whether a strand from ``start`` to ``end`` crosses the split arc.

        The split sits between positions 2g and 2g+1, whatever the
        matching.  Such strands are excluded from the half algebra.
        """
        lo, hi = min(start, end), max(start, end)
        return lo <= 2 * self.g < hi


@dataclass(frozen=True)
class SurfaceInvariants:
    """Topology of the disc-plus-bands surface built from a matching."""

    boundary_components: int
    euler_characteristic: int
    genus: int
    valid: bool


def standard_matching(g: int) -> PointedMatchedCircle:
    """The antipodal matching: position i paired with i + 2g, label i."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    pairs = tuple((i, i + 2 * g) for i in range(1, 2 * g + 1))
    return PointedMatchedCircle(g=g, pairs=pairs)


def matching_from_pairs(g: int, raw_pairs) -> PointedMatchedCircle:
    """Build a circle from an arbitrary pair list, normalising order."""
    pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in raw_pairs))
    return PointedMatchedCircle(g=g, pairs=pairs)


def validate_surface(pmc: PointedMatchedCircle) -> SurfaceInvariants:
    """Boundary-walk the ribbon surface (one disc, one band per pair).

    The disc contributes Euler characteristic 1 and each of the 2g bands
    subtracts one, so chi = 1 - 2g for every matching; only the number of
    boundary circles depends on the pairing.  Walking the boundary: the arc
    after position i leads into position i+1, and entering a band at one
    end exits past its partner.  Cycles of that successor map are the
    boundary components.
    """
    n = pmc.n_points
    partner = {}
    for lo, hi in pmc.pairs:
        partner[lo] = hi
        partner[hi] = lo

    # State "p" means: about to enter the band at position p.  From there
    # the walk crosses the band, emerges at partner(p), and follows the
    # disc-boundary arc to the next attachment point.
    def successor(p: int) -> int:
        q = partner[p]
        return q % n + 1

    unvisited = set(range(1, n + 1))
    components = 0
    while unvisited:
        components += 1
        p = next(iter(unvisited))
        while p in unvisited:
            unvisited.remove(p)
            p = successor(p)

    chi = 1 - 2 * pmc.g
    genus = (2 - components - chi) // 2
    return SurfaceInvariants(
        boundary_components=components,
        euler_characteristic=chi,
        genus=genus,
        valid=(components == 1 and genus == pmc.g),
    )


def idempotents(pmc: PointedMatchedCircle, k: int) -> list[Idempotent]:
    """All k-subsets of pair labels, lexicographically sorted."""
    if not 0 <= k <= 2 * pmc.g:
        raise ValueError(f"k must lie in 0..{2 * pmc.g}, got {k}")
    return [tuple(c) for c in itertools.combinations(range(1, 2 * pmc.g + 1), k)]


def thimble_index_sets(g: int, k: int) -> list[Idempotent]:
    """Index sets of the k-fold thimble generators: k-subsets of 1..2g+1.

    The plane curve presenting the once-bounded genus-g surface has 2g+1
    critical values, one thimble each; products of k distinct thimbles are
    indexed by these subsets.
    """
    n = 2 * g + 1
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]
