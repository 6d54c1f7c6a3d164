"""The grid-diagram side: staircase intersection points, empty rectangles
and triangle counts.

Everything here is phrased in the cut-open coordinates of the curve
diagrams: a point (a, b) pairs column position a with row position b,
1 <= a <= b <= 4g.  The matched circle says which label each position
carries: the diagonal points (lo, lo) and (hi, hi) of a matched pair are
avatars of the same branch point, stored canonically at lo.  Half mode
removes the cells with a <= 2g < b, cutting the staircase into the two
sheets V (positions <= 2g) and V' (the rest); wrapped mode keeps the whole
upper triangle.  Every admissible matching has a grid model.

The module never consults the strands algebra: differentials count empty
rectangles, products count triangle tuples filtered by pairwise overlap.
The dictionary maps (to_algebra / from_algebra) are the bridge the
verification suites drive in both directions.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .circle import PointedMatchedCircle, idempotents
from .strands import MatchedGenerator

MODES = ("wrapped", "half")


class GridSpec(NamedTuple):
    pmc: PointedMatchedCircle
    mode: str

    @property
    def g(self) -> int:
        return self.pmc.g

    @property
    def n(self) -> int:
        return self.pmc.n_points

    def label(self, position: int) -> int:
        """Pair label of a position under the circle's matching."""
        return self.pmc.labels[position - 1]

    def allowed(self, a: int, b: int) -> bool:
        if not 1 <= a <= b <= self.n:
            return False
        if self.mode == "half" and a <= 2 * self.g < b:
            return False
        return True


def make_spec(pmc: PointedMatchedCircle, mode: str) -> GridSpec:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    return GridSpec(pmc, mode)


GridPoint = tuple[int, int]
FloerGenerator = tuple[GridPoint, ...]


class Rectangle(NamedTuple):
    """Corner columns/rows: incoming (c1,r2),(c2,r1), outgoing (c1,r1),(c2,r2)."""

    c1: int
    c2: int
    r1: int
    r2: int


class Triangle(NamedTuple):
    """c <= m <= r; flex marks a branch-point triangle free to sit at
    either avatar (then flex is the pair label and c = m = r its lower
    position)."""

    c: int
    m: int
    r: int
    flex: int = 0

    def sheet(self, spec: GridSpec) -> str | None:
        """"V", "Vp" or None (flexible / crossing the split in wrapped mode)."""
        if self.flex:
            return None
        if self.r <= 2 * spec.g:
            return "V"
        if self.c > 2 * spec.g:
            return "Vp"
        return None


def avatars(spec: GridSpec, point: GridPoint) -> tuple[GridPoint, ...]:
    a, b = point
    if a == b:
        lo, hi = spec.pmc.positions_of(spec.label(a))
        return ((lo, lo), (hi, hi))
    return (point,)


def canonical_point(spec: GridSpec, a: int, b: int) -> GridPoint:
    if a == b:
        lo, _ = spec.pmc.positions_of(spec.label(a))
        return (lo, lo)
    return (a, b)


def points_for_labels(spec: GridSpec, i: int, j: int) -> list[GridPoint]:
    """All allowed points with column label i and row label j, canonical."""
    out = set()
    for a in spec.pmc.positions_of(i):
        for b in spec.pmc.positions_of(j):
            if spec.allowed(a, b):
                out.add(canonical_point(spec, a, b))
    return sorted(out)


def source_labels(spec: GridSpec, x: FloerGenerator) -> tuple[int, ...]:
    return tuple(sorted(spec.label(a) for a, _ in x))


def target_labels(spec: GridSpec, x: FloerGenerator) -> tuple[int, ...]:
    return tuple(sorted(spec.label(b) for _, b in x))


def enumerate_floer_generators(spec: GridSpec, s, t) -> list[FloerGenerator]:
    """All k-tuples of allowed points using each label of s (columns) and
    of t (rows) exactly once."""
    s = tuple(sorted(s))
    t = tuple(sorted(t))
    if len(s) != len(t):
        raise ValueError("idempotents must have equal size")
    out: list[FloerGenerator] = []
    for perm in itertools.permutations(t):
        pools = [points_for_labels(spec, i, j) for i, j in zip(s, perm)]
        if any(not pool for pool in pools):
            continue
        for combo in itertools.product(*pools):
            out.append(tuple(sorted(combo)))
    return sorted(set(out))


def all_floer_generators(spec: GridSpec, k: int) -> list[FloerGenerator]:
    """Every generator over every ordered idempotent pair, sorted.  At
    k = 0 that is the empty tuple alone; k > 2g raises from
    ``idempotents``."""
    idems = idempotents(spec.pmc, k)
    out: list[FloerGenerator] = []
    for s in idems:
        for t in idems:
            out.extend(enumerate_floer_generators(spec, s, t))
    return sorted(out)


def to_algebra(spec: GridSpec, x: FloerGenerator) -> MatchedGenerator:
    """Points become chords, branch points become dotted labels."""
    chords = []
    dotted = []
    for a, b in x:
        if not spec.allowed(a, b):
            raise ValueError(f"cell {(a, b)} not allowed in {spec.mode} mode")
        if a == b:
            dotted.append(spec.label(a))
        else:
            chords.append((a, b))
    return MatchedGenerator(chords=tuple(sorted(chords)), dotted=tuple(sorted(dotted)))


def from_algebra(spec: GridSpec, gen: MatchedGenerator) -> FloerGenerator:
    points = [(lo, lo) for lo, _ in map(spec.pmc.positions_of, gen.dotted)]
    for a, b in gen.chords:
        if not spec.allowed(a, b):
            raise ValueError(f"cell {(a, b)} not allowed in {spec.mode} mode")
        points.append((a, b))
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# Differential: empty rectangles.


def empty_rectangles(spec: GridSpec, x: FloerGenerator) -> list[tuple[Rectangle, FloerGenerator]]:
    """Rectangles with both incoming corners in x and empty interior.

    Incoming corners are (c1, r2) and (c2, r1) with c1 < c2 <= r1 < r2; a
    branch point may serve as the inner corner through either avatar.  A
    rectangle is empty when no other point of x lies strictly inside the
    column and row ranges.  A branch point's avatars never can: (v, v)
    inside would need c1 < v < c2 <= r1 < v.  Corner cells of allowed
    input points are automatically allowed in both modes, which is
    asserted rather than trusted.
    """
    out = []
    for outer, inner in itertools.permutations(x, 2):
        for a1, b1 in avatars(spec, outer):
            for a2, b2 in avatars(spec, inner):
                if not (a1 < a2 <= b2 < b1):
                    continue
                rect = Rectangle(c1=a1, c2=a2, r1=b2, r2=b1)
                assert spec.allowed(a1, b2) and spec.allowed(a2, b1), rect
                if not _is_empty(x, outer, inner, rect):
                    continue
                new_points = [p for p in x if p is not outer and p is not inner]
                new_points.append((rect.c1, rect.r1))
                new_points.append((rect.c2, rect.r2))
                out.append((rect, tuple(sorted(new_points))))
    out.sort()
    return out


def _is_empty(x, outer, inner, rect: Rectangle) -> bool:
    for point in x:
        if point is outer or point is inner:
            continue
        v, w = point
        if rect.c1 < v < rect.c2 and rect.r1 < w < rect.r2:
            return False
    return True


def floer_differential(spec: GridSpec, x: FloerGenerator) -> frozenset[FloerGenerator]:
    terms: set[FloerGenerator] = set()
    for _, y in empty_rectangles(spec, x):
        terms ^= {y}
    return frozenset(terms)


# ---------------------------------------------------------------------------
# Product: triangles.


def _crossing(a1, b1, a2, b2) -> int:
    return 1 if (a1 - a2) * (b1 - b2) < 0 else 0


def overlap_class(spec: GridSpec, t1: Triangle, t2: Triangle) -> str:
    """disjoint / head_to_tail / forbidden for a pair of triangles.

    The rule is the crossing sum of the two leg paths: chi =
    cr((c,m),(c',m')) + cr((m,r),(m',r')).  chi = 2 is the forbidden
    (double-crossing) overlap, chi = 1 the allowed head-to-tail contact,
    chi = 0 disjoint.  A flexible branch triangle is a constant point
    path; the other path can cross each avatar level at most once and a
    double crossing is impossible, so the pair is head_to_tail when either
    level is crossed and disjoint otherwise.
    """
    if t1.flex and t2.flex:
        return "disjoint"
    if t1.flex or t2.flex:
        flex, other = (t1, t2) if t1.flex else (t2, t1)
        chi = 0
        for alpha in spec.pmc.positions_of(flex.flex):
            chi += 1 if other.c < alpha < other.m else 0
            chi += 1 if other.m < alpha < other.r else 0
        return "head_to_tail" if chi else "disjoint"
    chi = _crossing(t1.c, t1.m, t2.c, t2.m) + _crossing(t1.m, t1.r, t2.m, t2.r)
    cls = ("disjoint", "head_to_tail", "forbidden")[chi]
    if t1.c != t2.c:
        lo, hi = (t1, t2) if t1.c < t2.c else (t2, t1)
        inequality_forbidden = lo.c < hi.c <= hi.m < lo.m <= lo.r < hi.r
        assert (cls == "forbidden") == inequality_forbidden, (t1, t2)
    if spec.mode == "half":
        s1, s2 = t1.sheet(spec), t2.sheet(spec)
        if s1 is not None and s2 is not None and s1 != s2:
            assert cls == "disjoint", (t1, t2)
    return cls


def product_triangles(
    spec: GridSpec, x: FloerGenerator, y: FloerGenerator
) -> list[Triangle] | None:
    """The k triangles pairing x's rows with y's columns by label, or None
    when some pair has no triangle (mismatched chord endpoints) or the
    idempotents do not meet."""
    if target_labels(spec, x) != source_labels(spec, y):
        return None
    by_col: dict[int, GridPoint] = {spec.label(a): (a, b) for a, b in y}
    tris: list[Triangle] = []
    for a, b in x:
        m_label = spec.label(b)
        a2, b2 = by_col[m_label]
        x_branch = a == b
        y_branch = a2 == b2
        if x_branch and y_branch:
            # a == b is the canonical avatar, on the row label.
            tris.append(Triangle(a, a, a, flex=m_label))
        elif x_branch:
            tris.append(Triangle(a2, a2, b2))
        elif y_branch:
            tris.append(Triangle(a, b, b))
        else:
            if b != a2:
                return None
            tris.append(Triangle(a, b, b2))
    return tris


def floer_product(
    spec: GridSpec, x: FloerGenerator, y: FloerGenerator
) -> frozenset[FloerGenerator]:
    """Count the triangle tuple; zero on any forbidden pair.

    The count is zero or a single generator: the pairing by labels is
    unique, so at most one tuple of triangles exists.
    """
    z = count_triangles(spec, product_triangles(spec, x, y))
    return frozenset() if z is None else frozenset((z,))


def count_triangles(spec: GridSpec, tris: list[Triangle] | None) -> FloerGenerator | None:
    """The product counted by a triangle tuple from ``product_triangles``:
    None when there is none or two of its triangles overlap forbiddenly,
    else the generator at the triangles' outgoing corners."""
    if tris is None:
        return None
    for t1, t2 in itertools.combinations(tris, 2):
        if overlap_class(spec, t1, t2) == "forbidden":
            return None
    points = []
    for t in tris:
        points.append(canonical_point(spec, t.c, t.r))
        assert spec.allowed(t.c, t.r), t
    return tuple(sorted(points))
