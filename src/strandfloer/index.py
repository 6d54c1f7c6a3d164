"""Euler measure, diagonal intersection number and Maslov index for
counted domains.

Every quantity lives in quarter-integer units, so the arithmetic is pure
int; callers see exact ``Fraction`` values.  A domain is a multiset of
elementary pieces (rectangles, triangles, abstract convex m-gons) plus
the number of incoming ends.  For the composite domains built by gluing
product domains end to end, the index formula

    mu = i + 2e - (l - 1) k / 2

collapses to mu = i, which is why chains of length three or more can
never carry a rigid count: rigidity would need mu = 2 - l < 0 while i is
a count of forbidden crossings and cannot be negative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import _kernels
from .grid import (
    FloerGenerator,
    GridSpec,
    Rectangle,
    Triangle,
    all_floer_generators,
    count_triangles,
    floer_product,  # unused here; perfbench/traced.py wraps index.floer_product by name
    overlap_class,
    product_triangles,
    source_labels,
    target_labels,
)


@dataclass(frozen=True)
class Piece:
    kind: str  # "rectangle" | "triangle" | "polygon"
    corners: int
    triangle: Triangle | None = None

    def __post_init__(self):
        expected = {"rectangle": 4, "triangle": 3}.get(self.kind)
        if expected is not None and self.corners != expected:
            raise ValueError(f"{self.kind} piece with {self.corners} corners")
        if self.corners < 3:
            raise ValueError("a convex piece needs at least three corners")

    @property
    def euler_quarters(self) -> int:
        """4 * (1 - m/4) for an embedded convex m-gon."""
        return 4 - self.corners


@dataclass(frozen=True)
class Domain:
    """A formal union of elementary pieces with inputs-end bookkeeping.

    euler_quarters and diag_intersections are stored, and revalidated
    against the pieces on construction.
    """

    spec: GridSpec
    k: int
    inputs: int
    pieces: tuple[Piece, ...]
    euler_quarters: int = field(default=None)  # type: ignore[assignment]
    diag_intersections: int = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.inputs < 1:
            raise ValueError("a domain has at least one incoming end")
        e = sum(p.euler_quarters for p in self.pieces)
        tris = [p.triangle for p in self.pieces if p.triangle is not None]
        i = sum(
            1
            for t1, t2 in itertools.combinations(tris, 2)
            if overlap_class(self.spec, t1, t2) == "forbidden"
        )
        if self.euler_quarters is None:
            object.__setattr__(self, "euler_quarters", e)
        elif self.euler_quarters != e:
            raise ValueError("stored Euler measure disagrees with the pieces")
        if self.diag_intersections is None:
            object.__setattr__(self, "diag_intersections", i)
        elif self.diag_intersections != i:
            raise ValueError("stored intersection number disagrees with the pieces")

    @property
    def euler_measure(self) -> Fraction:
        return Fraction(self.euler_quarters, 4)

    def maslov(self) -> Fraction:
        quarters = (
            4 * self.diag_intersections
            + 2 * self.euler_quarters
            - 2 * (self.inputs - 1) * self.k
        )
        return Fraction(quarters, 4)


def rectangle_domain(spec: GridSpec, rect: Rectangle, k: int) -> Domain:
    return Domain(spec, k, inputs=1, pieces=(Piece("rectangle", 4),))


def product_domain(spec: GridSpec, tris: list[Triangle]) -> Domain:
    pieces = tuple(Piece("triangle", 3, triangle=t) for t in tris)
    return Domain(spec, k=len(tris), inputs=2, pieces=pieces)


def glue(d1: Domain, d2: Domain) -> Domain:
    """Feed the outgoing end of d1 into one incoming slot of d2."""
    if d1.spec != d2.spec or d1.k != d2.k:
        raise ValueError("domains live on different diagrams")
    return Domain(
        d1.spec,
        d1.k,
        inputs=d1.inputs + d2.inputs - 1,
        pieces=d1.pieces + d2.pieces,
    )


# ---------------------------------------------------------------------------
# Counted-domain streams for the verification suites.


def counted_rectangle_domains(spec: GridSpec, k: int):
    """One Domain per empty rectangle over every generator."""
    from .grid import empty_rectangles

    for x in all_floer_generators(spec, k):
        for rect, _ in empty_rectangles(spec, x):
            yield rectangle_domain(spec, rect, k)


def _column_key(spec: GridSpec, y: FloerGenerator) -> tuple[int, ...]:
    """The column position of each point of y, in label order, with 0 for
    a branch point.  ``product_triangles`` meets a row b of x with the
    column a of y on the same label only when a == b, unless either point
    is a branch point, which meets any position of its label."""
    return tuple(0 if a == b else a for a, b in sorted(y, key=lambda p: spec.label(p[0])))


_ANY = -1  # a masked position of a right factor's key: a branch row of x meets any column


class _Edges:
    """Every counted product of a diagram, as a gluing graph.  It is the
    one grid product table of a verify run: dictionary-prod, euler and
    rigidity all read it.

    An edge is a composable pair (x, y) whose product is nonzero: the
    triangle tuple exists and has no forbidden overlap.  Its product
    generator is where later factors attach.

    Only matched pairs are visited.  Each right factor y is filed under
    its source labels and every masking of its ``_column_key`` (2^k
    keys).  A left factor x looks up, per label of its rows, ``_ANY`` for
    a branch row and either its row position b or a branch column (0)
    otherwise, so it reaches exactly the y whose non-branch columns equal
    its non-branch rows: the pairs for which ``product_triangles`` finds
    a triangle tuple, each once.  The visits are taken in index order, so
    the edges come out in the order of a walk over all composable pairs.
    """

    def __init__(self, spec: GridSpec, k: int):
        self.spec = spec
        self.gens = all_floer_generators(spec, k)
        index = {x: i for i, x in enumerate(self.gens)}
        by_key: dict[tuple, list[int]] = {}
        for j, y in enumerate(self.gens):
            labels = source_labels(spec, y)
            key = _column_key(spec, y)
            for mask in itertools.product((False, True), repeat=len(key)):
                masked = tuple(_ANY if m else a for m, a in zip(mask, key))
                by_key.setdefault((labels, masked), []).append(j)
        self.left: list[int] = []
        self.right: list[int] = []
        self.prod: list[int] = []
        self.tris: list[list[Triangle]] = []
        for i, x in enumerate(self.gens):
            labels = target_labels(spec, x)
            rows = sorted(x, key=lambda p: spec.label(p[1]))
            choices = [(_ANY,) if a == b else (b, 0) for a, b in rows]
            visits = sorted(
                j for key in itertools.product(*choices) for j in by_key.get((labels, key), ())
            )
            for j in visits:
                tris = product_triangles(spec, x, self.gens[j])
                z = count_triangles(spec, tris)
                if z is None:
                    continue
                self.left.append(i)
                self.right.append(j)
                self.prod.append(index[z])
                self.tris.append(tris)

    def domain(self, e: int) -> Domain:
        return product_domain(self.spec, self.tris[e])


def counted_product_domains(edges: _Edges):
    """One Domain per counted product: per edge of the gluing graph."""
    for e in range(len(edges.prod)):
        yield edges.domain(e)


def verify_rigidity(edges: _Edges) -> dict:
    """Check e = 2k/4 and mu >= 0 > -1 on every glued chain of three
    counted product domains, through ``_kernels.rigidity_scan``.

    The outgoing end of the first product attaches to either input slot
    of the second, so both association orders are scanned.
    """
    report = {"checked": 0, "violations": [], "max_intersection": 0}
    by_left: dict[int, list[int]] = {}
    by_right: dict[int, list[int]] = {}
    for e in range(len(edges.prod)):
        by_left.setdefault(edges.left[e], []).append(e)
        by_right.setdefault(edges.right[e], []).append(e)
    for attach in (by_left, by_right):
        chains, violations, max_cross = _kernels.rigidity_scan(edges.prod, edges.tris, attach)
        report["checked"] += chains
        report["max_intersection"] = max(report["max_intersection"], max_cross)
        if violations:
            report["violations"].append({"length": 3, "count": violations})
    return report
