"""Euler measure, diagonal intersection number and Maslov index for
counted domains.

A counted domain is k, its number of incoming ends and its triangles:
an empty rectangle has no triangles and one incoming end, a product
domain k triangles and two.  Every quantity lives in quarter-integer
units, so the arithmetic is pure int until ``maslov`` returns an exact
``Fraction``.  For the composite domains built by gluing product
domains end to end, the index formula

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
class Domain:
    """A counted domain.  Its Euler measure is a quarter per triangle
    (an embedded triangle has e = 1 - 3/4; a rectangle, e = 0), and its
    diagonal intersection number i, the count of forbidden triangle
    pairs, is counted once, here."""

    spec: GridSpec
    k: int
    inputs: int
    triangles: tuple[Triangle, ...]
    diag_intersections: int = field(init=False)

    def __post_init__(self):
        if self.inputs < 1:
            raise ValueError("a domain has at least one incoming end")
        i = sum(
            1
            for t1, t2 in itertools.combinations(self.triangles, 2)
            if overlap_class(self.spec, t1, t2) == "forbidden"
        )
        object.__setattr__(self, "diag_intersections", i)

    @property
    def euler_quarters(self) -> int:
        return len(self.triangles)

    def maslov(self) -> Fraction:
        quarters = (
            4 * self.diag_intersections
            + 2 * self.euler_quarters
            - 2 * (self.inputs - 1) * self.k
        )
        return Fraction(quarters, 4)


def rectangle_domain(spec: GridSpec, k: int) -> Domain:
    return Domain(spec, k, 1, ())


def product_domain(spec: GridSpec, tris: list[Triangle]) -> Domain:
    return Domain(spec, len(tris), 2, tuple(tris))


# ---------------------------------------------------------------------------
# Counted-domain streams for the verification suites.


def counted_rectangle_domains(spec: GridSpec, k: int):
    """One Domain per empty rectangle over every generator."""
    from .grid import empty_rectangles

    for x in all_floer_generators(spec, k):
        for _ in empty_rectangles(spec, x):
            yield rectangle_domain(spec, k)


def _column_key(spec: GridSpec, y: FloerGenerator) -> tuple[int, ...]:
    """The column position of each point of y, in label order, with 0 for
    a branch point.  ``product_triangles`` meets a row b of x with the
    column a of y on the same label only when a == b, unless either point
    is a branch point, which meets any position of its label."""
    return tuple(0 if a == b else a for a, b in sorted(y, key=lambda p: spec.label(p[0])))


class _Edges:
    """Every counted product of a diagram, as a gluing graph.  It is the
    one grid product table of a verify run: dictionary-prod, euler and
    rigidity all read it.

    An edge is a composable pair (x, y) whose product is nonzero: the
    triangle tuple exists and has no forbidden overlap.  Its product
    generator is where later factors attach.

    Only matched pairs are visited.  Each right factor y is filed under
    one key: its source labels and its ``_column_key``.  A left factor x
    looks up, per label of its rows, its row position b or a branch
    column (0) for a non-branch row, and a branch column or either
    position of the label for a branch row.  So it reaches exactly the y
    whose non-branch columns equal its non-branch rows: the pairs for
    which ``product_triangles`` finds a triangle tuple, each once.  The
    visits are taken in index order, so the edges come out in the order
    of a walk over all composable pairs.
    """

    def __init__(self, spec: GridSpec, k: int):
        self.spec = spec
        self.gens = all_floer_generators(spec, k)
        index = {x: i for i, x in enumerate(self.gens)}
        by_key: dict[tuple, list[int]] = {}
        for j, y in enumerate(self.gens):
            by_key.setdefault((source_labels(spec, y), _column_key(spec, y)), []).append(j)
        self.left: list[int] = []
        self.right: list[int] = []
        self.prod: list[int] = []
        self.tris: list[list[Triangle]] = []
        for i, x in enumerate(self.gens):
            labels = target_labels(spec, x)
            rows = sorted(x, key=lambda p: spec.label(p[1]))
            choices = [
                (0, *spec.pmc.positions_of(spec.label(b))) if a == b else (b, 0) for a, b in rows
            ]
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


def counted_product_domains(edges: _Edges):
    """One Domain per counted product: per edge of the gluing graph."""
    for tris in edges.tris:
        yield product_domain(edges.spec, tris)


def verify_rigidity(edges: _Edges) -> dict:
    """Check e = 2k/4 and mu >= 0 > -1 on every glued chain of three
    counted product domains, through one ``_kernels.rigidity_scan``.

    The outgoing end of the first product attaches to either input slot
    of the second, so both association orders are scanned: the attach
    map files each edge under its left factor and again under its right
    factor, and an edge whose two factors are equal (such as e * e = e)
    is listed twice.
    """
    attach: dict[int, list[int]] = {}
    for e, (x, y) in enumerate(zip(edges.left, edges.right)):
        attach.setdefault(x, []).append(e)
        attach.setdefault(y, []).append(e)
    chains, violations, max_cross = _kernels.rigidity_scan(edges.prod, edges.tris, attach)
    report = {"checked": chains, "violations": [], "max_intersection": max_cross}
    if violations:
        report["violations"].append({"length": 3, "count": violations})
    return report
