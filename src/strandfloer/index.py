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
    empty_rectangles,
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

    @property
    def maslov_quarters(self) -> int:
        return 4 * self.diag_intersections + 2 * self.euler_quarters - 2 * (self.inputs - 1) * self.k

    def maslov(self) -> Fraction:
        return Fraction(self.maslov_quarters, 4)


def rectangle_domain(spec: GridSpec, k: int) -> Domain:
    return Domain(spec, k, 1, ())


def product_domain(spec: GridSpec, tris: tuple[Triangle, ...]) -> Domain:
    return Domain(spec, len(tris), 2, tris)


# ---------------------------------------------------------------------------
# Counted-domain streams for the verification suites.


def counted_rectangle_domains(spec: GridSpec, k: int):
    """One Domain per empty rectangle over every generator."""
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

    The graph is stored as its rows: the edges with left factor x are
    e in ``start[x] : start[x + 1]``, one row per generator, in walk
    order.  Edge e is (x, ``right[e]``) with product ``prod[e]``,
    indices into ``gens``, and its k triangles are ``triangles[t]`` for
    the ids t in ``tri_ids[k * e : k * e + k]``.  All four are
    ``array``s, so the graph holds no object per edge, and ``triangles``
    lists each distinct triangle once (358 at g=3), in the order the
    edges first meet them.  The edges number ``len(right)``; at k = 0
    there is one row, of one edge with no triangles.
    """

    def __init__(self, spec: GridSpec, k: int):
        # Imported here, not with the module: loading the extension adds
        # about 0.15 MB to the RSS of every run, a build included.
        from array import array

        self.spec = spec
        self.k = k
        self.gens = all_floer_generators(spec, k)
        index = {x: i for i, x in enumerate(self.gens)}
        by_key: dict[tuple, list[int]] = {}
        for j, y in enumerate(self.gens):
            by_key.setdefault((source_labels(spec, y), _column_key(spec, y)), []).append(j)
        self.start = array("i", [0])
        self.right = array("i")
        self.prod = array("i")
        # A triangle is c <= m <= r of the n positions, or a flex one at a
        # position: two bytes hold every id while those fit, up to g = 18.
        n = spec.n
        self.tri_ids = array("H" if (n + 2) * (n + 1) * n // 6 + n <= 1 << 16 else "i")
        ids: dict[Triangle, int] = {}
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
                self.right.append(j)
                self.prod.append(index[z])
                self.tri_ids.extend([ids.setdefault(t, len(ids)) for t in tris])
            self.start.append(len(self.right))
        self.triangles: list[Triangle] = list(ids)


def counted_product_domains(edges: _Edges):
    """One Domain per counted product: per edge of the gluing graph, in
    edge order, its triangle tuple made as the Domain is."""
    stream = map(edges.triangles.__getitem__, edges.tri_ids)
    for _ in edges.right:
        yield product_domain(edges.spec, tuple(itertools.islice(stream, edges.k)))


def verify_rigidity(edges: _Edges) -> dict:
    """Test mu >= 0 > -1 on every glued chain of three counted product
    domains, through one ``_kernels.rigidity_scan``, with mu the number
    of crossings of the chain's pinned triangles.  A count is never
    negative, so the test cannot fail; the Euler measure e = 2k/4 is
    taken to hold by construction and is not checked.  The scan visits
    only the chains with a crossing pair; every other chain has mu = 0
    and is counted in checked.

    The outgoing end of the first product attaches to either input slot
    of the second, so both association orders are scanned: the attach
    map files each edge under its left factor, as its row, and again
    under its right factor, and an edge whose two factors are equal
    (such as e * e = e) is listed twice.  Each generator's edges are an
    ``array``, so the map holds no int object per edge.
    """
    from array import array

    start = edges.start
    attach = {x: array("i", range(a, b)) for x, (a, b) in enumerate(zip(start, start[1:])) if a < b}
    for e, y in enumerate(edges.right):
        held = attach.get(y)
        if held is None:
            held = attach[y] = array("i")
        held.append(e)
    chains, violations, max_cross = _kernels.rigidity_scan(
        edges.prod, edges.tri_ids, edges.k, edges.triangles, attach
    )
    report = {"checked": chains, "violations": [], "max_intersection": max_cross}
    if violations:
        report["violations"].append({"length": 3, "count": violations})
    return report
