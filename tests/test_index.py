"""Quarter-integer index bookkeeping over counted domains."""

from __future__ import annotations

from array import array
from fractions import Fraction

import pytest

from conftest import ADMISSIBLE_G2, rigidity_walk
from strandfloer import _kernels, index, verify
from strandfloer.circle import matching_from_pairs, standard_matching
from strandfloer.grid import (
    MODES,
    Triangle,
    all_floer_generators,
    count_triangles,
    make_spec,
    product_triangles,
    source_labels,
    target_labels,
)
from strandfloer.index import (
    Domain,
    _Edges,
    counted_product_domains,
    counted_rectangle_domains,
    product_domain,
    rectangle_domain,
    verify_rigidity,
)

W1 = make_spec(standard_matching(1), "wrapped")
W2 = make_spec(standard_matching(2), "wrapped")


def glue(d1: Domain, d2: Domain) -> Domain:
    """Feed the outgoing end of d1 into one incoming slot of d2."""
    if d1.spec != d2.spec or d1.k != d2.k:
        raise ValueError("domains live on different diagrams")
    return Domain(d1.spec, d1.k, d1.inputs + d2.inputs - 1, d1.triangles + d2.triangles)


def test_rectangle_domain_is_flat():
    dom = rectangle_domain(W1, k=2)
    assert dom.euler_quarters == 0
    assert dom.diag_intersections == 0
    assert dom.maslov() == 0


def test_product_domain_quarter_euler_per_triangle():
    tris = (Triangle(1, 2, 3), Triangle(2, 3, 4))
    dom = product_domain(W1, tris)
    assert dom.k == 2
    assert dom.inputs == 2
    assert dom.euler_quarters == 2
    assert dom.diag_intersections == 0
    assert dom.maslov() == 0


def test_domain_counts_its_forbidden_pair():
    dom = Domain(W1, k=2, inputs=2, triangles=(Triangle(1, 3, 3), Triangle(2, 2, 4)))
    assert dom.diag_intersections == 1  # the forbidden pair
    assert dom.maslov_quarters == 4 + 2 * 2 - 2 * 2
    assert dom.maslov() == Fraction(4 + 2 * 2 - 2 * 2, 4) == 1
    with pytest.raises(ValueError):
        Domain(W1, k=2, inputs=0, triangles=dom.triangles)


def test_glue_accumulates_ends_and_pieces():
    a = product_domain(W1, (Triangle(1, 2, 3),))
    b = product_domain(W1, (Triangle(1, 2, 4),))
    ab = glue(a, b)
    assert ab.inputs == 3
    assert ab.k == 1
    assert ab.euler_quarters == 2
    assert ab.maslov() == ab.diag_intersections  # 2e cancels (l-1)k/2 exactly
    abc = glue(ab, product_domain(W1, (Triangle(2, 3, 4),)))
    assert abc.inputs == 4
    assert abc.euler_quarters == 3


def test_glue_rejects_mismatched_diagrams():
    a = product_domain(W1, (Triangle(1, 2, 3),))
    b = product_domain(W2, (Triangle(1, 2, 3),))
    with pytest.raises(ValueError):
        glue(a, b)
    c = product_domain(W1, (Triangle(1, 2, 3), Triangle(2, 3, 4)))
    with pytest.raises(ValueError):
        glue(a, c)  # k = 1 against k = 2


def test_counted_rectangles_are_flat():
    doms = list(counted_rectangle_domains(W1, 2))
    assert len(doms) >= 3
    for dom in doms:
        assert dom.euler_quarters == 0
        assert dom.diag_intersections == 0


def test_counted_products_have_index_zero():
    doms = list(counted_product_domains(_Edges(W1, 1)))
    assert len(doms) == 18  # one per nonzero product of the g=1, k=1 algebra
    for dom in doms:
        assert dom.euler_quarters == 1
        assert dom.diag_intersections == 0
        assert dom.maslov() == 0


def test_rigidity_scan_small():
    report = verify_rigidity(_Edges(W1, 1))
    assert report["violations"] == []
    assert report["checked"] > 0


def test_rigidity_scan_frozen_counts():
    report = verify_rigidity(_Edges(W2, 2))
    assert report["violations"] == []
    assert report["checked"] == 26906  # 13453 chains per association order
    assert report["max_intersection"] >= 1  # nonvacuous: crossings do occur


@pytest.mark.parametrize("variant", ["full", "half"])
@pytest.mark.parametrize("g", [1, 2])
def test_one_rigidity_sweep_equals_both_association_orders(monkeypatch, g, variant):
    """verify_rigidity's one sweep over one attach map gives the chains of
    two sweeps, one per association order: the sum of their counts and
    the max of their crossings.  An edge with equal factors (every
    e * e = e) heads a list under both orders, so listing it once in the
    attach map loses chains."""
    spec = verify.grid_spec(standard_matching(g), variant)
    scan = _kernels.rigidity_scan
    calls = []

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(_kernels, "rigidity_scan", counted)
    for k in range(2 * g + 1):
        edges = _Edges(spec, k)
        sweeps = [
            scan(edges.prod, edges.tri_ids, k, edges.triangles, attach)
            for attach in attach_halves(edges)
        ]
        calls.clear()
        report = verify_rigidity(edges)
        assert len(calls) == 1
        assert report["checked"] == sweeps[0][0] + sweeps[1][0]
        assert report["max_intersection"] == max(sweeps[0][2], sweeps[1][2])
        assert report["violations"] == []


def test_rigidity_scan_matches_glued_domains():
    edges = _Edges(W2, 2)
    by_left, by_right = attach_halves(edges)
    tris = edge_tuples(edges)
    ids, k = edges.tri_ids, edges.k
    checked = max_intersection = 0
    for e1, out in enumerate(edges.prod):
        for e2 in by_left.get(out, []) + by_right.get(out, []):
            whole = glue(product_domain(W2, tris[e1]), product_domain(W2, tris[e2]))
            checked += 1
            max_intersection = max(max_intersection, whole.diag_intersections)
            # The scan over this one chain alone crosses exactly its pairs.
            pair_ids = ids[k * e1 : k * e1 + k] + ids[k * e2 : k * e2 + k]
            alone = _kernels.rigidity_scan([0, -1], pair_ids, k, edges.triangles, {0: [1]})
            assert alone == (1, 0, whole.diag_intersections)
    report = verify_rigidity(edges)
    assert (report["checked"], report["max_intersection"]) == (checked, max_intersection)
    assert checked == 26906


def _check_scan_against_dense_walk(monkeypatch, edges):
    """verify_rigidity's one call of rigidity_scan returns what the dense
    walk over every chain returns on the same arguments."""
    scan = _kernels.rigidity_scan
    calls = []

    def recorded(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(_kernels, "rigidity_scan", recorded)
    report = verify_rigidity(edges)
    (args,) = calls
    want = rigidity_walk(*args)
    assert scan(*args) == want
    assert (report["checked"], report["max_intersection"]) == (want[0], want[2])


@pytest.mark.parametrize("variant", ["full", "half"])
@pytest.mark.parametrize("g", [1, 2])
def test_rigidity_scan_matches_the_dense_walk(monkeypatch, g, variant):
    spec = verify.grid_spec(standard_matching(g), variant)
    for k in range(2 * g + 1):
        _check_scan_against_dense_walk(monkeypatch, _Edges(spec, k))


@pytest.mark.parametrize("variant", ["full", "half"])
def test_rigidity_scan_matches_the_dense_walk_on_every_admissible_g2_matching(
    monkeypatch, variant
):
    assert len(ADMISSIBLE_G2) == 21
    for pmc in ADMISSIBLE_G2:
        _check_scan_against_dense_walk(monkeypatch, _Edges(verify.grid_spec(pmc, variant), 2))


def test_rigidity_scan_counts_every_crossing_of_a_chain():
    # Edge 0 makes generator 7, at which edge 1 is attached twice (both
    # of its factors are 7) and edge 2 once; edge 2 makes 9, at which
    # edge 0 is attached.  Edge 0's pinned triangles cross two of edge
    # 1's, (2, 3, 6) with (1, 4, 5) and (4, 5, 9) with (5, 4, 10), and
    # one of edge 2's; a flex triangle crosses nothing.  Each edge has
    # three triangles, edge 2 two flex ones.
    triangles = [
        Triangle(2, 3, 6), Triangle(5, 5, 5, flex=2), Triangle(4, 5, 9),
        Triangle(1, 4, 5), Triangle(5, 4, 10), Triangle(6, 6, 6),
        Triangle(2, 3, 6, flex=1),
    ]
    tri_ids = [0, 1, 2, 3, 4, 5, 3, 6, 1]
    prod, attach = [7, 8, 9], {7: [1, 1, 2], 9: [0]}
    args = prod, tri_ids, 3, triangles, attach
    assert _kernels.rigidity_scan(*args) == rigidity_walk(*args)
    assert _kernels.rigidity_scan(*args) == (4, 0, 2)


def rows(edges) -> list[range]:
    """The edges of each left factor, read from the graph's row starts."""
    return [range(a, b) for a, b in zip(edges.start, edges.start[1:])]


def attach_halves(edges) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Each generator's edges as left factor (its row) and as right factor."""
    by_left = {x: list(row) for x, row in enumerate(rows(edges)) if row}
    by_right: dict[int, list[int]] = {}
    for e, y in enumerate(edges.right):
        by_right.setdefault(y, []).append(e)
    return by_left, by_right


def edge_tuples(edges) -> list[tuple[Triangle, ...]]:
    """Each edge's triangle tuple, read from the flat graph."""
    k = edges.k
    return [
        tuple(edges.triangles[t] for t in edges.tri_ids[k * e : k * e + k])
        for e in range(len(edges.right))
    ]


def _all_pairs_rows(spec, k):
    """The gluing graph by a walk over every label-composable pair, as
    one row per left factor of its (right, prod, tris) edges, and the
    number of pairs with a triangle tuple."""
    gens = all_floer_generators(spec, k)
    position = {x: i for i, x in enumerate(gens)}
    by_source: dict[tuple[int, ...], list[int]] = {}
    for j, y in enumerate(gens):
        by_source.setdefault(source_labels(spec, y), []).append(j)
    want = []
    matched = 0
    for x in gens:
        want.append([])
        for j in by_source.get(target_labels(spec, x), ()):
            tris = product_triangles(spec, x, gens[j])
            matched += tris is not None
            z = count_triangles(spec, tris)
            if z is not None:
                want[-1].append((j, position[z], tuple(tris)))
    return want, matched


@pytest.mark.parametrize(
    "g, k, mode",
    [(g, k, mode) for g in (1, 2) for k in range(2 * g + 1) for mode in MODES]
    + [(3, k, mode) for k in (1, 2) for mode in MODES],
)
def test_edges_visit_only_matched_pairs_and_match_the_all_pairs_walk(monkeypatch, g, k, mode):
    _check_edges_against_all_pairs(monkeypatch, make_spec(standard_matching(g), mode), k)


@pytest.mark.parametrize("k, mode", [(k, mode) for k in range(5) for mode in MODES])
def test_edges_match_the_all_pairs_walk_on_a_custom_matching(monkeypatch, k, mode):
    pmc = matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6)))
    _check_edges_against_all_pairs(monkeypatch, make_spec(pmc, mode), k)


def _check_edges_against_all_pairs(monkeypatch, spec, k):
    want, matched = _all_pairs_rows(spec, k)
    tuples = []

    def recorded(spec, x, y):
        tuples.append(product_triangles(spec, x, y))
        return tuples[-1]

    monkeypatch.setattr(index, "product_triangles", recorded)
    edges = _Edges(spec, k)
    tris = edge_tuples(edges)
    got = [[(edges.right[e], edges.prod[e], tris[e]) for e in row] for row in rows(edges)]
    assert got == want
    assert None not in tuples
    assert len(tuples) == matched
    # The graph is its rows: start never decreases, row x is
    # start[x] : start[x + 1], and the last row ends at the last edge.
    start = edges.start
    assert len(start) == len(edges.gens) + 1
    assert start[0] == 0 and start[-1] == len(edges.right)
    assert all(a <= b for a, b in zip(start, start[1:]))
    if k == 0:
        assert list(start) == [0, 1]  # one row, of the one edge () * () = ()
    # The graph is flat: k triangle ids per edge into one list that holds
    # each distinct triangle once.
    assert all(type(a) is array for a in (start, edges.right, edges.prod, edges.tri_ids))
    assert len(edges.tri_ids) == k * len(edges.right)
    assert all(type(t) is Triangle for t in edges.triangles)
    assert len(set(edges.triangles)) == len(edges.triangles)
