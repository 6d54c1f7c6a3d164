"""Quarter-integer index bookkeeping over counted domains."""

from __future__ import annotations

from fractions import Fraction

import pytest

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
    tris = [Triangle(1, 2, 3), Triangle(2, 3, 4)]
    dom = product_domain(W1, tris)
    assert dom.k == 2
    assert dom.inputs == 2
    assert dom.euler_quarters == 2
    assert dom.diag_intersections == 0
    assert dom.maslov() == 0


def test_domain_counts_its_forbidden_pair():
    dom = Domain(W1, k=2, inputs=2, triangles=(Triangle(1, 3, 3), Triangle(2, 2, 4)))
    assert dom.diag_intersections == 1  # the forbidden pair
    assert dom.maslov() == Fraction(4 + 2 * 2 - 2 * 2, 4) == 1
    with pytest.raises(ValueError):
        Domain(W1, k=2, inputs=0, triangles=dom.triangles)


def test_glue_accumulates_ends_and_pieces():
    a = product_domain(W1, [Triangle(1, 2, 3)])
    b = product_domain(W1, [Triangle(1, 2, 4)])
    ab = glue(a, b)
    assert ab.inputs == 3
    assert ab.k == 1
    assert ab.euler_quarters == 2
    assert ab.maslov() == ab.diag_intersections  # 2e cancels (l-1)k/2 exactly
    abc = glue(ab, product_domain(W1, [Triangle(2, 3, 4)]))
    assert abc.inputs == 4
    assert abc.euler_quarters == 3


def test_glue_rejects_mismatched_diagrams():
    a = product_domain(W1, [Triangle(1, 2, 3)])
    b = product_domain(W2, [Triangle(1, 2, 3)])
    with pytest.raises(ValueError):
        glue(a, b)
    c = product_domain(W1, [Triangle(1, 2, 3), Triangle(2, 3, 4)])
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
        by_left: dict[int, list[int]] = {}
        by_right: dict[int, list[int]] = {}
        for e, (x, y) in enumerate(zip(edges.left, edges.right)):
            by_left.setdefault(x, []).append(e)
            by_right.setdefault(y, []).append(e)
        sweeps = [scan(edges.prod, edges.tris, attach) for attach in (by_left, by_right)]
        calls.clear()
        report = verify_rigidity(edges)
        assert len(calls) == 1
        assert report["checked"] == sweeps[0][0] + sweeps[1][0]
        assert report["max_intersection"] == max(sweeps[0][2], sweeps[1][2])
        assert report["violations"] == []


def test_rigidity_scan_matches_glued_domains():
    edges = _Edges(W2, 2)
    by_left: dict[int, list[int]] = {}
    by_right: dict[int, list[int]] = {}
    for e in range(len(edges.prod)):
        by_left.setdefault(edges.left[e], []).append(e)
        by_right.setdefault(edges.right[e], []).append(e)
    checked = max_intersection = 0
    for e1, out in enumerate(edges.prod):
        for e2 in by_left.get(out, []) + by_right.get(out, []):
            whole = glue(product_domain(W2, edges.tris[e1]), product_domain(W2, edges.tris[e2]))
            checked += 1
            max_intersection = max(max_intersection, whole.diag_intersections)
            # The scan over this one chain alone crosses exactly its pairs.
            alone = _kernels.rigidity_scan([0, -1], [edges.tris[e1], edges.tris[e2]], {0: [1]})
            assert alone == (1, 0, whole.diag_intersections)
    report = verify_rigidity(edges)
    assert (report["checked"], report["max_intersection"]) == (checked, max_intersection)
    assert checked == 26906


def _all_pairs_edges(spec, k):
    """The gluing graph by a walk over every label-composable pair, as
    (left, right, prod, tris), and the number of pairs with a triangle
    tuple."""
    gens = all_floer_generators(spec, k)
    position = {x: i for i, x in enumerate(gens)}
    by_source: dict[tuple[int, ...], list[int]] = {}
    for j, y in enumerate(gens):
        by_source.setdefault(source_labels(spec, y), []).append(j)
    left, right, prod, all_tris = [], [], [], []
    matched = 0
    for i, x in enumerate(gens):
        for j in by_source.get(target_labels(spec, x), ()):
            tris = product_triangles(spec, x, gens[j])
            matched += tris is not None
            z = count_triangles(spec, tris)
            if z is not None:
                left.append(i)
                right.append(j)
                prod.append(position[z])
                all_tris.append(tris)
    return (left, right, prod, all_tris), matched


@pytest.mark.parametrize(
    "g, k, mode",
    [(g, k, mode) for g in (1, 2) for k in range(1, 2 * g + 1) for mode in MODES]
    + [(3, k, mode) for k in (1, 2) for mode in MODES],
)
def test_edges_visit_only_matched_pairs_and_match_the_all_pairs_walk(monkeypatch, g, k, mode):
    _check_edges_against_all_pairs(monkeypatch, make_spec(standard_matching(g), mode), k)


@pytest.mark.parametrize("k, mode", [(k, mode) for k in range(1, 5) for mode in MODES])
def test_edges_match_the_all_pairs_walk_on_a_custom_matching(monkeypatch, k, mode):
    pmc = matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6)))
    _check_edges_against_all_pairs(monkeypatch, make_spec(pmc, mode), k)


def _check_edges_against_all_pairs(monkeypatch, spec, k):
    want, matched = _all_pairs_edges(spec, k)
    tuples = []

    def recorded(spec, x, y):
        tuples.append(product_triangles(spec, x, y))
        return tuples[-1]

    monkeypatch.setattr(index, "product_triangles", recorded)
    edges = _Edges(spec, k)
    assert (edges.left, edges.right, edges.prod, edges.tris) == want
    assert None not in tuples
    assert len(tuples) == matched
