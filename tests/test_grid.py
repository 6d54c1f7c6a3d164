"""Grid model: specs, points, rectangles, triangles, the dictionary.

Hand-worked cases carry the load here; the exhaustive grid-vs-algebra
comparisons live in the acceptance module.
"""

from __future__ import annotations

import itertools

import pytest

from conftest import intersection_pattern
from strandfloer.circle import matching_from_pairs, standard_matching
from strandfloer.grid import (
    Rectangle,
    Triangle,
    all_floer_generators,
    avatars,
    canonical_point,
    empty_rectangles,
    enumerate_floer_generators,
    floer_differential,
    floer_product,
    from_algebra,
    make_spec,
    overlap_class,
    points_for_labels,
    product_triangles,
    to_algebra,
)
from strandfloer.strands import MatchedGenerator

W1 = make_spec(standard_matching(1), "wrapped")
H1 = make_spec(standard_matching(1), "half")
W2 = make_spec(standard_matching(2), "wrapped")


def triangles(spec) -> list[Triangle]:
    """Every triangle of the diagram: pinned (c <= m <= r, all three cells
    allowed, not entirely diagonal) plus one flexible branch triangle per
    pair label."""
    out = [Triangle(lo, lo, lo, flex=p) for p, (lo, _) in enumerate(spec.pmc.pairs, 1)]
    for c in range(1, spec.n + 1):
        for m in range(c, spec.n + 1):
            if not spec.allowed(c, m):
                continue
            for r in range(m, spec.n + 1):
                if c == m == r:
                    continue
                if spec.allowed(m, r) and spec.allowed(c, r):
                    out.append(Triangle(c, m, r))
    out.sort()
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(standard_matching(0), "wrapped")
    with pytest.raises(ValueError):
        make_spec(standard_matching(1), "bogus")
    assert W2.n == 8
    assert W2.label(3) == 3
    assert W2.label(7) == 3


def test_allowed_cells():
    assert W1.allowed(1, 4)
    assert not W1.allowed(4, 1)
    assert not W1.allowed(0, 2)
    assert H1.allowed(1, 2)
    assert H1.allowed(3, 4)
    assert not H1.allowed(1, 3)  # crosses the split between 2 and 3
    assert not H1.allowed(2, 3)


def test_avatars_and_canonical_point():
    assert avatars(W1, (1, 1)) == ((1, 1), (3, 3))
    assert avatars(W1, (1, 3)) == ((1, 3),)
    assert canonical_point(W1, 3, 3) == (1, 1)
    assert canonical_point(W1, 1, 3) == (1, 3)


def test_custom_matching_places_avatars_at_its_pairs():
    # Label 3 sits at positions 3 and 5, label 4 at 4 and 6.
    spec = make_spec(matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), "wrapped")
    assert [spec.label(p) for p in range(1, 9)] == [1, 2, 3, 4, 3, 4, 1, 2]
    assert avatars(spec, (5, 5)) == avatars(spec, (3, 3)) == ((3, 3), (5, 5))
    assert canonical_point(spec, 5, 5) == (3, 3)
    assert points_for_labels(spec, 3, 4) == [(3, 4), (3, 6), (5, 6)]
    assert from_algebra(spec, MatchedGenerator(chords=(), dotted=(3, 4))) == ((3, 3), (4, 4))
    assert triangles(spec)[:4] == [
        Triangle(1, 1, 1, flex=1), Triangle(1, 1, 2), Triangle(1, 1, 3), Triangle(1, 1, 4)
    ]
    assert Triangle(3, 3, 3, flex=3) in triangles(spec)
    # The flexible triangle of label 3 has the levels 3 and 5, not 3 and 7.
    assert overlap_class(spec, Triangle(3, 3, 3, flex=3), Triangle(4, 6, 6)) == "head_to_tail"
    assert overlap_class(spec, Triangle(3, 3, 3, flex=3), Triangle(6, 8, 8)) == "disjoint"


def test_points_for_labels_hand_table():
    assert points_for_labels(W1, 1, 1) == [(1, 1), (1, 3)]
    assert points_for_labels(W1, 1, 2) == [(1, 2), (1, 4), (3, 4)]
    assert points_for_labels(W1, 2, 1) == [(2, 3)]
    assert points_for_labels(H1, 1, 1) == [(1, 1)]
    assert points_for_labels(H1, 1, 2) == [(1, 2), (3, 4)]
    assert points_for_labels(H1, 2, 1) == []


def test_intersection_pattern_closed_form():
    for g in (1, 2, 3):
        wrapped = make_spec(standard_matching(g), "wrapped")
        half = make_spec(standard_matching(g), "half")
        for i in range(1, 2 * g + 1):
            for j in range(1, 2 * g + 1):
                expect = 3 if i < j else (2 if i == j else 1)
                assert intersection_pattern(wrapped, i, j) == expect
                assert intersection_pattern(half, i, j) == expect - 1
    with pytest.raises(ValueError):
        intersection_pattern(W1, 0, 1)
    with pytest.raises(ValueError):
        intersection_pattern(W1, 1, 3)


def test_enumerate_floer_generators():
    gens = enumerate_floer_generators(W1, (1,), (2,))
    assert gens == [((1, 2),), ((1, 4),), ((3, 4),)]
    assert enumerate_floer_generators(H1, (2,), (1,)) == []
    with pytest.raises(ValueError):
        enumerate_floer_generators(W1, (1,), (1, 2))


def test_all_floer_generators_count():
    assert len(all_floer_generators(W1, 1)) == 8
    assert len(all_floer_generators(H1, 1)) == 4
    assert all_floer_generators(W1, 0) == [()]
    assert all_floer_generators(H1, 0) == [()]
    with pytest.raises(ValueError):
        all_floer_generators(W1, 3)


def test_dictionary_roundtrip():
    for spec, k in ((W1, 2), (W2, 2), (H1, 1)):
        for x in all_floer_generators(spec, k):
            gen = to_algebra(spec, x)
            assert from_algebra(spec, gen) == x
    gen = MatchedGenerator(chords=((1, 3),), dotted=())
    with pytest.raises(ValueError):
        from_algebra(H1, gen)
    with pytest.raises(ValueError):
        to_algebra(H1, ((1, 3),))


def test_rectangle_between_crossed_points():
    x = ((1, 4), (2, 3))
    rects = empty_rectangles(W1, x)
    assert rects == [(Rectangle(c1=1, c2=2, r1=3, r2=4), ((1, 3), (2, 4)))]
    assert set(floer_differential(W1, x)) == {((1, 3), (2, 4))}
    assert not floer_differential(W1, ((1, 3), (2, 4)))


def test_rectangle_with_branch_avatar_corner():
    # the inner corner sits on a branch point through its low avatar
    x = ((1, 3), (2, 2))
    rects = empty_rectangles(W1, x)
    assert [r for r, _ in rects] == [Rectangle(c1=1, c2=2, r1=2, r2=3)]
    assert set(floer_differential(W1, x)) == {((1, 2), (2, 3))}


def test_rectangle_emptiness_blocking():
    # (2,7) sits strictly inside the rectangle spanned by (1,8) and (3,6),
    # so that count dies; the two smaller rectangles survive.
    x = ((1, 8), (2, 7), (3, 6))
    got = set(floer_differential(W2, x))
    assert got == {
        ((1, 7), (2, 8), (3, 6)),
        ((1, 8), (2, 6), (3, 7)),
    }


def test_triangle_enumeration_counts():
    wrapped = triangles(W1)
    half = triangles(H1)
    assert len([t for t in wrapped if t.flex]) == 2
    assert len([t for t in half if t.flex]) == 2
    assert len(wrapped) == 18  # 16 pinned (c<=m<=r, not all equal) + 2 flex
    assert len(half) == 6
    for t in half:
        if not t.flex:
            assert t.sheet(H1) in ("V", "Vp")


def test_overlap_class_hand_cases():
    assert overlap_class(W1, Triangle(1, 3, 3), Triangle(2, 2, 4)) == "forbidden"
    assert overlap_class(W1, Triangle(1, 2, 4), Triangle(2, 3, 3)) == "head_to_tail"
    assert overlap_class(W1, Triangle(1, 2, 3), Triangle(2, 3, 4)) == "disjoint"
    flex = Triangle(1, 1, 1, flex=1)
    assert overlap_class(W1, flex, Triangle(2, 4, 4)) == "head_to_tail"
    assert overlap_class(W1, flex, Triangle(2, 3, 4)) == "disjoint"
    assert overlap_class(W1, flex, Triangle(2, 2, 2, flex=2)) == "disjoint"


def test_overlap_class_is_symmetric():
    tris = triangles(W2)[::7]
    for t1, t2 in itertools.combinations(tris, 2):
        assert overlap_class(W2, t1, t2) == overlap_class(W2, t2, t1)


def test_product_triangles_cases():
    # chord then chord, exact endpoint match
    assert product_triangles(W1, ((1, 2),), ((2, 3),)) == [Triangle(1, 2, 3)]
    assert set(floer_product(W1, ((1, 2),), ((2, 3),))) == {((1, 3),)}
    # chord endpoints carry the same label but different positions: zero
    assert product_triangles(W2, ((1, 6),), ((2, 3),)) is None
    assert not floer_product(W2, ((1, 6),), ((2, 3),))
    # idempotent mismatch
    assert product_triangles(W1, ((1, 2),), ((1, 2),)) is None
    # branch point then chord
    assert product_triangles(W1, ((2, 2),), ((2, 3),)) == [Triangle(2, 2, 3)]
    assert product_triangles(W2, ((2, 2),), ((6, 7),)) == [Triangle(6, 6, 7)]
    # chord then branch point
    assert product_triangles(W1, ((2, 3),), ((1, 1),)) == [Triangle(2, 3, 3)]
    # branch then branch stays flexible
    assert product_triangles(W1, ((1, 1),), ((1, 1),)) == [Triangle(1, 1, 1, flex=1)]
    assert set(floer_product(W1, ((1, 1),), ((1, 1),))) == {((1, 1),)}
    # label sets of the same length that differ: rows {2, 3}, columns {1, 2}
    assert product_triangles(W2, ((1, 2), (3, 3)), ((2, 3), (1, 1))) is None
    # a repeated row label against distinct columns: every row label is a
    # column label, but the multisets (2, 2) and (1, 2) differ
    assert product_triangles(W2, ((1, 2), (2, 2)), ((2, 3), (1, 1))) is None
    # counts differ
    assert product_triangles(W1, ((1, 2),), ((2, 3), (1, 1))) is None
    # the same labels in another order meet
    want = [Triangle(1, 2, 3), Triangle(3, 3, 4)]
    assert product_triangles(W2, ((1, 2), (3, 3)), ((3, 4), (2, 3))) == want
    # repeated column labels meet only the same repeated row labels; the
    # last point of a repeated column label is the one paired
    assert product_triangles(W1, ((1, 2), (1, 4)), ((2, 3), (4, 4))) == [
        Triangle(1, 2, 2),
        Triangle(1, 4, 4),
    ]
    assert product_triangles(W1, ((1, 2), (3, 3)), ((2, 3), (4, 4))) is None


def test_product_forbidden_overlap_kills_count():
    x = ((1, 3), (2, 2))
    y = ((1, 1), (2, 4))
    tris = product_triangles(W1, x, y)
    assert sorted(tris) == [Triangle(1, 3, 3), Triangle(2, 2, 4)]
    assert not floer_product(W1, x, y)
    # the opposite order composes head to tail
    assert set(floer_product(W1, y, x)) == {((1, 3), (2, 4))}
