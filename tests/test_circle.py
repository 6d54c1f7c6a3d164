"""Matched circles, surface validation, idempotent enumeration."""

from __future__ import annotations

import math

import pytest

from strandfloer.circle import (
    PointedMatchedCircle,
    idempotents,
    matching_from_pairs,
    standard_matching,
    thimble_index_sets,
    validate_surface,
)


def test_standard_matching_shape():
    pmc = standard_matching(2)
    assert pmc.n_points == 8
    assert pmc.pairs == ((1, 5), (2, 6), (3, 7), (4, 8))
    assert pmc.label_of(3) == 3
    assert pmc.label_of(7) == 3
    assert pmc.positions_of(4) == (4, 8)
    assert pmc.labels == (1, 2, 3, 4, 1, 2, 3, 4)


def test_standard_matching_validates_for_small_genus():
    for g in range(1, 7):
        inv = validate_surface(standard_matching(g))
        assert inv.valid
        assert inv.boundary_components == 1
        assert inv.genus == g
        assert inv.euler_characteristic == 1 - 2 * g


def test_genus_one_matchings_hand_traced():
    # Boundary-walk component counts fixed by hand: only the interleaved
    # pairing closes up to a one-boundary torus.
    expected = {
        ((1, 2), (3, 4)): 3,
        ((1, 3), (2, 4)): 1,
        ((1, 4), (2, 3)): 3,
    }
    for pairs, components in expected.items():
        inv = validate_surface(matching_from_pairs(1, pairs))
        assert inv.boundary_components == components
        assert inv.valid == (components == 1)


def _pairings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + tail


def test_all_matchings_share_euler_characteristic():
    # chi = 1 - 2g regardless of the pairing; only the boundary count moves.
    matchings = list(_pairings(tuple(range(1, 9))))
    assert len(matchings) == 105
    seen_valid = 0
    for pairs in matchings:
        inv = validate_surface(matching_from_pairs(2, pairs))
        assert inv.euler_characteristic == -3
        assert inv.boundary_components % 2 == 1
        seen_valid += inv.valid
    assert seen_valid == 21


def test_crosses_split():
    pmc = standard_matching(2)
    assert pmc.crosses_split(4, 5)
    assert pmc.crosses_split(1, 8)
    assert not pmc.crosses_split(1, 4)
    assert not pmc.crosses_split(5, 8)


def test_bad_circles_rejected():
    with pytest.raises(ValueError):
        standard_matching(0)
    with pytest.raises(ValueError):
        PointedMatchedCircle(g=1, pairs=((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        # pairs must arrive sorted by lower position
        PointedMatchedCircle(g=1, pairs=((2, 4), (1, 3)))
    assert matching_from_pairs(1, [(4, 2), (3, 1)]).pairs == ((1, 3), (2, 4))
    assert matching_from_pairs(1, [(1, 2), (4, 3)]).labels == (1, 1, 2, 2)


def test_label_position_errors():
    pmc = standard_matching(1)
    with pytest.raises(ValueError):
        pmc.label_of(5)
    with pytest.raises(ValueError):
        pmc.label_of(0)
    with pytest.raises(ValueError):
        pmc.positions_of(3)


def test_idempotents_are_subset_enumerations():
    for g in range(1, 7):
        pmc = standard_matching(g)
        for k in range(0, 2 * g + 1):
            sets = idempotents(pmc, k)
            assert len(sets) == math.comb(2 * g, k)
            assert sets == sorted(sets)
            assert len(set(sets)) == len(sets)
            assert all(len(s) == k for s in sets)
    with pytest.raises(ValueError):
        idempotents(standard_matching(1), 3)


def test_thimble_index_sets():
    for g in range(1, 7):
        for k in range(0, 2 * g + 2):
            sets = thimble_index_sets(g, k)
            assert len(sets) == math.comb(2 * g + 1, k)
            assert all(max(s, default=0) <= 2 * g + 1 for s in sets)
    with pytest.raises(ValueError):
        thimble_index_sets(1, 4)
