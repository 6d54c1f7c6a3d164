"""The algebra suites over every admissible genus-2 matching, not only the
standard one and the two custom ones pinned elsewhere."""

from __future__ import annotations

import itertools

import pytest

from strandfloer.circle import matching_from_pairs, validate_surface
from strandfloer.strands import AlgebraTable
from strandfloer.verify import suite_assoc, suite_closure, suite_d2, suite_leibniz


def _matchings(points):
    """Every perfect matching of the points, as tuples of pairs."""
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + m


# 21 of the 105 matchings of eight points are admissible: the genus-2
# count of one-face chord diagrams with four chords (Harer-Zagier).
ADMISSIBLE_G2 = [
    pmc
    for pmc in (matching_from_pairs(2, m) for m in _matchings(tuple(range(1, 9))))
    if validate_surface(pmc).valid
]


def test_admissible_matchings_of_genus_two():
    assert len(ADMISSIBLE_G2) == 21


@pytest.mark.parametrize(
    "pmc, k, variant", itertools.product(ADMISSIBLE_G2, range(3), ("full", "half"))
)
def test_algebra_suites_pass_on_every_admissible_matching(pmc, k, variant):
    table = AlgebraTable.build(pmc, k, variant)
    reports = [suite(table) for suite in (suite_d2, suite_leibniz, suite_assoc, suite_closure)]
    assert all(r["failures"] == [] for r in reports), reports
    # closure checks every generator's differential and every composable
    # pair's product, zero products included.
    pairs = sum(len(t) * len(s) for t, s in zip(table.by_target, table.by_source))
    assert reports[-1]["checked"] == len(table.gens) + pairs
