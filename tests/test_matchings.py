"""The suites over every admissible genus-2 matching, not only the
standard one and the two custom ones pinned elsewhere, and over a
fixed-stride sample of the admissible genus-3 matchings."""

from __future__ import annotations

import itertools

import pytest

from conftest import ADMISSIBLE_G2, matchings
from strandfloer import index
from strandfloer.circle import matching_from_pairs, validate_surface
from strandfloer.strands import AlgebraTable
from strandfloer.verify import (
    SUITE_NAMES,
    grid_spec,
    run_suites,
    suite_assoc,
    suite_closure,
    suite_d2,
    suite_dictionary_diff,
    suite_dictionary_prod,
    suite_euler,
    suite_leibniz,
    suite_rigidity,
)


# 1,485 of the 10,395 matchings of twelve points are admissible; every
# 50th of them, in the enumeration order of matchings, is sampled.
ADMISSIBLE_G3 = [
    pmc
    for pmc in (matching_from_pairs(3, m) for m in matchings(tuple(range(1, 13))))
    if validate_surface(pmc).valid
]
SAMPLE_G3 = ADMISSIBLE_G3[::50]


def test_admissible_matchings_of_genus_two():
    assert len(ADMISSIBLE_G2) == 21


def test_admissible_matchings_of_genus_three():
    assert len(ADMISSIBLE_G3) == 1485
    assert len(SAMPLE_G3) == 30


@pytest.mark.parametrize(
    "pmc, k, variant", itertools.product(ADMISSIBLE_G2, range(3), ("full", "half"))
)
def test_algebra_suites_pass_on_every_admissible_matching(pmc, k, variant):
    table = AlgebraTable.build(pmc, k, variant)
    reports = [suite(table) for suite in (suite_d2, suite_leibniz, suite_assoc, suite_closure)]
    # closure checks every generator's differential and every composable
    # pair's product, zero products included.
    pairs = sum(len(t) * len(s) for t, s in zip(table.by_target, table.by_source))
    assert reports[-1]["checked"] == len(table.gens) + pairs
    if k:  # the grid model of the matching starts at one strand
        edges = index._Edges(grid_spec(pmc, variant), k)
        reports += [
            suite_dictionary_diff(table),
            suite_dictionary_prod(table, edges),
            suite_euler(edges),
            suite_rigidity(edges),
        ]
        assert reports[-3]["checked"] == pairs
    assert all(r["failures"] == [] for r in reports), reports


@pytest.mark.parametrize(
    "pmc, variant", itertools.product(SAMPLE_G3, ("full", "half"))
)
def test_every_suite_passes_on_sampled_genus_three_matchings(pmc, variant):
    report = run_suites(pmc, 1, variant)
    assert report["skipped"] == []
    assert [r["name"] for r in report["suites"]] == list(SUITE_NAMES)
    assert report["ok"], report
