"""The suite driver: names, k = 0, sampling, negative controls.
Seeded defects that run every suite live in test_mutations.py."""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_right

import pytest

from conftest import (
    assoc_walk,
    build_table,
    check_directed,
    check_exceptional,
    graph_suite_counts,
    intersection_pattern,
    product_pairs,
    set_products,
    verify_module_axioms,
)
from strandfloer import grid, homalg, index, strands, verify
from strandfloer.circle import matching_from_pairs, standard_matching
from strandfloer.strands import AlgebraTable, ClosureError
from strandfloer.verify import (
    SUITE_NAMES,
    run_suites,
    suite_assoc,
    suite_closure,
    suite_dictionary_prod,
    suite_euler,
    suite_leibniz,
    suite_regression,
    suite_rigidity,
    suite_yoneda,
)

NONSTANDARD_G2 = ((1, 3), (2, 4), (5, 7), (6, 8))


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "regression",
        "d2",
        "leibniz",
        "assoc",
        "closure",
        "dictionary-diff",
        "dictionary-prod",
        "euler",
        "rigidity",
        "yoneda",
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(standard_matching(1), 1, "full", suites=["regression", "nope"])


def test_regression_suite_standalone():
    report = suite_regression()
    assert report["checked"] == 1
    assert report["failures"] == []


def test_full_run_genus_one():
    report = run_suites(standard_matching(1), 1, "full")
    assert report["ok"]
    assert report["skipped"] == []
    assert [r["name"] for r in report["suites"]] == list(SUITE_NAMES)
    assert all(r["failures"] == [] for r in report["suites"])


def test_empty_selection_is_vacuous():
    report = run_suites(standard_matching(1), 1, "full", suites=[])
    assert report["ok"]
    assert report["suites"] == []


def test_custom_matching_runs_grid_suites():
    pmc = matching_from_pairs(2, NONSTANDARD_G2)
    report = run_suites(pmc, 2, "full")
    assert report["skipped"] == []
    assert [r["name"] for r in report["suites"]] == list(SUITE_NAMES)
    assert all(r["checked"] > 0 for r in report["suites"])
    assert report["ok"]


# Every suite's count at k = 0: one generator on each side, the empty
# tuple (the idempotent of the empty set), whose one product e * e = e is
# a gluing-graph edge with equal factors, so rigidity sees it twice.
K_ZERO_CHECKED = {
    "regression": 1,
    "d2": 1,
    "leibniz": 1,
    "assoc": 1,
    "closure": 2,
    "dictionary-diff": 1,
    "dictionary-prod": 1,
    "euler": 1,
    "rigidity": 2,
    "yoneda": 1,
}


def test_k_zero_runs_every_suite():
    g2_custom = matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6)))
    for pmc in (standard_matching(1), standard_matching(2), standard_matching(3), g2_custom):
        for variant in ("full", "half"):
            report = run_suites(pmc, 0, variant)
            assert report["skipped"] == []
            assert report["ok"]
            assert {r["name"]: r["checked"] for r in report["suites"]} == K_ZERO_CHECKED


@pytest.mark.parametrize("variant", ["full", "half"])
@pytest.mark.parametrize(
    "pmc, ks",
    [
        (standard_matching(1), range(3)),
        (standard_matching(2), range(5)),
        (matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), range(5)),
    ],
    ids=["standard-g1", "standard-g2", "custom-g2"],
)
def test_euler_and_rigidity_check_what_the_algebra_predicts(pmc, ks, variant):
    # The grid suites count domains the gluing graph gives them; the table
    # says how many there should be.
    for k in ks:
        table = AlgebraTable.build(pmc, k, variant)
        edges = index._Edges(verify.grid_spec(pmc, variant), k)
        checked = suite_euler(edges)["checked"], suite_rigidity(edges)["checked"]
        assert checked == graph_suite_counts(table), (k, checked)


def test_sampling_is_seed_deterministic():
    tab = build_table(2, 2, "full")
    a = suite_leibniz(tab, sample=500, seed=9)
    b = suite_leibniz(tab, sample=500, seed=9)
    assert a == b
    assert a["checked"] == 500
    c = suite_assoc(tab, sample=300, seed=4)
    assert c["checked"] == 300
    assert c["failures"] == []


def _every_tenth_product_deleted():
    """The g=2 k=2 full table with its 0th, 10th, 20th, ... product entry,
    in key order, deleted."""
    tab = copy.copy(build_table(2, 2, "full"))
    entries = sorted(product_pairs(tab).items())
    set_products(tab, {ij: m for n, (ij, m) in enumerate(entries) if n % 10})
    return tab


def _gen(chords, dotted=()):
    return {"chords": [list(c) for c in chords], "dotted": list(dotted)}


# A passing sampled report cannot show which pairs were drawn; a failing
# one can, so these pin the draw of seed 7: its failure counts and first
# five examples.
SAMPLED_PINS = {
    "leibniz": (5000, 103, [
        {"left": _gen([(1, 5)], [4]), "right": _gen([(4, 5), (5, 7)])},
        {"left": _gen([(2, 3), (3, 4)]), "right": _gen([(3, 7), (4, 5)])},
        {"left": _gen([(2, 4), (3, 5)]), "right": _gen([(4, 7)], [1])},
        {"left": _gen([], [3, 4]), "right": _gen([(3, 8), (4, 5)])},
        {"left": _gen([(1, 5)], [3]), "right": _gen([(3, 4)], [1])},
    ]),
    "assoc": (5000, 38, [
        {"a": _gen([(1, 4), (6, 7)]), "b": _gen([], [3, 4]), "c": _gen([(4, 5), (7, 8)])},
        {"a": _gen([(1, 3), (4, 6)]), "b": _gen([(3, 8)], [2]), "c": _gen([(6, 7)], [4])},
        {"a": _gen([], [2, 4]), "b": _gen([(2, 6), (4, 7)]), "c": _gen([(6, 7), (7, 8)])},
        {"a": _gen([(1, 3), (2, 5)]), "b": _gen([(5, 8)], [3]), "c": _gen([(3, 7)], [4])},
        {"a": _gen([(4, 7)], [1]), "b": _gen([(1, 5)], [3]), "c": _gen([(5, 6)], [3])},
    ]),
    "closure": (5274, 106, [
        {"left": _gen([(1, 4), (6, 7)]), "right": _gen([], [3, 4])},
        {"left": _gen([(1, 2), (2, 8)]), "right": _gen([(2, 6)], [4])},
        {"left": _gen([(2, 3), (3, 4)]), "right": _gen([(3, 7), (4, 5)])},
        {"left": _gen([(5, 6), (7, 8)]), "right": _gen([(6, 7)], [4])},
        {"left": _gen([(2, 3), (3, 8)]), "right": _gen([(3, 6)], [4])},
    ]),
}


@pytest.mark.parametrize("suite", [suite_leibniz, suite_assoc, suite_closure])
def test_sampled_draw_is_pinned_by_a_failing_table(suite):
    report = suite(_every_tenth_product_deleted(), sample=5000, seed=7)
    checked, failed, examples = SAMPLED_PINS[report["name"]]
    assert report == {
        "name": report["name"], "checked": checked, "failures": examples, "failed": failed
    }


def test_half_algebra_is_exceptional_and_directed():
    for g, k in ((1, 1), (2, 2)):
        tab = build_table(g, k, "half")
        assert check_exceptional(tab)["failures"] == []
        assert check_directed(tab)["failures"] == []


def test_full_algebra_fails_both_as_a_negative_control():
    tab = build_table(1, 1, "full")
    assert check_exceptional(tab)["failures"]  # hom(s,s) is 2-dimensional
    assert check_directed(tab)["failures"]  # morphisms run both ways


def check_module_axioms(table) -> dict:
    failures = []
    for s in table.idem_list:
        errs = verify_module_axioms(homalg.projective_module(table, s))
        if errs:
            failures.append({"s": list(s), "errors": errs[:3]})
    return {"name": "module-axioms", "checked": len(table.idem_list), "failures": failures}


def check_patterns(g: int) -> dict:
    """Intersection counts against the closed-form tables."""
    failures = []
    checked = 0
    pmc = standard_matching(g)
    wrapped = grid.make_spec(pmc, "wrapped")
    half = grid.make_spec(pmc, "half")
    for i in range(1, 2 * g + 1):
        for j in range(1, 2 * g + 1):
            checked += 2
            expect_w = 3 if i < j else (2 if i == j else 1)
            expect_h = 2 if i < j else (1 if i == j else 0)
            if intersection_pattern(wrapped, i, j) != expect_w:
                failures.append({"mode": "wrapped", "i": i, "j": j})
            if intersection_pattern(half, i, j) != expect_h:
                failures.append({"mode": "half", "i": i, "j": j})
    return {"name": "patterns", "checked": checked, "failures": failures}


def test_module_axiom_check_over_all_idempotents():
    report = check_module_axioms(build_table(2, 2, "full"))
    assert report["checked"] == 6
    assert report["failures"] == []


def test_pattern_check():
    for g in (1, 2, 4):
        report = check_patterns(g)
        assert report["failures"] == []
        assert report["checked"] == 2 * (2 * g) ** 2


def _leibniz_failures(table) -> int:
    """Composable pairs where d(ab) != (da)b + a(db), by walking them all."""
    bad = 0
    for u in range(len(table.idem_list)):
        for i in table.by_target[u]:
            for j in table.by_source[u]:
                terms = []
                row = table.prod[i]
                m = row.get(j)
                if m is not None:
                    terms += table.diff[m]
                terms += [table.prod[x][j] for x in table.diff[i] if j in table.prod[x]]
                terms += [row[y] for y in table.diff[j] if y in row]
                bad += any(terms.count(t) % 2 for t in terms)
    return bad


def test_leibniz_counts_every_failure_of_a_flipped_product():
    tab = copy.copy(build_table(2, 2, "full"))
    pairs = product_pairs(tab)
    hit = {x for row in tab.diff for x in row}
    del pairs[min(ij for ij in pairs if ij[0] in hit and ij[1] in hit)]
    set_products(tab, pairs)
    pairs = sum(len(t) * len(s) for t, s in zip(tab.by_target, tab.by_source))
    report = suite_leibniz(tab)
    assert report["checked"] == pairs
    assert report["failed"] == _leibniz_failures(tab) > 1
    assert len(report["failures"]) == report["failed"]


def test_assoc_counts_every_failure_of_a_flipped_product():
    tab = copy.copy(build_table(2, 2, "full"))
    a = next(i for i in range(len(tab.gens)) if tab.src[i] != tab.tgt[i])
    e = tab.idem_gen[tab.src[a]]
    set_products(tab, {**product_pairs(tab), (e, a): e})
    checked, bad, _ = assoc_walk(tab)
    report = suite_assoc(tab)
    assert report["checked"] == checked == 449338
    assert report["failed"] == len(bad) == 48
    # The first examples in (i, j, l) order.
    assert report["failures"] == [
        {"a": verify._gen_json(tab.gens[i]), "b": verify._gen_json(tab.gens[j]),
         "c": verify._gen_json(tab.gens[l])}
        for i, j, l in bad[: verify.MAX_EXAMPLES]
    ]


def test_failing_suite_keeps_five_examples_and_counts_all(monkeypatch):
    # With the grid product always zero, every nonzero algebra product fails.
    tab = build_table(1, 1, "full")
    monkeypatch.setattr(index, "count_triangles", lambda spec, tris: None)
    edges = index._Edges(verify.grid_spec(standard_matching(1), "full"), 1)
    report = suite_dictionary_prod(tab, edges)
    assert report["checked"] == sum(len(t) * len(s) for t, s in zip(tab.by_target, tab.by_source))
    assert report["failed"] == sum(map(len, tab.prod)) > 5
    assert len(report["failures"]) == 5


def _with_edge(edges, x, y, z):
    """The graph's arrays with the edge (x, y) -> z added at the end of
    row x, copied so that the graph they were read from is unchanged;
    the new edge reuses the first edge's triangles."""
    p, k = edges.start[x + 1], edges.k
    edges.right = edges.right[:p] + array("i", [y]) + edges.right[p:]
    edges.prod = edges.prod[:p] + array("i", [z]) + edges.prod[p:]
    edges.tri_ids = edges.tri_ids[: k * p] + edges.tri_ids[:k] + edges.tri_ids[k * p :]
    edges.start = edges.start[: x + 1] + array("i", [s + 1 for s in edges.start[x + 1 :]])


def _drop_edge(tab, edges):
    # Edge 0 leaves the first nonempty row; every later row starts one
    # edge earlier.
    edges.right, edges.prod = edges.right[1:], edges.prod[1:]
    edges.tri_ids = edges.tri_ids[edges.k :]
    edges.start = array("i", [max(s - 1, 0) for s in edges.start])
    return tab, edges


def _flip_product(tab, edges):
    tab = copy.copy(tab)
    a = next(i for i in range(len(tab.gens)) if tab.src[i] != tab.tgt[i])
    e = tab.idem_gen[tab.src[a]]
    set_products(tab, {**product_pairs(tab), (e, a): e})
    return tab, edges


def _uncomposable(edges):
    """The first grid generator whose target labels differ from its
    source labels: no composable algebra pair reaches the edge (x, x)."""
    spec = edges.spec
    return next(
        x for x, gen in enumerate(edges.gens)
        if grid.source_labels(spec, gen) != grid.target_labels(spec, gen)
    )


def _add_edge_the_algebra_does_not_compose(tab, edges):
    x = _uncomposable(edges)
    _with_edge(edges, x, x, x)
    return tab, edges


def _add_edge_on_a_zero_pair(tab, edges):
    # The first composable algebra pair with no product gets an edge
    # between the grid generators that place to its factors.
    spec = edges.spec
    grid_of = {verify._placed(tab, spec, x): n for n, x in enumerate(edges.gens)}
    i, j = next(
        (i, j)
        for u in range(len(tab.idem_list))
        for i in tab.by_target[u]
        for j in tab.by_source[u]
        if j not in tab.prod[i]
    )
    x, y = grid_of[i], grid_of[j]
    _with_edge(edges, x, y, x)
    return tab, edges


def _send_an_edge_to_an_unplaceable_tuple(tab, edges):
    # The first edge's product becomes the empty grid tuple, which places
    # to no generator of a k = 2 table: it fails once as a grid generator
    # and once as the product of the edge.  Its row is empty.
    edges.gens = edges.gens + [()]
    edges.start = edges.start + array("i", [edges.start[-1]])
    edges.prod = array("i", [len(edges.gens) - 1]) + edges.prod[1:]
    return tab, edges


# Each defect, its failure count and the keys of its examples in order.
_PAIR, _EDGE, _GRID = ["left", "right"], ["grid_left", "grid_right"], ["grid"]
_PROD_DEFECTS = [
    (_drop_edge, 1, [_PAIR]),
    (_flip_product, 1, [_PAIR]),
    (_add_edge_the_algebra_does_not_compose, 1, [_EDGE]),
    (_add_edge_on_a_zero_pair, 1, [_PAIR]),
    (_send_an_edge_to_an_unplaceable_tuple, 2, [_GRID, _PAIR]),
]


@pytest.mark.parametrize(
    "mutant, failed, kinds", _PROD_DEFECTS, ids=[mutant.__name__ for mutant, *_ in _PROD_DEFECTS]
)
def test_dictionary_prod_counts_each_seeded_defect_once(mutant, failed, kinds):
    tab = build_table(2, 2, "full")
    pairs = sum(len(t) * len(s) for t, s in zip(tab.by_target, tab.by_source))
    edges = index._Edges(verify.grid_spec(standard_matching(2), "full"), 2)
    assert suite_dictionary_prod(tab, edges) == {
        "name": "dictionary-prod", "checked": pairs, "failures": []
    }
    report = suite_dictionary_prod(*mutant(tab, copy.copy(edges)))
    assert report["checked"] == pairs
    assert report["failed"] == failed
    assert [sorted(f) for f in report["failures"]] == kinds


def _zero_pairs(tab):
    """The composable pairs with no product, in the order of a walk over
    every composable pair."""
    return [
        (i, j)
        for u in range(len(tab.idem_list))
        for i in tab.by_target[u]
        for j in tab.by_source[u]
        if j not in tab.prod[i]
    ]


def test_dictionary_prod_lists_its_examples_by_kind_then_in_order():
    # Four kinds of defect seeded together: an unplaceable grid generator,
    # an edge no composable pair reaches, an edge whose product cannot be
    # placed, and two edges on zero pairs, added in the reverse of their
    # (i, j) order, so that they are listed in edge order.
    tab = build_table(2, 2, "full")
    edges = copy.copy(index._Edges(verify.grid_spec(standard_matching(2), "full"), 2))
    spec = edges.spec
    grid_of = {verify._placed(tab, spec, x): n for n, x in enumerate(edges.gens)}
    first, second = _zero_pairs(tab)[:2]
    for i, j in (second, first):
        _with_edge(edges, grid_of[i], grid_of[j], grid_of[i])
    _add_edge_the_algebra_does_not_compose(tab, edges)
    x = _uncomposable(edges)
    x0 = bisect_right(edges.start, 0) - 1  # the row of edge 0
    i0, j0 = (verify._placed(tab, spec, edges.gens[n]) for n in (x0, edges.right[0]))
    _send_an_edge_to_an_unplaceable_tuple(tab, edges)
    report = suite_dictionary_prod(tab, edges)
    points = verify._points_json(edges.gens[x])
    assert report["failed"] == 5
    assert report["failures"] == [
        {"grid": []},
        {"grid_left": points, "grid_right": points},
        verify._pair_json(tab, i0, j0),
        verify._pair_json(tab, *second),
        verify._pair_json(tab, *first),
    ]


def _closure_flip_product(tab):
    # e_s a = a becomes e_s.
    a = next(i for i in range(len(tab.gens)) if tab.src[i] != tab.tgt[i])
    e = tab.idem_gen[tab.src[a]]
    set_products(tab, {**product_pairs(tab), (e, a): e})


def _closure_delete_product(tab):
    pairs = product_pairs(tab)
    del pairs[min(pairs)]
    set_products(tab, pairs)


def _closure_product_on_a_zero_pair(tab):
    i, j = next(
        (i, j)
        for u in range(len(tab.idem_list))
        for i in tab.by_target[u]
        for j in tab.by_source[u]
        if j not in tab.prod[i]
    )
    set_products(tab, {**product_pairs(tab), (i, j): i})


def _closure_drop_diff_term(tab):
    i = next(i for i, row in enumerate(tab.diff) if row)
    tab.diff = tab.diff[:i] + (tab.diff[i][1:],) + tab.diff[i + 1 :]


@pytest.mark.parametrize(
    "mutant",
    [
        _closure_flip_product,
        _closure_delete_product,
        _closure_product_on_a_zero_pair,
        _closure_drop_diff_term,
    ],
)
def test_closure_counts_each_seeded_table_defect_once(mutant):
    tab = copy.copy(build_table(2, 2, "full"))
    pairs = sum(len(t) * len(s) for t, s in zip(tab.by_target, tab.by_source))
    assert suite_closure(tab) == {
        "name": "closure", "checked": len(tab.gens) + pairs, "failures": []
    }
    mutant(tab)
    report = suite_closure(tab)
    assert report["checked"] == len(tab.gens) + pairs
    assert report["failed"] == 1


def test_closure_reports_a_closure_error_with_its_text(monkeypatch):
    tab = build_table(2, 2, "full")
    real = verify.compose
    calls = []

    def fails_once(pmc, left, right):
        calls.append(None)
        if len(calls) == 100:
            raise ClosureError("seeded partial family")
        return real(pmc, left, right)

    monkeypatch.setattr(verify, "compose", fails_once)
    report = suite_closure(tab)
    assert report["failed"] == 1
    (failure,) = report["failures"]
    assert failure["error"] == "seeded partial family"
    assert set(failure) == {"left", "right", "error"}


@pytest.mark.parametrize("g, k, failed", [(1, 1, 1), (2, 1, 4), (2, 2, 5)])
def test_yoneda_counts_the_pairs_a_dropped_product_breaks(g, k, failed):
    tab = copy.copy(build_table(g, k, "full"))
    pairs = product_pairs(tab)
    idem = set(tab.idem_gen)
    del pairs[min(ij for ij in pairs if not idem & set(ij))]
    set_products(tab, pairs)
    report = suite_yoneda(tab)
    assert report["checked"] == len(tab.idem_list) ** 2
    assert report["failed"] == failed
    if (g, k) == (2, 2):
        # Some morphism complex cannot be formed: a failure, not a crash.
        errors = [f["error"] for f in report["failures"] if "error" in f]
        assert errors and set(errors) == {"differential leaves the morphism space"}


def test_run_suites_builds_the_gluing_graph_once(monkeypatch):
    built = []
    real = index._Edges

    def counted(spec, k):
        built.append(k)
        return real(spec, k)

    monkeypatch.setattr(index, "_Edges", counted)
    report = run_suites(
        standard_matching(1), 1, "full", suites=["dictionary-prod", "euler", "rigidity"]
    )
    assert report["ok"]
    assert all(r["checked"] > 0 for r in report["suites"])
    assert built == [1]


# Every table at g <= 2: k = 0..2g, both variants.
SMALL_TABLES = [(g, k, v) for g in (1, 2) for k in range(2 * g + 1) for v in ("full", "half")]


def _walk(table):
    """Every composable pair, in the order of a walk over all of them."""
    return [(i, j) for u, left in enumerate(table.by_target) for i in left for j in table.by_source[u]]


@pytest.mark.parametrize("g, k, variant", SMALL_TABLES)
def test_closure_visits_the_meeting_pairs_and_the_table_entries(monkeypatch, g, k, variant):
    # Brute force: a pair meets when some section of the left factor ends
    # where some section of the right factor starts.
    table = build_table(g, k, variant)
    records = [strands.sections(table.pmc, gen) for gen in table.gens]
    ends = [{ends for _, ends, _, _, _ in r.sections} for r in records]
    starts = [{starts for _, _, starts, _, _ in r.sections} for r in records]
    want = [(i, j) for i, j in _walk(table) if ends[i] & starts[j] or j in table.prod[i]]
    owner = {}
    visited = []

    def recorded_sections(pmc, gen):
        out = strands.sections(pmc, gen)
        owner[id(out)] = table.index[gen]
        return out

    def recorded_compose(pmc, left, right):
        visited.append((owner[id(left)], owner[id(right)]))
        return strands.compose(pmc, left, right)

    monkeypatch.setattr(verify, "sections", recorded_sections)
    monkeypatch.setattr(verify, "compose", recorded_compose)
    report = suite_closure(table)
    assert report == {
        "name": "closure", "checked": len(table.gens) + table.composable_pairs, "failures": []
    }
    assert visited == want


@pytest.mark.parametrize("g, k, variant", SMALL_TABLES)
def test_leibniz_visits_every_pair_with_a_nonzero_term(g, k, variant):
    table = build_table(g, k, variant)
    prod, diff = table.prod, table.diff

    def nonzero(i, j):
        m = prod[i].get(j)
        return (
            (m is not None and diff[m] != ())
            or any(j in prod[x] for x in diff[i])
            or any(y in prod[i] for y in diff[j])
        )

    walk = _walk(table)
    visited = list(verify._leibniz_pairs(table))
    seen = set(visited)
    # In walk order, each pair once.
    assert visited == [pair for pair in walk if pair in seen]
    assert {pair for pair in walk if nonzero(*pair)} <= seen


def _mor_outcome(M, N):
    """The dim and homology rank of Mor(M, N), or the text of its error."""
    try:
        mc = homalg.mor_complex(M, N)
    except ValueError as err:
        return str(err)
    return mc.dim, mc.homology_rank()


def _check_yoneda_modules(tab):
    """The modules yoneda keeps hold the actions of the union of the
    explicit sets only, and solve every Mor as the full projectives do.
    Returns the kept modules and the full ones."""
    kept = verify._yoneda_modules(tab)
    full = [homalg.projective_module(tab, s) for s in tab.idem_list]
    union = frozenset().union(*(M.explicit for M in full))
    for M, M0 in zip(kept, full):
        assert M.explicit == M0.explicit
        assert M.actions.keys() <= union
        assert M.actions == {a: rows for a, rows in M0.actions.items() if a in union}
    for M, M0 in zip(kept, full):
        for N, N0 in zip(kept, full):
            assert _mor_outcome(M, N) == _mor_outcome(M0, N0)
    return kept, full


@pytest.mark.parametrize("g, k, variant", SMALL_TABLES)
def test_yoneda_keeps_only_the_actions_mor_complex_reads(g, k, variant):
    _check_yoneda_modules(build_table(g, k, variant))


def test_yoneda_reads_back_the_actions_another_module_needs():
    # Dropping e_s c = c breaks c = a.b on e_s A alone: c joins that
    # module's explicit set only, so another module on which c acts, and
    # which cut c's action with its own explicit set, reads it back.
    tab = copy.copy(build_table(2, 2, "full"))
    factor = homalg._factorizations(tab)
    factors = {f for ab in factor.values() for f in ab}
    pairs = product_pairs(tab)
    c = min(c for (y, c) in pairs if c in factor and c not in factors and tab.src[y] != tab.src[c])
    e = tab.idem_gen[tab.src[c]]
    set_products(tab, {ab: m for ab, m in pairs.items() if ab != (e, c)})
    kept, full = _check_yoneda_modules(tab)
    holders = [M for M in full if c in M.explicit]
    readers = [M for M, M0 in zip(kept, full) if c not in M0.explicit and c in M.actions]
    assert len(holders) == 1 and readers
