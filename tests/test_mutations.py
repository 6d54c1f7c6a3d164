"""Seeded defects in the section route, the product table, the
differential, the associativity scan, the grid and the morphism-complex
solver: each mutant is a copy of one function with one check taken out
or one rule changed (written out, or for the dotted-label builder mutant
compiled from the function's own source with one expression replaced),
or a table edited after its build, monkeypatched where its callers look
it up, and the suites that should see it must fail by a pinned count.

The section-route counts are at g=2, k=3, full, the other counts at
g=2, k=2, full, all on the standard matching except the wrong label
map, whose table has another matching.  The mutants from k=2 on run
every suite, and their pins name the suites that cannot see them with
0; the dropped factorization and the recognizer that accepts partial
families are equivalent mutants, pinned as such.  ``rigidity`` fails 0
checks on every grid mutant: its chain test holds for any count of
crossings (ROADMAP item 2).
"""

from __future__ import annotations

import inspect
import itertools
import textwrap

import pytest

from conftest import (
    block_rows,
    graph_suite_counts,
    opposite_mismatches,
    product_pairs,
    reflected,
)
from strandfloer import _kernels, grid, homalg, index, strands, verify
from strandfloer.circle import matching_from_pairs, standard_matching

_overlap_class = grid.overlap_class
_build = strands.AlgebraTable.build.__func__
_linearity_blocks = homalg._linearity_blocks
_factorizations = homalg._factorizations
_assoc_scan = _kernels.assoc_scan
_packed_crossings = strands._packed_crossings
PASSING = dict.fromkeys(verify.SUITE_NAMES, 0)


def _resolve_every_crossing(diagram):
    """``differential_unmatched`` without the ``== base - 1`` filter: a
    resolution that also undoes a third strand's crossings is kept."""
    terms = set()
    for i, j in itertools.combinations(range(len(diagram)), 2):
        (a1, b1), (a2, b2) = diagram[i], diagram[j]
        if (a1 - a2) * (b1 - b2) < 0:
            resolved = list(diagram)
            resolved[i] = (a1, b2)
            resolved[j] = (a2, b1)
            terms ^= {tuple(sorted(resolved))}
    return frozenset(terms)


def _compose_every_concatenation(pmc, left, right):
    """``compose`` without the inversions-add test: every section pair
    whose ends meet starts survives, double crossings included."""
    if left.target != right.source:
        return frozenset()
    acc = set()
    for strands1, ends, _, _, _ in left.sections:
        for _, _, starts, _, follow in right.sections:
            if ends == starts:
                acc ^= {tuple(sorted((a, follow[b]) for a, b in strands1))}
    return strands.recognize(pmc, acc) if acc else frozenset()


def _count_every_triangle_tuple(spec, tris):
    """``count_triangles`` without the forbidden-overlap filter: a tuple
    with a forbidden pair still counts."""
    if tris is None:
        return None
    return tuple(sorted(grid.canonical_point(spec, t.c, t.r) for t in tris))


def _overlap_class_swapped(spec, t1, t2):
    """``overlap_class`` with the forbidden and head_to_tail classes
    exchanged."""
    cls = _overlap_class(spec, t1, t2)
    return {"forbidden": "head_to_tail", "head_to_tail": "forbidden"}.get(cls, cls)


def _built_then(edit):
    """``AlgebraTable.build`` followed by ``edit`` on the new table, as a
    classmethod to patch in."""

    def build(cls, pmc, k, variant="full"):
        table = _build(cls, pmc, k, variant)
        edit(table)
        return table

    return classmethod(build)


def _drop_a_product(table):
    """One ``prod`` entry deleted: the first pair, in index order, of two
    non-idempotent generators."""
    idem = set(table.idem_gen)
    i, j = min(p for p in product_pairs(table) if not idem.intersection(p))
    del table.prod[i][j]


def _flip_a_product(table):
    """e_s.a = a becomes e_s, for the first generator a whose source and
    target idempotents differ."""
    a = next(i for i in range(len(table.gens)) if table.src[i] != table.tgt[i])
    e = table.idem_gen[table.src[a]]
    table.prod[e][a] = e


def _set_differential(table, i, row):
    table.diff = table.diff[:i] + (tuple(sorted(row)),) + table.diff[i + 1 :]


def _flip_a_differential_entry(table):
    """The entry (i, j) of the differential turned on: i the first
    generator with a nonzero differential, j the next generator after its
    terms with the same idempotents and a zero differential, so that d^2
    stays zero and the projective modules can still be formed."""
    i = next(i for i, row in enumerate(table.diff) if row)
    j = next(
        j
        for j in range(table.diff[i][-1] + 1, len(table.gens))
        if (table.src[j], table.tgt[j]) == (table.src[i], table.tgt[i]) and not table.diff[j]
    )
    _set_differential(table, i, table.diff[i] + (j,))


def _drop_a_differential_term(table):
    """The first nonzero differential loses its first term."""
    i = next(i for i, row in enumerate(table.diff) if row)
    _set_differential(table, i, table.diff[i][1:])


def _differential_not_squaring_to_zero(table):
    """The first term of the first nonzero differential replaced by the
    generator itself (at g=2 k=2 full, d(2) = 1 becomes d(2) = 2), so
    that d^2 of it is d of it, not zero."""
    i = next(i for i, row in enumerate(table.diff) if row)
    _set_differential(table, i, (i,) + table.diff[i][1:])


def _recognize_partial_families(pmc, total):
    """``recognize`` without its count of sections: a candidate generator
    is accepted with any nonempty set of its sections present."""
    labels = pmc.labels
    groups = {}
    for diagram in total:
        chords = []
        dotted = []
        for a, b in diagram:
            if a == b:
                dotted.append(labels[a - 1])
            else:
                chords.append((a, b))
        dotted.sort()
        for p, q in zip(dotted, dotted[1:]):
            if p == q:
                raise strands.ClosureError(
                    f"diagram {diagram} occupies both positions of pair {p}"
                )
        cand = strands.MatchedGenerator(chords=tuple(sorted(chords)), dotted=tuple(dotted))
        groups.setdefault(cand, set()).add(diagram)
    return frozenset(groups)


def _packed_crossings_crossed_at_one_choice(pmc, u, middle, outer):
    """``_packed_crossings`` with every label pair also marked crossed at
    one consistent middle choice of the factor, the one that puts each
    dotted label at the lower position of its pair."""
    width = len(u) * (len(u) - 1) // 2
    c = 0
    for p, m in zip(u, middle):
        c = 2 * c + (pmc.positions_of(p).index(m) if m else 0)
    return _packed_crossings(pmc, u, middle, outer) | ((1 << width) - 1) << (c * width)


def _assoc_scan_skipping_a_row(prod, cols, src, tgt):
    """``assoc_scan`` blind to one row where its first pass reads the row
    of a product: that of the smallest generator p with a nonempty row
    that is not an idempotent, p.p != p."""
    skip = min(p for p, row in enumerate(prod) if row and row.get(p) != p)
    blind = "row = {} if p == skip else prod[p]"
    return _rewritten(_assoc_scan, "row = prod[p]", blind, skip=skip)(prod, cols, src, tgt)


def _points_for_labels_off_by_one(spec, i, j):
    """``points_for_labels`` testing the cell one row up, (a, b - 1), in
    place of (a, b): in the wrapped grid no branch point (a, a) is left."""
    out = set()
    for a in spec.pmc.positions_of(i):
        for b in spec.pmc.positions_of(j):
            if spec.allowed(a, b - 1):
                out.add(grid.canonical_point(spec, a, b))
    return sorted(out)


def _column_key_without_wildcards(spec, y):
    """``index._column_key`` keying a branch point of a right factor by its
    column position, not 0: it meets only the rows at that avatar, so the
    gluing graph drops products."""
    return tuple(a for a, _ in sorted(y, key=lambda p: spec.label(p[0])))


def _linearity_blocks_dropping_every_97th(M, N, layout):
    """``_linearity_blocks`` without its 97th, 194th, ... row, counted in
    the order ``block_rows`` reads them; the rest go on as listed rows."""
    rows = block_rows(_linearity_blocks(M, N, layout))
    yield (), (), (), (), [row for n, row in enumerate(rows) if n % 97 != 96]


def _indecomposables_only(self):
    """``RightDGModule.explicit`` without its x.c = (x.a).b check: the
    indecomposable generators alone."""
    table = self.table
    factor = _factorizations(table)
    return frozenset(set(range(len(table.gens))) - set(table.idem_gen) - factor.keys())


def _factorizations_dropping_one(table):
    """``_factorizations`` without the factorization of its smallest c."""
    factor = dict(_factorizations(table))
    del factor[min(factor)]
    return factor


def _rewritten(func, old, new, **names):
    """A copy of func compiled from its own source with the one
    occurrence of old replaced by new, in its module's globals and any
    further names given."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), {**vars(inspect.getmodule(func)), **names}, namespace)
    return namespace[func.__name__]


def _failed(report) -> dict[str, int]:
    return {r["name"]: r.get("failed", 0) for r in report["suites"]}


def test_differential_without_double_crossing_filter_is_caught(monkeypatch):
    monkeypatch.setattr(strands, "differential_unmatched", _resolve_every_crossing)
    pmc = standard_matching(2)
    report = verify.run_suites(pmc, 3, "full", suites=["leibniz", "dictionary-diff", "yoneda"])
    assert _failed(report) == {"leibniz": 1066, "dictionary-diff": 50, "yoneda": 16}
    # At k = 2 the mutant is equivalent: a double crossing needs a third
    # strand, so no section has a resolution the filter would drop and
    # nothing can fail.
    mutant = strands.AlgebraTable.build(pmc, 2, "full").diff
    monkeypatch.undo()
    assert mutant == strands.AlgebraTable.build(pmc, 2, "full").diff


def test_compose_without_inversions_add_test_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "compose", _compose_every_concatenation)
    report = verify.run_suites(standard_matching(2), 3, "full", suites=["closure"])
    assert _failed(report) == {"closure": 2080}


def test_triangle_count_without_forbidden_filter_is_caught(monkeypatch):
    monkeypatch.setattr(index, "count_triangles", _count_every_triangle_tuple)
    report = verify.run_suites(standard_matching(2), 2, "full", suites=["dictionary-prod", "euler"])
    # euler fails on the same edges: a counted Domain recounts i from its
    # triangles and finds the forbidden pair the mutant let through.
    assert _failed(report) == {"dictionary-prod": 192, "euler": 192}


def test_overlap_class_with_swapped_classes_is_caught(monkeypatch):
    monkeypatch.setattr(grid, "overlap_class", _overlap_class_swapped)
    monkeypatch.setattr(index, "overlap_class", _overlap_class_swapped)
    report = verify.run_suites(standard_matching(2), 2, "full", suites=["dictionary-prod"])
    assert _failed(report) == {"dictionary-prod": 1226}


def test_deleted_product_entry_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_drop_a_product))
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING, "leibniz": 2, "assoc": 16, "closure": 1, "dictionary-prod": 1, "yoneda": 5
    }


def test_flipped_product_entry_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_flip_a_product))
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING, "leibniz": 1, "assoc": 48, "closure": 1, "dictionary-prod": 1, "yoneda": 4
    }


def test_flipped_differential_entry_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_flip_a_differential_entry))
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING, "leibniz": 10, "closure": 1, "dictionary-diff": 1, "yoneda": 3
    }


def test_deleted_differential_term_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_drop_a_differential_term))
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING, "leibniz": 22, "closure": 1, "dictionary-diff": 1, "yoneda": 3
    }


def test_differential_not_squaring_to_zero_is_caught(monkeypatch):
    monkeypatch.setattr(
        strands.AlgebraTable, "build", _built_then(_differential_not_squaring_to_zero)
    )
    report = verify.run_suites(standard_matching(2), 2, "full")
    # The projective holding the broken generator cannot be formed, and
    # yoneda counts the 11 of 36 pairs that need it, the rest still run.
    assert _failed(report) == {
        **PASSING, "d2": 1, "leibniz": 31, "closure": 1, "dictionary-diff": 1, "yoneda": 11
    }
    assert next(r for r in report["suites"] if r["name"] == "yoneda")["checked"] == 36


def test_recognize_accepting_partial_families_is_equivalent(monkeypatch):
    monkeypatch.setattr(strands, "recognize", _recognize_partial_families)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # Equivalent: on a correct table every sum that the differential and
    # the section route hand to recognize holds whole families, so the
    # check the mutant drops never fires.
    assert _failed(report) == PASSING


def test_assoc_scan_skipping_a_row_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_flip_a_product))
    monkeypatch.setattr(_kernels, "assoc_scan", _assoc_scan_skipping_a_row)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # One of the flipped product's 48 failing triples is reached only
    # through the skipped row; the other suites read no row view.
    assert _failed(report) == {
        **PASSING, "leibniz": 1, "assoc": 47, "closure": 1, "dictionary-prod": 1, "yoneda": 4
    }


@pytest.mark.parametrize("variant", ["full", "half"])
def test_standard_grid_on_a_custom_matching_is_caught(monkeypatch, variant):
    # The wrong label map: the grid of the standard matching against the
    # table of another matching.
    real = verify.grid_spec
    monkeypatch.setattr(
        verify, "grid_spec", lambda pmc, variant: real(standard_matching(pmc.g), variant)
    )
    pmc = matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6)))
    report = verify.run_suites(pmc, 2, variant)
    pins = {
        "full": {"dictionary-diff": 30, "dictionary-prod": 3012},
        "half": {"dictionary-diff": 6, "dictionary-prod": 334},
    }
    assert _failed(report) == {**PASSING, **pins[variant]}


def test_visit_rule_without_branch_wildcards_is_caught(monkeypatch):
    monkeypatch.setattr(index, "_column_key", _column_key_without_wildcards)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # euler and rigidity check the domains of whatever edges they are
    # given; only dictionary-prod compares the edges with the table.
    assert _failed(report) == {**PASSING, "dictionary-prod": 848}


def test_points_for_labels_off_by_one_is_caught(monkeypatch):
    monkeypatch.setattr(grid, "points_for_labels", _points_for_labels_off_by_one)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # Only dictionary-prod compares the grid's generator list with the
    # table.  dictionary-diff translates each algebra generator with
    # from_algebra and never lists the grid's; euler and rigidity check
    # the domains of whatever generators they are given.
    assert _failed(report) == {**PASSING, "dictionary-prod": 1874}
    # Against what the table predicts, euler and rigidity see it too.
    checked = {r["name"]: r["checked"] for r in report["suites"]}
    assert (checked["euler"], checked["rigidity"]) == (626, 1232)
    table = strands.AlgebraTable.build(standard_matching(2), 2, "full")
    assert graph_suite_counts(table) == (2544, 26906)


def test_dotted_left_label_meeting_its_lower_position_only_is_caught(monkeypatch):
    # In ``product_rows``' choices a dotted left label meets the lower
    # position of its pair only, not either position.
    mutant = _rewritten(
        strands.AlgebraTable.product_rows,
        "(0, *pmc.positions_of(p))",
        "(0, pmc.positions_of(p)[0])",
    )
    monkeypatch.setattr(strands.AlgebraTable, "product_rows", mutant)
    pmc = standard_matching(2)
    report = verify.run_suites(pmc, 2, "full")
    assert _failed(report) == {
        **PASSING,
        "leibniz": 97,
        "assoc": 2048,
        "closure": 231,
        "dictionary-prod": 231,
        "yoneda": 36,
    }
    # The mutant breaks A(-Z) = A(Z)^op, which needs no second route.
    mismatches = [
        opposite_mismatches(
            strands.AlgebraTable.build(pmc, k, "full"),
            strands.AlgebraTable.build(reflected(pmc), k, "full"),
        )
        for k in (1, 2, 3)
    ]
    assert mismatches == [12, 442, 2058]


def test_packed_crossings_crossed_at_one_choice_is_caught(monkeypatch):
    # A pair whose factors share the marked choice vanishes, at whatever
    # other middle choices it has: one AND reads every choice of a pair.
    monkeypatch.setattr(strands, "_packed_crossings", _packed_crossings_crossed_at_one_choice)
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING,
        "leibniz": 62,
        "assoc": 1464,
        "closure": 1568,
        "dictionary-prod": 1568,
        "yoneda": 35,
    }


def test_mor_complex_missing_linearity_rows_is_caught(monkeypatch):
    monkeypatch.setattr(homalg, "_linearity_blocks", _linearity_blocks_dropping_every_97th)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # Which rows go, and so the count, follows the order block_rows reads.
    assert _failed(report) == {**PASSING, "yoneda": 15}


def test_explicit_set_without_its_identity_check_blinds_yoneda(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", _built_then(_drop_a_product))
    monkeypatch.setattr(homalg.RightDGModule, "explicit", property(_indecomposables_only))
    report = verify.run_suites(standard_matching(2), 2, "full")
    # With the check, e_{1,2}A adds the 13 generators c whose identity
    # x.c = (x.a).b the deleted product breaks, and yoneda fails 5 pairs
    # (the deleted-product mutant above).  Without it their rows are
    # never written, and yoneda fails none.
    assert _failed(report) == {
        **PASSING, "leibniz": 2, "assoc": 16, "closure": 1, "dictionary-prod": 1, "yoneda": 0
    }


def test_dropped_factorization_is_equivalent(monkeypatch):
    monkeypatch.setattr(homalg, "_factorizations", _factorizations_dropping_one)
    pmc = standard_matching(2)
    table = strands.AlgebraTable.build(pmc, 2, "full")
    c = min(_factorizations(table))
    assert all(c in homalg.projective_module(table, s).explicit for s in table.idem_list)
    report = verify.run_suites(pmc, 2, "full")
    # Equivalent: c has no factorization left, so it counts as
    # indecomposable and every module writes its rows anyway.
    assert _failed(report) == PASSING
