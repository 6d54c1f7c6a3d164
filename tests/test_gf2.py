"""Boolean matrices: rank, rref, nullspace, multiplication.

The independent rank oracle enumerates the whole row span (all XOR
combinations of rows) and takes log2 of its size; feasible up to a
dozen rows, which is plenty to catch elimination bugs.
"""

from __future__ import annotations

import random

import pytest

from strandfloer import _kernels
from strandfloer.gf2 import BooleanMatrix


def _span_rank(rows: list[int]) -> int:
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def _random_rows(rng: random.Random, nrows: int, ncols: int) -> list[int]:
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def test_eliminate_reduces_int_rows_in_place():
    rng = random.Random(5)
    for _ in range(60):
        nrows = rng.randrange(1, 11)
        ncols = rng.randrange(1, 14)
        rows = _random_rows(rng, nrows, ncols)
        reduced = list(rows)
        rank, pivots = _kernels.gf2_eliminate(reduced, ncols)
        assert rank == len(pivots)
        for r, p in enumerate(pivots):
            assert (reduced[r] & -reduced[r]).bit_length() - 1 == p
            assert [i for i, row in enumerate(reduced) if (row >> p) & 1] == [r]
        assert reduced[rank:] == [0] * (nrows - rank)
        assert _span_rank(reduced) == _span_rank(rows) == _span_rank(rows + reduced)


def test_identity_and_zero():
    eye = BooleanMatrix(5, 5, [1 << i for i in range(5)])
    assert eye.rank() == 5
    assert eye.nullspace() == []
    z = BooleanMatrix(3, 4, [0] * 3)
    assert z.rank() == 0
    assert len(z.nullspace()) == 4


def test_bad_rows_rejected():
    with pytest.raises(ValueError):
        BooleanMatrix(2, 3, [0b111])
    with pytest.raises(ValueError):
        BooleanMatrix(1, 3, [0b1000])


def test_rank_matches_span_oracle():
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randrange(1, 11)
        ncols = rng.randrange(1, 13)
        rows = _random_rows(rng, nrows, ncols)
        m = BooleanMatrix(nrows, ncols, rows)
        assert m.rank() == _span_rank(rows)


def test_rref_pivots_are_consistent():
    rng = random.Random(11)
    for _ in range(20):
        rows = _random_rows(rng, 8, 10)
        m = BooleanMatrix(8, 10, rows)
        rank, pivots = m.rref()
        assert rank == len(pivots)
        assert pivots == sorted(pivots)
        assert rank == m.rank()


def test_nullspace_contract():
    # One vector per free column, in ascending free-column order; vector j
    # has bit free_cols[j] set, possibly pivot-column bits, nothing else.
    rng = random.Random(3)
    for _ in range(30):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 12)
        rows = _random_rows(rng, nrows, ncols)
        m = BooleanMatrix(nrows, ncols, rows)
        rank, pivots = m.rref()
        free = [c for c in range(ncols) if c not in set(pivots)]
        basis = m.nullspace()
        assert len(basis) == ncols - rank == len(free)
        pivot_mask = sum(1 << p for p in pivots)
        for j, v in enumerate(basis):
            for row in rows:
                assert bin(row & v).count("1") % 2 == 0
            for i, fc in enumerate(free):
                assert (v >> fc) & 1 == (1 if i == j else 0)
            assert v & ~(pivot_mask | (1 << free[j])) == 0
            assert v.bit_length() - 1 == free[j]


def _per_bit_product(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """A @ B the long way, one column of each row of A at a time."""
    out = []
    for row in a_rows:
        acc = 0
        for j in range(row.bit_length()):
            if (row >> j) & 1:
                acc ^= b_rows[j]
        out.append(acc)
    return out


def test_matmul_against_direct_sum():
    rng = random.Random(19)
    a_rows = _random_rows(rng, 6, 7)
    b_rows = _random_rows(rng, 7, 9)
    a = BooleanMatrix(6, 7, a_rows)
    b = BooleanMatrix(7, 9, b_rows)
    c = a @ b
    assert (c.nrows, c.ncols) == (6, 9)
    assert list(c.rows) == _per_bit_product(a_rows, b_rows)


def _transpose(rows: list[int], ncols: int) -> list[int]:
    return [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(ncols)]


def test_transpose_involution():
    rng = random.Random(23)
    rows = _random_rows(rng, 5, 8)
    cols = _transpose(rows, 8)
    assert _transpose(cols, 5) == rows
    assert BooleanMatrix(8, 5, cols).rank() == BooleanMatrix(5, 8, rows).rank()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        BooleanMatrix(3, 3, [1, 2, 4]) @ BooleanMatrix(4, 4, [1, 2, 4, 8])


# -- the set-bit walk on rows shaped like the real ones ------------------------
#
# The projective differentials and the Mor systems' heavy rows are a few
# thousand columns wide with zero to three set bits each.  The oracles
# below walk those rows the long way, one column at a time.


def _sparse_rows(rng: random.Random, nrows: int, ncols: int) -> list[int]:
    return [
        sum(1 << c for c in rng.sample(range(ncols), min(ncols, rng.randrange(4))))
        for _ in range(nrows)
    ]


def _sparse_shapes(rng: random.Random) -> list[tuple[int, int]]:
    """(nrows, ncols) pairs: the 0-row matrices _solve passes when no
    heavy rows are left, then wide ones."""
    shapes = [(0, 0), (0, 2500)]
    for _ in range(10):
        ncols = rng.randrange(1, 3000)
        shapes.append((rng.randrange(0, min(ncols, 300) + 1), ncols))
    return shapes


def _per_pair_nullspace(rows: list[int], ncols: int) -> list[int]:
    """The basis read off the reduced form one (free column, pivot) pair
    at a time."""
    reduced = list(rows)
    _, pivots = _kernels.gf2_eliminate(reduced, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = 1 << fc
        for r, pc in enumerate(pivots):
            if (reduced[r] >> fc) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def test_matmul_walks_every_set_bit_of_wide_sparse_rows():
    rng = random.Random(29)
    for nrows, ncols in _sparse_shapes(rng):
        width = rng.randrange(1, 3000)
        a_rows = _sparse_rows(rng, nrows, ncols)
        b_rows = _sparse_rows(rng, ncols, width)
        c = BooleanMatrix(nrows, ncols, a_rows) @ BooleanMatrix(ncols, width, b_rows)
        assert (c.nrows, c.ncols) == (nrows, width)
        assert list(c.rows) == _per_bit_product(a_rows, b_rows)


def test_nullspace_matches_the_per_pair_basis_on_wide_sparse_rows():
    rng = random.Random(37)
    for nrows, ncols in _sparse_shapes(rng):
        rows = _sparse_rows(rng, nrows, ncols)
        assert BooleanMatrix(nrows, ncols, rows).nullspace() == _per_pair_nullspace(rows, ncols)
    assert BooleanMatrix(0, 2500, []).nullspace() == [1 << c for c in range(2500)]
