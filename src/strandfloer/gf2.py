"""Boolean matrices over the two-element field.

Rows are Python-int bitsets, bit j of a row being column j; Gaussian
elimination runs on them directly in the kernel layer (see _kernels),
and every other walk over a row visits its set bits only (``bits``).
All mutating work happens on copies, so BooleanMatrix values can be
shared freely.
"""

from __future__ import annotations

from . import _kernels


def bits(mask: int):
    """The set bits of mask, lowest first: the columns of a row."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BooleanMatrix:
    """An immutable rows x cols matrix over GF(2).

    Construct with ``BooleanMatrix(nrows, ncols, rows)`` where ``rows`` is a
    list of python ints, bit j of rows[i] being entry (i, j).
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[int]):
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        limit = 1 << ncols
        for r in rows:
            if r < 0 or r >= limit:
                raise ValueError("row has bits outside the column range")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __matmul__(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Row-vector convention: (A @ B)[i] = sum_j A[i,j] B[j]."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        b = other.rows
        out = []
        for row in self.rows:
            acc = 0
            for j in bits(row):
                acc ^= b[j]
            out.append(acc)
        return BooleanMatrix(self.nrows, other.ncols, out)

    def rank(self) -> int:
        return self.rref()[0]

    def rref(self) -> tuple[int, list[int]]:
        """Rank and pivot columns of the reduced row echelon form."""
        return _kernels.gf2_eliminate(list(self.rows), self.ncols)

    def nullspace(self) -> list[int]:
        """Basis of the right kernel {x : A x = 0}.

        Vectors are bitmasks over the columns.  The basis is the standard
        one read off the reduced echelon form: one vector per free column,
        deterministic in column order.  Its pivot bits lie below its free
        column, which is therefore its highest set bit.
        """
        reduced = list(self.rows)
        _, pivots = _kernels.gf2_eliminate(reduced, self.ncols)
        pivot_set = set(pivots)
        # A reduced pivot row is its pivot plus the free columns it holds.
        basis = {c: 1 << c for c in range(self.ncols) if c not in pivot_set}
        for row, pc in zip(reduced, pivots):
            for fc in bits(row ^ (1 << pc)):
                basis[fc] |= 1 << pc
        return list(basis.values())
