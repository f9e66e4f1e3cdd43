"""Exact linear algebra over Q(i), on one sparse type: rows and vectors
are ``Row``s (nonzero entries by index), matrices are sparse columns.

One elimination serves every exact solve: ``insert`` reduces a row by the
rows kept so far until its pivot column is new and keeps it there, scaled
to a leading one; ``echelon`` inserts by the leftmost column and
back-substitutes once, which gives the unique reduced row echelon form.
``kernel_basis``, ``coordinates``, ``in_row_space``, ``liealg.Subspace``
and the split's basis extension run on it.  ``sparse_rank`` needs only the
rank and eliminates fraction-free over Z (Bareiss, Math. Comp. 22, 1968):
each column is scaled by the lcm of its denominators and reduced on its
largest row index by row <- a row - b kept, and a kept row has its content
divided out.  Gaussian columns c enter realified, as c and i c over Q,
whose rank is twice the rank over Q(i).  ``apply`` applies a matrix, or
(matrix tensor id), to a sparse vector; ``mat_mul`` and ``combine``
compose and add matrices.
Functions that can receive no rows take the column count, because an
empty list carries no shape.  ``rref``, the one function on dense rows,
reads an algebra file's coordinate vectors, and the benchmark times it on
the dense rows of d (``Dga.d``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import gcd, lcm

from .scalars import Scalar, ZERO, ONE

# A sparse row or vector: its nonzero entries, by index.
Row = dict[int, Scalar]
# A sparse vector as its nonzero entries [(index, value)].
Entries = Iterable[tuple[int, Scalar]]
# Column j of a matrix as its nonzero entries [(row, value)], rows ascending.
SparseColumns = list[list[tuple[int, Scalar]]]


def apply(
    columns: Sequence[Entries], vec: Entries, out: Row | None = None, stride: int = 1
) -> Row:
    """``out`` plus (matrix tensor id_stride) applied to ``vec``, for the
    matrix held as sparse ``columns``: entry j = m * stride + a of ``vec``
    adds its value times column m, each row i landing on i * stride + a.
    Entries that cancel are dropped; ``out`` is updated and returned."""
    if out is None:
        out = {}
    for j, x in vec:
        m, a = divmod(j, stride)
        for i, y in columns[m]:
            k = i * stride + a
            total = out.get(k, ZERO) + x * y
            if total:
                out[k] = total
            else:
                out.pop(k, None)
    return out


def mat_mul(a: SparseColumns, b: SparseColumns) -> SparseColumns:
    """The product a b of matrices held as sparse columns."""
    return [sorted(apply(a, column).items()) for column in b]


def combine(coeffs: Sequence[Scalar], matrices: Sequence[SparseColumns]) -> SparseColumns:
    """The sum of coeffs[k] * matrices[k], matrices of one shape held as
    sparse columns."""
    return [sorted(apply(columns, enumerate(coeffs)).items()) for columns in zip(*matrices)]


def _subtract(row: Row, f: Scalar, pivot: Row) -> None:
    """row -= f * pivot, dropping the entries that cancel."""
    for j, y in pivot.items():
        total = row.get(j, ZERO) - f * y
        if total:
            row[j] = total
        else:
            del row[j]


def _reduce(kept: Mapping[int, Row], row: Row) -> int | None:
    """Reduce ``row`` in place by the rows of ``kept`` (keyed by their
    pivot column, entry one there) until its pivot column, its smallest
    index, is not kept; that column, or None when the row vanishes."""
    while row:
        lead = min(row)
        kept_row = kept.get(lead)
        if kept_row is None:
            return lead
        _subtract(row, row[lead], kept_row)
    return None


def insert(kept: dict[int, Row], row: Entries | Mapping[int, Scalar]) -> bool:
    """Reduce a copy of ``row`` (nonzero entries only) by ``kept`` and keep
    the remainder under its pivot column, scaled to one there.  False when
    the row lies in the span of ``kept`` already."""
    row = dict(row)
    lead = _reduce(kept, row)
    if lead is None:
        return False
    inv = ONE / row[lead]
    kept[lead] = {j: x * inv for j, x in row.items()}
    return True


def echelon(rows: Iterable[Entries | Mapping[int, Scalar]]) -> tuple[list[Row], list[int]]:
    """The reduced row echelon form of the span of sparse ``rows``.

    Returns (rows, pivot columns), pivots ascending and each row's entries
    in column order: the canonical basis of the row space.
    """
    kept: dict[int, Row] = {}
    for row in rows:
        insert(kept, row)
    pivots = sorted(kept)
    # Back-substitution: the rows with larger pivots are already reduced.
    for p in reversed(pivots):
        row = kept[p]
        for q in [q for q in row if q != p and q in kept]:
            _subtract(row, row[q], kept[q])
    return [dict(sorted(kept[p].items())) for p in pivots], pivots


def rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[list[Row], list[int]]:
    """``echelon`` of dense rows of length ``ncols``."""
    return echelon({j: row[j] for j in range(ncols) if row[j]} for row in rows)


def kernel_basis(rows: Iterable[Entries | Mapping[int, Scalar]], ncols: int) -> list[Row]:
    """Canonical rref basis of the right null space {x : A x = 0} of the
    matrix with ``ncols`` columns and these sparse rows."""
    reduced, pivots = echelon(rows)
    pivot_set = set(pivots)
    basis = {c: {c: ONE} for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return echelon(basis.values())[0]


def coordinates(rows: Sequence[Mapping[int, Scalar]], n: int) -> list[Row]:
    """Row j: the coordinates of e_j in the basis of Q(i)^n formed by the
    sparse ``rows``, that is the rows of the inverse matrix.  One elimination
    of [rows | identity]; ValueError when the rows do not form a basis."""
    reduced, pivots = echelon({**row, n + k: ONE} for k, row in enumerate(rows))
    if len(rows) != n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in reduced]


def in_row_space(rows: Sequence[Row], pivots: Sequence[int], v: Entries | Row) -> bool:
    """Whether ``v`` lies in the span of ``rows``, echelon rows with leading
    ones on ``pivots``."""
    return _reduce(dict(zip(pivots, rows)), dict(v)) is None


def sparse_rank(columns: SparseColumns) -> int:
    """Rank of a matrix held as sparse columns, by the integer elimination
    of the module docstring; a kept row is keyed by its largest index."""
    if any(x._b for column in columns for _, x in column):
        # c and i c over Q, entries a + b i of row r on rows 2r and 2r + 1.
        realified = []
        for column in columns:
            parts = [(2 * r, Scalar(x.re), Scalar(x.im)) for r, x in column]
            realified.append([(k + s, v) for k, a, b in parts for s, v in ((0, a), (1, b)) if v])
            realified.append([(k + s, v) for k, a, b in parts for s, v in ((0, -b), (1, a)) if v])
        return sparse_rank(realified) // 2
    kept: dict[int, dict[int, int]] = {}
    for column in filter(None, columns):
        den = lcm(*(x._d for _, x in column))
        row = {r: x._a * (den // x._d) for r, x in column}
        while row:
            lead = max(row)
            pivot = kept.get(lead)
            if pivot is None:
                # Content out and lead positive, so a unit lead scales no row.
                g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
                kept[lead] = {j: x // g for j, x in row.items()}
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, y in pivot.items():
                total = row.get(j, 0) - b * y
                if total:
                    row[j] = total
                else:
                    del row[j]
    return len(kept)
