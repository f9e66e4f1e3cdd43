"""Exact linear algebra over Q(i).

One elimination serves every exact solve.  It works on sparse rows,
``Row = dict[int, Scalar]`` with the nonzero entries only: ``insert``
reduces a row by the rows kept so far until its pivot column is new and
keeps it there, scaled to a leading one; ``echelon`` inserts by the
leftmost column and back-substitutes once, which gives the unique reduced
row echelon form.  ``kernel_basis``, ``coordinates``, ``in_row_space`` and
the split's basis extension run on it, and ``rref`` is its adapter for
dense rows (``liealg.Subspace`` passes those).  ``sparse_rank`` needs only
the rank and inserts by the largest index instead, which on the columns of
d is about twice as fast.  ``apply`` applies a matrix held as sparse
columns, or (matrix tensor id), to a sparse vector.  Functions that can
receive no rows take the column count, because an empty list carries no
shape.

Dense matrices, lists of row lists treated as immutable once returned,
stay for the n x n algebra-side matrices of ``jordan``, ``nilshadow`` and
``liealg`` and for the dense rows of d (``Dga.d``) the benchmark reads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

from .scalars import Scalar, ZERO, ONE

Matrix = list[list[Scalar]]
Vector = list[Scalar]
# A sparse row or vector: its nonzero entries, by index.
Row = dict[int, Scalar]
# A sparse vector as its nonzero entries [(index, value)].
Entries = Iterable[tuple[int, Scalar]]
# Column j of a matrix as its nonzero entries [(row, value)], rows ascending.
SparseColumns = list[list[tuple[int, Scalar]]]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def copy_matrix(a: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(row) for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix, *, inner: int | None = None) -> Matrix:
    """Product a @ b.  ``inner`` is required only when ``a`` has no rows."""
    if a:
        inner = len(a[0])
    elif inner is None:
        raise ValueError("inner dimension needed for an empty left factor")
    assert len(b) == inner, "shape mismatch in mat_mul"
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            for j, y in enumerate(brow):
                if y:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def sparse(row: Sequence[Scalar]) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def dense(row: Mapping[int, Scalar], ncols: int) -> Vector:
    out = [ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return out


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


def _subtract(row: Row, f: Scalar, pivot: Row) -> None:
    """row -= f * pivot, dropping the entries that cancel."""
    for j, y in pivot.items():
        total = row.get(j, ZERO) - f * y
        if total:
            row[j] = total
        else:
            del row[j]


def _reduce(kept: Mapping[int, Row], row: Row, pivot: Callable = min) -> int | None:
    """Reduce ``row`` in place by the rows of ``kept`` (keyed by their
    pivot column, entry one there) until its pivot column, the ``pivot`` of
    its indices, is not kept; that column, or None when the row vanishes."""
    while row:
        lead = pivot(row)
        kept_row = kept.get(lead)
        if kept_row is None:
            return lead
        _subtract(row, row[lead], kept_row)
    return None


def insert(
    kept: dict[int, Row], row: Entries | Mapping[int, Scalar], pivot: Callable = min
) -> bool:
    """Reduce a copy of ``row`` (nonzero entries only) by ``kept`` and keep
    the remainder under its pivot column, scaled to one there.  False when
    the row lies in the span of ``kept`` already."""
    row = dict(row)
    lead = _reduce(kept, row, pivot)
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


def rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[Matrix, list[int]]:
    """``echelon`` of dense rows of length ``ncols``, as dense rows with
    zero rows dropped."""
    reduced, pivots = echelon(sparse(row) for row in rows)
    return [dense(row, ncols) for row in reduced], pivots


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
    """Rank of a matrix held as sparse columns, each inserted by its
    largest row index."""
    kept: dict[int, Row] = {}
    return sum(insert(kept, column, max) for column in columns)
