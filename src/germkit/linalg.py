"""Exact linear algebra over Q(i).

Matrices are plain lists of row lists of Scalars and are treated as
immutable once returned.  Everything reduces to Gauss-Jordan elimination
with exact division; pivots are always the first nonzero entry in column
order, so all outputs are deterministic.

Functions that can receive a matrix with zero rows take the column count
explicitly, because an empty list carries no shape.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Scalar, ZERO, ONE

Matrix = list[list[Scalar]]
Vector = list[Scalar]
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


def transpose(a: Matrix, ncols: int) -> Matrix:
    return [[row[j] for row in a] for j in range(ncols)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with zero rows dropped.

    Returns (rows, pivot_columns).  The output is the unique canonical
    basis of the row space, so two subspaces are equal iff their rref
    rows are equal.
    """
    m = copy_matrix(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        support = [(j, y) for j, y in enumerate(m[r]) if y]
        for i in range(len(m)):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def sparse_rank(columns: SparseColumns) -> int:
    """Rank of a matrix held as sparse columns.

    Each column is reduced by the stored columns whose largest row matches
    its own until that row is new (it joins the store) or it vanishes.
    """
    reduced: dict[int, dict[int, Scalar]] = {}
    for column in columns:
        vec = {r: x for r, x in column if x}
        while vec:
            low = max(vec)
            pivot = reduced.get(low)
            if pivot is None:
                inv = ONE / vec[low]
                reduced[low] = {r: x * inv for r, x in vec.items()}
                break
            f = vec[low]
            for r, y in pivot.items():
                total = vec.get(r, ZERO) - f * y
                if total:
                    vec[r] = total
                else:
                    del vec[r]
    return len(reduced)


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int) -> Matrix:
    """Canonical rref basis of the right null space {x : A x = 0}."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            if reduced[r][fc]:
                v[pc] = -reduced[r][fc]
        basis.append(v)
    return rref(basis, ncols)[0]


def solve(a: Matrix, b: Sequence[Scalar], ncols: int) -> Vector | None:
    """One exact solution of A x = b with free coordinates set to zero."""
    sols = solve_many(a, [list(b)], ncols)
    return sols[0] if sols is not None else None


def solve_many(
    a: Matrix, bs: Sequence[Sequence[Scalar]], ncols: int
) -> list[Vector] | None:
    """Solve A x = b for several right-hand sides with one elimination.

    Returns None if any system is inconsistent.
    """
    nrhs = len(bs)
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, ncols + nrhs) if aug else ([], [])
    for r, pc in enumerate(pivots):
        if pc >= ncols:
            return None  # a pivot inside the RHS block: inconsistent
    solutions = []
    for k in range(nrhs):
        x = [ZERO] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][ncols + k]
        solutions.append(x)
    return solutions


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    eye = identity(n)
    aug = [list(row) + eye[i] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def in_row_space(rref_rows: Matrix, pivots: list[int], v: Sequence[Scalar]) -> bool:
    """Membership test against a subspace already in rref form."""
    residual = list(v)
    for row, pc in zip(rref_rows, pivots):
        f = residual[pc]
        if f:
            for j, y in enumerate(row):
                if y:
                    residual[j] = residual[j] - f * y
    return all(not x for x in residual)
