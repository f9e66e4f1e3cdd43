from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    I,
    dense,
    dense_columns,
    dense_in_row_space,
    dense_inverse,
    dense_kernel_basis,
    dense_mat_mul,
    dense_rows,
    dense_rref,
    dense_solve_many,
    identity,
    image_basis,
    mat_add,
    mat_vec,
    sparse,
    sparse_columns,
    transpose,
    zeros,
)

import germkit.linalg as la
from germkit.scalars import ONE, Scalar, ZERO, scalar

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)
# Nonzero rationals with 6-digit numerators and denominators.
digits_st = st.builds(
    Scalar,
    st.builds(
        Fraction,
        st.one_of(st.integers(-999_999, -100_000), st.integers(100_000, 999_999)),
        st.integers(100_000, 999_999),
    ),
)


def matrices_st(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda rows: st.integers(1, max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(scalars_st, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


@given(matrices_st())
def test_rref_is_idempotent_and_preserves_row_space(m):
    ncols = len(m[0])
    reduced, pivots = la.rref(m, ncols)
    again, pivots2 = la.rref(dense_rows(reduced, ncols), ncols)
    assert again == reduced and pivots2 == pivots
    for row in m:
        assert la.in_row_space(reduced, pivots, sparse(row))
    for row in dense_rows(reduced, ncols):
        assert dense_in_row_space(dense_rows(reduced, ncols), pivots, v=row)


@given(matrices_st())
def test_kernel_annihilates_and_rank_nullity(m):
    ncols = len(m[0])
    kernel = dense_rows(la.kernel_basis([sparse(r) for r in m], ncols), ncols)
    for vec in kernel:
        assert all(not x for x in mat_vec(m, vec))
    assert len(la.rref(m, ncols)[0]) + len(kernel) == ncols


@given(matrices_st(3))
def test_solve_finds_exact_solutions(m):
    ncols = len(m[0])
    # The dense reference the split's reference solves with.
    target = [ONE] * len(m)
    solutions = dense_solve_many(m, [target], ncols)
    if solutions is not None:
        assert mat_vec(m, solutions[0]) == target


@given(matrices_st(3))
def test_image_basis_spans_columns(m):
    ncols = len(m[0])
    image = image_basis(m, ncols)
    reduced, pivots = la.rref(image, len(m))
    reduced = dense_rows(reduced, len(m))
    for j in range(ncols):
        col = [m[i][j] for i in range(len(m))]
        assert dense_in_row_space(reduced, pivots, col)


@st.composite
def column_sets(draw):
    """(rows, sparse columns): random, dense 6-digit, unit, zero, repeated and
    summed columns."""
    nrows = draw(st.integers(0, 5))
    columns: list[list] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "digits", "unit", "zero", "multiple", "sum")))
        dense = [ZERO] * nrows
        if kind == "random":
            dense = draw(st.lists(st.one_of(st.just(ZERO), scalars_st), min_size=nrows, max_size=nrows))
        elif kind == "digits":
            dense = draw(st.lists(digits_st, min_size=nrows, max_size=nrows))
        elif kind == "unit" and nrows:
            dense[draw(st.integers(0, nrows - 1))] = ONE
        elif kind != "zero" and columns:
            factor = draw(scalars_st)
            picked = [draw(st.sampled_from(columns))]
            if kind == "sum":
                picked.append(draw(st.sampled_from(columns)))
            for column in picked:
                for r, x in column:
                    dense[r] = dense[r] + factor * x
        columns.append([(r, x) for r, x in enumerate(dense) if x])
    return nrows, columns


@given(column_sets())
def test_sparse_rank_matches_dense_rank(case):
    nrows, columns = case
    rows = zeros(nrows, len(columns))
    for c, column in enumerate(columns):
        for r, x in column:
            rows[r][c] = x
    assert la.sparse_rank(columns) == len(la.rref(rows, len(columns))[0])


def test_inverse_of_identity_like():
    a = [
        [ONE, zeros(1, 1)[0][0], ONE],
        [ZERO, ONE, ONE],
        [ZERO, ZERO, ONE],
    ]
    inv = dense_rows(la.coordinates([sparse(r) for r in a], 3), 3)
    assert dense_mat_mul(a, inv) == identity(3)
    assert dense_mat_mul(inv, a) == identity(3)


def test_empty_shapes():
    assert la.rref([], 3) == ([], [])
    assert la.kernel_basis([], 2) == [{0: ONE}, {1: ONE}]
    assert la.kernel_basis([], 0) == []
    assert la.echelon([]) == ([], [])
    assert la.coordinates([], 0) == []
    assert transpose([], 3) == [[], [], []]


ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, scalar(2), scalar("1/3"), I, -I + 1])


@st.composite
def row_sets(draw):
    """(ncols, dense rows) over Q(i): random, zero, repeated and summed rows,
    with no rows and ncols = 0 among the cases."""
    ncols = draw(st.integers(0, 5))
    rows: list[list] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "sum")))
        if kind == "random" or not rows:
            row = draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [ZERO] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(ENTRIES)
            row = [x + f * y for x, y in zip(a, b)]
        rows.append(row)
    return ncols, rows


@given(row_sets(), st.lists(ENTRIES, min_size=5, max_size=5))
def test_sparse_elimination_matches_the_dense_references(case, probe):
    ncols, rows = case
    sparse_rows = [sparse(r) for r in rows]
    expected, pivots = dense_rref(rows, ncols)
    reduced, sparse_pivots = la.echelon(sparse_rows)
    assert sparse_pivots == pivots
    assert dense_rows(reduced, ncols) == expected
    assert all(list(row) == sorted(row) and all(row.values()) for row in reduced)
    rref_rows, rref_pivots = la.rref(rows, ncols)
    assert (dense_rows(rref_rows, ncols), rref_pivots) == (expected, pivots)
    kernel = la.kernel_basis(sparse_rows, ncols)
    assert dense_rows(kernel, ncols) == dense_kernel_basis(rows, ncols)
    for v in rows + [probe[:ncols]] + dense_rows(kernel, ncols):
        assert la.in_row_space(reduced, pivots, sparse(v)) == dense_in_row_space(
            expected, pivots, v
        )
    # _extend_basis, the split's greedy choice, keeps the rows that raise the rank.
    kept: dict = {}
    chosen = [r for r in sparse_rows if la.insert(kept, r)]
    assert len(chosen) == len(pivots)
    assert la.echelon(chosen) == (reduced, pivots)
    columns = [list(sparse(col).items()) for col in transpose(rows, ncols)]
    vec = sparse(probe[:ncols])
    assert dense(la.apply(columns, vec.items()), len(rows)) == mat_vec(rows, probe[:ncols])


@given(row_sets())
def test_sparse_inverse_matches_the_dense_reference(case):
    ncols, rows = case
    square = rows[:ncols]
    if len(square) < ncols:
        square += [[ONE if i == j else ZERO for j in range(ncols)] for i in range(len(square), ncols)]
    try:
        expected = dense_inverse(square)
    except ValueError:
        expected = None
    try:
        inverse = dense_rows(la.coordinates([sparse(r) for r in square], ncols), ncols)
    except ValueError:
        inverse = None
    assert inverse == expected


@st.composite
def square_triples(draw):
    """Three n x n dense matrices over Q(i), n from 1 to 4, the second
    sometimes the first (so products can cancel) and the third sometimes
    zero."""
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    a = draw(square)
    b = a if draw(st.booleans()) else draw(square)
    c = zeros(n, n) if draw(st.booleans()) else draw(square)
    return a, b, c


@given(square_triples(), ENTRIES, ENTRIES)
def test_sparse_products_and_sums_match_the_dense_kit(case, f, g):
    a, b, c = case
    n = len(a)
    sa, sb, sc = sparse_columns(a), sparse_columns(b), sparse_columns(c)
    product = la.mat_mul(sa, sb)
    assert dense_columns(product, n) == dense_mat_mul(a, b)
    assert product == sparse_columns(dense_mat_mul(a, b))
    total = la.combine((f, g, -ONE), (sa, sb, sc))
    scaled = [[f * x for x in row] for row in a]
    minus_c = [[-x for x in row] for row in c]
    expected = mat_add(mat_add(scaled, [[g * x for x in row] for row in b]), minus_c)
    assert total == sparse_columns(expected)
