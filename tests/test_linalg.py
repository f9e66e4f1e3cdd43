from hypothesis import given
from hypothesis import strategies as st

import germkit.linalg as la
from germkit.scalars import ONE, Scalar, ZERO

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)


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
    again, pivots2 = la.rref(reduced, ncols)
    assert again == reduced and pivots2 == pivots
    for row in m:
        assert la.in_row_space(reduced, pivots, row)
    for row in reduced:
        assert la.in_row_space(*la.rref(m, ncols), v=row)


@given(matrices_st())
def test_kernel_annihilates_and_rank_nullity(m):
    ncols = len(m[0])
    kernel = la.kernel_basis(m, ncols)
    for vec in kernel:
        assert all(not x for x in la.mat_vec(m, vec))
    assert len(la.rref(m, ncols)[0]) + len(kernel) == ncols


@given(matrices_st(3))
def test_solve_finds_exact_solutions(m):
    ncols = len(m[0])
    target = [ONE] * len(m)
    solution = la.solve(m, target, ncols)
    if solution is not None:
        assert la.mat_vec(m, solution) == target


@given(matrices_st(3))
def test_image_basis_spans_columns(m):
    ncols = len(m[0])
    image = la.image_basis(m, ncols)
    reduced, pivots = la.rref(image, len(m))
    for j in range(ncols):
        col = [m[i][j] for i in range(len(m))]
        assert la.in_row_space(reduced, pivots, col)


@st.composite
def column_sets(draw):
    """(rows, sparse columns): random, unit, zero, repeated and summed columns."""
    nrows = draw(st.integers(0, 5))
    columns: list[list] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "unit", "zero", "multiple", "sum")))
        dense = [ZERO] * nrows
        if kind == "random":
            dense = draw(st.lists(st.one_of(st.just(ZERO), scalars_st), min_size=nrows, max_size=nrows))
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
    rows = la.zeros(nrows, len(columns))
    for c, column in enumerate(columns):
        for r, x in column:
            rows[r][c] = x
    assert la.sparse_rank(columns) == len(la.rref(rows, len(columns))[0])


def test_inverse_of_identity_like():
    a = [
        [ONE, la.zeros(1, 1)[0][0], ONE],
        [ZERO, ONE, ONE],
        [ZERO, ZERO, ONE],
    ]
    inv = la.inverse(a)
    assert la.mat_eq(la.mat_mul(a, inv), la.identity(3))
    assert la.mat_eq(la.mat_mul(inv, a), la.identity(3))


def test_empty_shapes():
    assert la.rref([], 3) == ([], [])
    assert la.kernel_basis([], 2) == la.rref(la.identity(2), 2)[0]
    assert la.transpose([], 3) == [[], [], []]
