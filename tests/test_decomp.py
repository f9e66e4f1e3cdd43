import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_ALGEBRAS,
    GENERATED,
    GRADED_NILPOTENT,
    I,
    UNIMODULAR,
    apply_d,
    dense_columns,
    dense_kernel_basis,
    dense_laplacian,
    dense_rows,
    dstar_matrices,
    extend_basis_reference,
    h5_i_scaled,
    hermitian,
    image_basis,
    inferred_grading,
    is_zero_matrix,
    kernel_containment_dense,
    mat_vec,
    oracle_betti,
    sparse,
    split_complex_dense,
)

import germkit.linalg as la
from germkit.cedga import Dga
from germkit.decomp import (
    GERM_TOP,
    READBACK_TOP,
    STRATEGIES,
    _extend_basis,
    _vector_weights,
    _verify_decomposition,
    degree2_weight_table,
    kernel_containment_check,
    monomial_weight,
    split_complex,
)
from germkit.errors import InternalCheckError, PreconditionError
from germkit.liealg import Grading, Subspace, basis_aligned_weights
from germkit.scalars import ONE, ZERO, scalar


def _metric(algebra, grading=None):
    return split_complex(Dga(algebra), "metric", grading)


def test_h3_harmonic_spaces_and_delta():
    h3 = FIXTURE_ALGEBRAS["h3"]
    dec = _metric(h3, inferred_grading(h3))
    assert dec.betti() == [1, 2, 2, 1]
    assert dec.harmonic_basis(1) == [{0: ONE}, {1: ONE}]
    assert dec.harmonic_basis(2) == [{1: ONE}, {2: ONE}]
    # delta(x^y) = -z, and delta kills the harmonic two-forms
    delta2 = dense_columns(dec.delta[2], 3)
    assert mat_vec(delta2, [ONE, ZERO, ZERO]) == [ZERO, ZERO, -ONE]
    assert mat_vec(delta2, [ZERO, ONE, ZERO]) == [ZERO] * 3
    assert mat_vec(delta2, [ZERO, ZERO, ONE]) == [ZERO] * 3


def test_abelian_split_is_trivial():
    dec = _metric(FIXTURE_ALGEBRAS["abelian3"])
    assert dec.betti() == [1, 3, 3, 1]
    for p, columns in enumerate(dec.delta):
        assert is_zero_matrix(dense_columns(columns, dec.dga.dim_at(p - 1)))
    for p, split in enumerate(dec.splits):
        assert len(split.harmonic) == dec.dga.dim_at(p)


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
@pytest.mark.parametrize("strategy", ["metric", "pivot"])
def test_betti_matches_independent_oracle(name, strategy):
    algebra = UNIMODULAR[name]
    dec = split_complex(Dga(algebra), strategy)
    assert dec.betti() == oracle_betti(algebra)


def test_kunneth_betti_of_q_plus_h3():
    assert _metric(FIXTURE_ALGEBRAS["q_plus_h3"]).betti() == [1, 3, 4, 3, 1]


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
def test_poincare_duality_on_unimodular_fixtures(name):
    betti = _metric(UNIMODULAR[name]).betti()
    assert betti == betti[::-1]


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
def test_adjointness_on_every_basis_pair(name):
    algebra = UNIMODULAR[name]
    dga = Dga(algebra)
    dstar = dstar_matrices(dga)
    n = algebra.dim
    for p in range(n):
        dim_p, dim_q = dga.dim_at(p), dga.dim_at(p + 1)
        for a in range(dim_p):
            alpha = [ONE if i == a else ZERO for i in range(dim_p)]
            d_alpha = apply_d(dga, p, alpha)
            for b in range(dim_q):
                beta = [ONE if i == b else ZERO for i in range(dim_q)]
                dstar_beta = mat_vec(dstar[p + 1], beta)
                assert hermitian(d_alpha, beta) == hermitian(alpha, dstar_beta)


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
@pytest.mark.parametrize("strategy", ["metric", "pivot"])
def test_three_way_dimensions(name, strategy):
    algebra = UNIMODULAR[name]
    dga = Dga(algebra)
    dec = split_complex(dga, strategy)
    for p, split in enumerate(dec.splits):
        assert (
            len(split.harmonic) + len(split.exact) + len(split.complement)
            == dga.dim_at(p)
        )


def test_metric_harmonics_are_two_sided_kernels():
    for name, algebra in UNIMODULAR.items():
        dga = Dga(algebra)
        dec = split_complex(dga)
        dstar = dstar_matrices(dga)
        for p in range(len(dec.splits)):
            lap = dense_laplacian(dga, dstar, p)
            harmonic = dense_rows(dec.harmonic_basis(p), dga.dim_at(p))
            for row in harmonic:
                assert not any(mat_vec(lap, row)), (name, p)
                assert not any(apply_d(dga, p, row))
                assert not any(mat_vec(dstar[p], row))
            # ker(Laplacian) (+) im(Laplacian) is a direct sum filling the degree
            image = image_basis(lap, dga.dim_at(p))
            stacked = harmonic + [list(r) for r in image]
            assert len(stacked) == dga.dim_at(p)
            assert len(la.rref(stacked, dga.dim_at(p))[0]) == dga.dim_at(p)


def test_delta_respects_weights_in_degree_two():
    for name, algebra in GRADED_NILPOTENT.items():
        grading = inferred_grading(algebra)
        dga = Dga(algebra)
        dec = split_complex(dga, "metric", grading)
        weights = dec.weights
        assert weights is not None
        for k, monos in degree2_weight_table(dga, weights).items():
            for mono in monos:
                vec = [ZERO] * dga.dim_at(2)
                vec[dga.position[mono][1]] = ONE
                out = mat_vec(dense_columns(dec.delta[2], dga.dim_at(1)), vec)
                for i, c in enumerate(out):
                    if c:
                        assert weights[dga.monomials[1][i][0]] == k, name


def test_kernel_containment_on_graded_fixtures():
    for name, algebra in GRADED_NILPOTENT.items():
        dec = _metric(algebra, inferred_grading(algebra))
        assert kernel_containment_check(dec) is None, name


GRADED_CASES = [
    (f"fixture:{name}", algebra)
    for name, algebra in FIXTURE_ALGEBRAS.items()
    if inferred_grading(algebra) is not None
] + [(f"generated:{name}", algebra) for name, algebra in GENERATED.items()]


@pytest.mark.parametrize("top", [None, GERM_TOP], ids=["full", "germ-top"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "algebra", [a for _, a in GRADED_CASES], ids=[n for n, _ in GRADED_CASES]
)
def test_cocycle_weights_from_the_split_match_the_dense_kernel(
    algebra, strategy, top
):
    # The harmonic and exact rows of degree 2 span Z^2, each row in one
    # weight; a dense kernel basis of d_2 may mix weights within a row, but
    # the weights its rows touch are the same set.
    grading = inferred_grading(algebra)
    dga = Dga(algebra)
    dec = split_complex(dga, strategy, grading, top=top)
    split = dec.splits[2]
    from_split = {
        w
        for row in split.harmonic + split.exact
        for w in _vector_weights(dga, dec.weights, 2, row)
    }
    from_kernel = {
        w
        for row in dense_kernel_basis(dga.d[2], dga.dim_at(2))
        for w in _vector_weights(dga, dec.weights, 2, sparse(row))
    }
    assert from_split == from_kernel
    assert max(from_split) <= grading.depth + 1
    assert kernel_containment_check(dec) is None
    assert kernel_containment_dense(dga, grading) is None


def test_h3_degree2_weights():
    h3 = FIXTURE_ALGEBRAS["h3"]
    grading = inferred_grading(h3)
    weights = basis_aligned_weights(grading)
    dga = Dga(h3)
    table = degree2_weight_table(dga, weights)
    assert {k: [dga.monomial_label(m) for m in v] for k, v in table.items()} == {
        2: ["X∧Y"],
        3: ["X∧Z", "Y∧Z"],
    }
    assert monomial_weight(weights, (0, 1)) == 2


def test_non_weight_homogeneous_grading_is_rejected():
    h3 = FIXTURE_ALGEBRAS["h3"]
    fake = Grading(
        (
            Subspace.from_vectors(3, [h3.basis_vector(0)]),
            Subspace.from_vectors(3, [h3.basis_vector(1), h3.basis_vector(2)]),
        )
    )
    with pytest.raises(PreconditionError, match="weight-homogeneous"):
        split_complex(Dga(h3), "metric", fake)


def test_non_aligned_grading_is_rejected():
    h3 = FIXTURE_ALGEBRAS["h3"]
    skew = {1: ONE, 2: ONE}
    grading = Grading(
        (
            Subspace.from_vectors(3, [h3.basis_vector(0), skew]),
            Subspace.from_vectors(3, [h3.basis_vector(2)]),
        )
    )
    with pytest.raises(PreconditionError, match="basis vectors"):
        split_complex(Dga(h3), "metric", grading)


def test_strategies_agree_on_betti_but_may_differ_elsewhere():
    for algebra in GRADED_NILPOTENT.values():
        dga = Dga(algebra)
        metric = split_complex(dga, "metric")
        pivot = split_complex(dga, "pivot")
        assert metric.betti() == pivot.betti()


TRUNCATION_CASES = [
    (f"fixture:{name}", algebra) for name, algebra in FIXTURE_ALGEBRAS.items()
] + [(f"generated:{name}", algebra) for name, algebra in GENERATED.items()]


@pytest.mark.parametrize("strategy", ["metric", "pivot"])
@pytest.mark.parametrize(
    "algebra", [a for _, a in TRUNCATION_CASES], ids=[n for n, _ in TRUNCATION_CASES]
)
def test_truncated_split_agrees_with_full_split(algebra, strategy):
    dga = Dga(algebra)
    grading = inferred_grading(algebra)
    full = split_complex(dga, strategy, grading)
    # The germ path splits to GERM_TOP, a germ file read back to READBACK_TOP.
    for top in (GERM_TOP, READBACK_TOP):
        cut = split_complex(dga, strategy, grading, top=top)
        low = min(top, algebra.dim)
        assert len(cut.splits) == low + 1 and len(cut.delta) == low + 1
        for p in range(low + 1):
            assert cut.harmonic_basis(p) == full.harmonic_basis(p), p
            assert cut.harmonic_coords(p) == full.harmonic_coords(p), p
            assert cut.splits[p].exact == full.splits[p].exact, p
            assert cut.splits[p].exact_coords == full.splits[p].exact_coords, p
        for p in range(1, low + 1):
            assert cut.delta[p] == full.delta[p], p
        assert cut.betti() == full.betti()[: low + 1]
    assert dga.betti() == full.betti()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "algebra", [a for _, a in TRUNCATION_CASES], ids=[n for n, _ in TRUNCATION_CASES]
)
def test_delta_on_degree_one_is_zero(algebra, strategy):
    # d(1) = 0 and degree 0 is the unit, so the exact part of degree 1 is
    # zero: mc-check's gauge condition delta(phi) = 0 holds for every germ.
    dga = Dga(algebra)
    delta1 = split_complex(dga, strategy, top=READBACK_TOP).delta_cols(1)
    assert len(delta1) == dga.dim_at(1) and not any(delta1)


@pytest.mark.parametrize(
    "top", [None, GERM_TOP, READBACK_TOP], ids=["full", "germ-top", "readback-top"]
)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "algebra", [a for _, a in TRUNCATION_CASES], ids=[n for n, _ in TRUNCATION_CASES]
)
def test_split_matches_the_dense_reference(algebra, strategy, top):
    dga = Dga(algebra)
    dec = split_complex(dga, strategy, inferred_grading(algebra), top=top)
    _assert_matches_reference(dec, split_complex_dense(dga, strategy, top))


def _assert_matches_reference(dec, ref):
    dga = dec.dga
    assert len(dec.splits) == len(ref.splits)
    for p, (split, expected) in enumerate(zip(dec.splits, ref.splits)):
        dim = dga.dim_at(p)
        assert dense_rows(split.harmonic, dim) == expected.harmonic, p
        assert dense_rows(split.exact, dim) == expected.exact, p
        assert dense_rows(split.complement, dim) == expected.complement, p
        coords = dense_columns(split.harmonic_coords, len(split.harmonic))
        assert coords == expected.harmonic_coords, p
    for p in range(1, len(dec.splits)):
        assert dense_columns(dec.delta[p], dga.dim_at(p - 1)) == ref.delta[p], p


@pytest.mark.parametrize("top", [None, GERM_TOP], ids=["full", "germ-top"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["h5", "h5-i-scaled"])
def test_split_builds_no_dense_matrix(monkeypatch, name, strategy, top):
    # The split eliminates only on sparse rows: with the dense builders and
    # the dense rref patched to raise, it still splits, to the reference's data.
    dga = Dga(FIXTURE_ALGEBRAS["h5"] if name == "h5" else h5_i_scaled())
    ref = split_complex_dense(dga, strategy, top)

    def dense(*args, **kwargs):
        raise AssertionError("the split built a dense matrix")

    for attr in ("rref", "zeros", "identity", "transpose"):
        monkeypatch.setattr(la, attr, dense, raising=False)
    dec = split_complex(dga, strategy, top=top)
    monkeypatch.undo()
    _assert_matches_reference(dec, ref)


def _h3_split():
    h3 = FIXTURE_ALGEBRAS["h3"]
    return split_complex(Dga(h3), "metric", inferred_grading(h3))


def test_corrupted_delta_entry_fails_d_delta_check():
    dec = _h3_split()
    # delta(x^y) = -z and d z = -x^y: doubling the entry breaks d o delta = beta.
    assert dec.delta[2][0] == [(2, -ONE)]
    dec.delta[2][0] = [(2, scalar(-2))]
    with pytest.raises(InternalCheckError, match="d o delta != beta in degree 2"):
        _verify_decomposition(dec)


def test_corrupted_harmonic_coordinate_fails_h_d_check():
    dec = _h3_split()
    # d z = -x^y, and x^y is exact: its harmonic coordinates are zero.
    coords = dec.splits[2].harmonic_coords
    assert coords[0] == []
    coords[0] = [(0, ONE)]
    with pytest.raises(InternalCheckError, match="H o d != 0 in degree 1"):
        _verify_decomposition(dec)


@pytest.mark.parametrize(
    "algebra", [a for _, a in TRUNCATION_CASES], ids=[n for n, _ in TRUNCATION_CASES]
)
def test_extend_basis_chooses_the_reference_rows(algebra):
    # The pivot split's inputs in every degree: the exact rows, extended
    # inside the kernel of d; then the same with the kernel rows reversed,
    # so the exact part and the kept rows arrive in another order.
    dga = Dga(algebra)
    for p, dim in enumerate(dga.dims()):
        exact = image_basis(dga.d[p - 1], dga.dim_at(p - 1)) if p else []
        kernel = dense_kernel_basis(dga.d[p], dim)
        for inside in (kernel, kernel[::-1], exact + kernel):
            chosen = _extend_basis(_sparse(exact), _sparse(inside))
            assert dense_rows(chosen, dim) == extend_basis_reference(exact, inside, dim), p
        chosen = _extend_basis(_sparse(exact), _sparse(kernel))
        assert len(exact) + len(chosen) == len(kernel), p


def _sparse(rows):
    return [sparse(row) for row in rows]


ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, scalar(2), scalar("1/3"), I, ONE - I])


def _rows(n, max_size):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=max_size)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _rows(n, 4), _rows(n, 7))))
def test_extend_basis_matches_the_reference_on_any_rows(case):
    # Any base (reduced or not, dependent rows included) and any candidate
    # rows over Q(i), with a sum of two candidates as one more.
    dim, base, inside = case
    if len(inside) > 1:
        inside.append([x + y for x, y in zip(inside[0], inside[1])])
    chosen = _extend_basis(_sparse(base), _sparse(inside))
    assert dense_rows(chosen, dim) == extend_basis_reference(base, inside, dim)
