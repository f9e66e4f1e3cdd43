import pytest

from germkit import fixtures
import germkit.linalg as la
from germkit.errors import PreconditionError
from germkit.liealg import (
    Subspace,
    derived_subalgebra,
    lower_central_series,
)
from germkit.nilshadow import SolvableInput, ad_s_map, nilshadow, validate_solvable_input
from germkit.scalars import scalar


def test_ad_s_of_diagonal_derivation():
    data = fixtures.solvable_heisenberg_input()
    ads = ad_s_map(data)
    diag = [ads.matrices[0][d][d] for d in range(4)]
    assert [str(c) for c in diag] == ["0", "1", "-1", "0"]
    off = [
        ads.matrices[0][r][c]
        for r in range(4)
        for c in range(4)
        if r != c
    ]
    assert all(not x for x in off)
    for i in (1, 2, 3):  # nilradical directions map to zero
        assert la.is_zero_matrix(ads.matrices[i])


def test_nilshadow_of_solvable_heisenberg():
    shadow, lcs = nilshadow(fixtures.solvable_heisenberg_input())
    assert shadow.labels == ("T", "X", "Y", "Z")
    assert shadow.nonzero_brackets() == [(1, 2, {3: scalar(1)})]
    assert lcs.nu == 2
    fresh = lower_central_series(shadow)
    assert (lcs.nu, lcs.dims()) == (fresh.nu, fresh.dims())


def test_nilshadow_of_split_diagonal_action_is_direct_sum():
    shadow, _ = nilshadow(fixtures.sol3_input())
    assert shadow.nonzero_brackets() == []  # Q + Q^2, all brackets vanish


def test_nilshadow_with_rotation_action():
    # [T, X] = Y, [T, Y] = -X: ad_T has eigenvalues +-i but is semisimple,
    # so the corrected bracket is abelian
    g = fixtures._alg(
        ["T", "X", "Y"], {(0, 1): {2: 1}, (0, 2): {1: -1}}
    )
    data = SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(3, [g.basis_vector(1), g.basis_vector(2)]),
        complement=Subspace.from_vectors(3, [g.basis_vector(0)]),
    )
    shadow, _ = nilshadow(data)
    assert shadow.nonzero_brackets() == []


def test_nilpotent_input_is_fixed():
    h3 = fixtures.heisenberg3()
    data = SolvableInput(
        algebra=h3,
        nilradical=Subspace.full(3),
        complement=Subspace.zero(3),
    )
    ads = ad_s_map(data)
    assert all(la.is_zero_matrix(m) for m in ads.matrices)
    shadow, _ = nilshadow(data)
    assert shadow.nonzero_brackets() == h3.nonzero_brackets()


def test_abelian_any_declared_splitting_gives_zero_map():
    g = fixtures.abelian(3)
    data = SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(3, [g.basis_vector(0)]),
        complement=Subspace.from_vectors(3, [g.basis_vector(1), g.basis_vector(2)]),
    )
    assert all(la.is_zero_matrix(m) for m in ad_s_map(data).matrices)
    assert nilshadow(data)[0].nonzero_brackets() == []


def test_bracket_unchanged_on_nilradical_and_derived_contained():
    data = fixtures.solvable_heisenberg_input()
    shadow, _ = nilshadow(data)
    g = data.algebra
    for u in data.nilradical.rows:
        for v in data.nilradical.rows:
            assert shadow.bracket(list(u), list(v)) == g.bracket(list(u), list(v))
    assert data.nilradical.contains_subspace(derived_subalgebra(shadow))


def test_alternate_complement_gives_isomorphic_invariants():
    g = fixtures.solvable_heisenberg()
    shifted = [scalar(1), scalar(1), scalar(0), scalar(0)]  # T + X
    data2 = SolvableInput(
        algebra=g,
        nilradical=fixtures.solvable_heisenberg_input().nilradical,
        complement=Subspace.from_vectors(4, [shifted]),
    )
    shadow1, _ = nilshadow(fixtures.solvable_heisenberg_input())
    shadow2, _ = nilshadow(data2)
    lcs1, lcs2 = lower_central_series(shadow1), lower_central_series(shadow2)
    assert lcs1.dims() == lcs2.dims() and lcs1.nu == lcs2.nu
    from conftest import oracle_betti

    assert oracle_betti(shadow1) == oracle_betti(shadow2)


def test_bad_splitting_is_rejected():
    g = fixtures.solvable_heisenberg()
    # X is not a valid complement direction: (ad_X)_s(X) = 0 holds, but
    # V = <X> + nilradical <T, Y, Z> fails the ideal/derived checks
    data = SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(
            4, [g.basis_vector(0), g.basis_vector(2), g.basis_vector(3)]
        ),
        complement=Subspace.from_vectors(4, [g.basis_vector(1)]),
    )
    with pytest.raises(PreconditionError):
        validate_solvable_input(data)


def test_non_solvable_input_is_rejected():
    g = fixtures.sl2()
    data = SolvableInput(
        algebra=g,
        nilradical=Subspace.full(3),
        complement=Subspace.zero(3),
    )
    with pytest.raises(PreconditionError):
        validate_solvable_input(data)
