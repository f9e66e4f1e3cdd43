
import pytest

from conftest import (
    FIXTURE_ALGEBRAS,
    GENERATED,
    PARSED_FIXTURES,
    ad_s_matrices_dense,
    dense_columns,
    derived_subalgebra,
    germbench_inputs,
    h5_i_scaled,
    is_zero_matrix,
    solvable_input,
)

from germkit import fixtures, linalg
from germkit.errors import PreconditionError
from germkit.formats import parse_algebra_dict
from germkit.liealg import LieAlgebra, Subspace, lower_central_series
from germkit.nilshadow import SolvableInput, ad_s_map, nilshadow, validate_solvable_input
from germkit.scalars import ONE, scalar


def test_ad_s_of_diagonal_derivation():
    data = solvable_input(PARSED_FIXTURES["solv_heisenberg"])
    ads = ad_s_map(data)
    m0 = dense_columns(ads[0], 4)
    diag = [m0[d][d] for d in range(4)]
    assert [str(c) for c in diag] == ["0", "1", "-1", "0"]
    off = [
        m0[r][c]
        for r in range(4)
        for c in range(4)
        if r != c
    ]
    assert all(not x for x in off)
    for i in (1, 2, 3):  # nilradical directions map to zero
        assert is_zero_matrix(dense_columns(ads[i], 4))


def test_nilshadow_of_solvable_heisenberg():
    shadow, lcs = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    assert shadow.labels == ("T", "X", "Y", "Z")
    assert shadow.nonzero_brackets() == [(1, 2, {3: scalar(1)})]
    assert lcs.nu == 2
    fresh = lower_central_series(shadow)
    assert (lcs.nu, lcs.dims()) == (fresh.nu, fresh.dims())


def test_nilshadow_of_split_diagonal_action_is_direct_sum():
    shadow, _ = nilshadow(solvable_input(PARSED_FIXTURES["sol3"]))
    assert shadow.nonzero_brackets() == []  # Q + Q^2, all brackets vanish


def test_nilshadow_with_rotation_action():
    # ad_T has eigenvalues +-i but is semisimple, so the corrected bracket
    # is abelian
    shadow, _ = nilshadow(_rotation_input())
    assert shadow.nonzero_brackets() == []


def test_nilpotent_input_is_fixed():
    h3 = FIXTURE_ALGEBRAS["h3"]
    data = SolvableInput(
        algebra=h3,
        nilradical=Subspace.full(3),
        complement=Subspace(3, (), ()),
    )
    ads = ad_s_map(data)
    assert all(is_zero_matrix(dense_columns(m, 3)) for m in ads)
    shadow, _ = nilshadow(data)
    assert shadow.nonzero_brackets() == h3.nonzero_brackets()


def test_abelian_any_declared_splitting_gives_zero_map():
    g = FIXTURE_ALGEBRAS["abelian3"]
    data = SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(3, [g.basis_vector(0)]),
        complement=Subspace.from_vectors(3, [g.basis_vector(1), g.basis_vector(2)]),
    )
    assert all(is_zero_matrix(dense_columns(m, 3)) for m in ad_s_map(data))
    assert nilshadow(data)[0].nonzero_brackets() == []


def test_bracket_unchanged_on_nilradical_and_derived_contained():
    data = solvable_input(PARSED_FIXTURES["solv_heisenberg"])
    shadow, _ = nilshadow(data)
    g = data.algebra
    for u in data.nilradical.rows:
        for v in data.nilradical.rows:
            assert shadow.bracket(u, v) == g.bracket(u, v)
    assert data.nilradical.contains_subspace(derived_subalgebra(shadow))


def test_alternate_complement_gives_isomorphic_invariants():
    shadow1, _ = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    shadow2, _ = nilshadow(_shifted_complement_input())
    lcs1, lcs2 = lower_central_series(shadow1), lower_central_series(shadow2)
    assert lcs1.dims() == lcs2.dims() and lcs1.nu == lcs2.nu
    from conftest import oracle_betti

    assert oracle_betti(shadow1) == oracle_betti(shadow2)


def test_bad_splitting_is_rejected():
    g = FIXTURE_ALGEBRAS["solv_heisenberg"]
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
        complement=Subspace(3, (), ()),
    )
    with pytest.raises(PreconditionError):
        validate_solvable_input(data)


def _rotation_input():
    """[T, X] = Y, [T, Y] = -X: ad_T is semisimple with eigenvalues +-i."""
    g = LieAlgebra(("T", "X", "Y"), {(0, 1): {2: ONE}, (0, 2): {1: -ONE}})
    return SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(3, [g.basis_vector(1), g.basis_vector(2)]),
        complement=Subspace.from_vectors(3, [g.basis_vector(0)]),
    )


def _shifted_complement_input():
    """T x| h3 with the complement spanned by T + X, not a basis vector."""
    data = solvable_input(PARSED_FIXTURES["solv_heisenberg"])
    return SolvableInput(
        algebra=data.algebra,
        nilradical=data.nilradical,
        complement=Subspace.from_vectors(4, [{0: scalar(1), 1: scalar(1)}]),
    )


def _nilpotent_input(algebra):
    n = algebra.dim
    return SolvableInput(algebra, Subspace.full(n), Subspace(n, (), ()))


def _solvable_cases():
    inputs = germbench_inputs()
    seeded = parse_algebra_dict(inputs.solvable_heisenberg(2, inputs.rng_for(0, "solv_h5")))
    return {
        "solv_heisenberg": solvable_input(PARSED_FIXTURES["solv_heisenberg"]),
        "sol3": solvable_input(PARSED_FIXTURES["sol3"]),
        "rotation": _rotation_input(),
        "shifted_complement": _shifted_complement_input(),
        "seeded:solv_h5": solvable_input(seeded),
        "h5_i_scaled": _nilpotent_input(h5_i_scaled()),
        **{f"generated:{name}": _nilpotent_input(a) for name, a in GENERATED.items()},
    }


SOLVABLE_CASES = _solvable_cases()


@pytest.mark.parametrize("name", sorted(SOLVABLE_CASES))
def test_ad_s_map_matches_the_dense_reference(name):
    data = SOLVABLE_CASES[name]
    n = data.algebra.dim
    matrices = ad_s_map(data)
    assert [dense_columns(m, n) for m in matrices] == ad_s_matrices_dense(data)
    assert any(map(any, matrices)) == (data.complement.dim > 0)


def test_nilshadow_builds_no_dense_rows(monkeypatch):
    # The nilshadow's checks eliminate on sparse rows only: with the
    # dense-row ``rref`` patched to raise, the results are unchanged.
    data = solvable_input(PARSED_FIXTURES["solv_heisenberg"])

    def results():
        shadow, lcs = nilshadow(data)
        return shadow.nonzero_brackets(), lcs, ad_s_map(data)

    expected = results()

    def dense_rref_called(*args, **kwargs):
        raise AssertionError("the nilshadow built dense rows")

    monkeypatch.setattr(linalg, "rref", dense_rref_called)
    got = results()
    monkeypatch.undo()
    assert got == expected
