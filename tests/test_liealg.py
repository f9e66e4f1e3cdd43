import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_ALGEBRAS,
    GENERATED,
    GRADED_NILPOTENT,
    I,
    abelian,
    book3,
    dense,
    dense_ad,
    dense_bracket,
    dense_in_row_space,
    dense_rows,
    dense_rref,
    derived_subalgebra,
    h5_i_scaled,
    infer_grading_dense,
    is_unimodular_dense,
    jacobi_counterexample_dense,
    jordan_chevalley_dense,
    non_unimodular2,
    series_dense,
    sparse,
    sparse_columns,
    unchecked_algebra,
)

from germkit import fixtures, linalg
from germkit.cedga import CharacterData, TorsionComponent
from germkit.errors import PreconditionError
from germkit.jordan import jordan_chevalley
from germkit.kuranishi import ObstructionSystem
from germkit.liealg import (
    Grading,
    LieAlgebra,
    Subspace,
    basis_aligned_weights,
    derived_series,
    infer_grading_basis_aligned,
    is_solvable,
    lower_central_series,
    span_of_brackets,
    verify_natural_grading,
)
from germkit.nilshadow import SolvableInput
from germkit.scalars import ONE, ZERO, scalar


def test_jacobi_pass_on_heisenberg():
    assert FIXTURE_ALGEBRAS["h3"].jacobi_counterexample() is None


def test_jacobi_counterexample_is_reported():
    bad = unchecked_algebra(
        ("e1", "e2", "e3"),
        {(0, 1): {2: scalar(1)}, (0, 2): {0: scalar(1)}},
    )
    witness = bad.jacobi_counterexample()
    assert witness is not None
    i, j, k, total = witness
    assert (i, j, k) == (0, 1, 2)
    # the cyclic sum collapses to e3
    assert [str(c) for c in dense(total, 3)] == ["0", "0", "1"]
    with pytest.raises(PreconditionError):
        LieAlgebra(("e1", "e2", "e3"), {(0, 1): {2: scalar(1)}, (0, 2): {0: scalar(1)}})


def test_any_2dim_bracket_satisfies_jacobi():
    algebra = LieAlgebra(("T", "X"), {(0, 1): {0: scalar(5), 1: scalar(-3)}})
    assert algebra.jacobi_counterexample() is None


def test_lower_central_series_examples():
    lcs = lower_central_series(FIXTURE_ALGEBRAS["h3"])
    assert lcs.dims() == [3, 1, 0] and lcs.nu == 2
    assert lower_central_series(FIXTURE_ALGEBRAS["abelian3"]).nu == 1
    fil = lower_central_series(FIXTURE_ALGEBRAS["filiform4"])
    assert fil.nu == 3 and fil.dims() == [4, 2, 1, 0]
    assert lower_central_series(fixtures.sl2()).nu is None


def test_lcs_chain_bracket_compatibility():
    # [g^(i), g^(j)] must land in g^(i+j)
    for algebra in GRADED_NILPOTENT.values():
        lcs = lower_central_series(algebra)
        chain = list(lcs.chain)
        zero = Subspace.zero(algebra.dim)
        while len(chain) < 2 * len(lcs.chain):
            chain.append(zero)
        for i, si in enumerate(lcs.chain, start=1):
            for j, sj in enumerate(lcs.chain, start=1):
                generated = span_of_brackets(algebra, si, sj)
                assert chain[i + j - 1].contains_subspace(generated)


def test_unimodularity():
    assert FIXTURE_ALGEBRAS["h3"].is_unimodular()
    assert not non_unimodular2().is_unimodular()
    assert FIXTURE_ALGEBRAS["solv_heisenberg"].is_unimodular()
    assert fixtures.sl2().is_unimodular()


UNIMODULARITY_CASES = {
    **{f"fixture:{name}": a for name, a in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": a for name, a in GENERATED.items()},
    "non_unimodular2": non_unimodular2(),
    "book3": book3(),
    # sol3 with T in the middle: [Y, T] = Y and [T, X] = X.  Both traces of
    # ad T come from entries with opposite roles of T, and they cancel.
    "sol3_reordered": LieAlgebra(("Y", "T", "X"), {(0, 1): {0: scalar(1)}, (1, 2): {2: scalar(1)}}),
}


@pytest.mark.parametrize("name", sorted(UNIMODULARITY_CASES))
def test_sparse_unimodularity_matches_the_dense_traces(name):
    algebra = UNIMODULARITY_CASES[name]
    assert algebra.is_unimodular() == is_unimodular_dense(algebra)


def test_solvability():
    assert is_solvable(FIXTURE_ALGEBRAS["solv_heisenberg"])
    assert is_solvable(FIXTURE_ALGEBRAS["h5"])
    assert not is_solvable(fixtures.sl2())


def test_derived_subalgebra():
    derived = derived_subalgebra(FIXTURE_ALGEBRAS["solv_heisenberg"])
    assert derived.dim == 3
    for idx in (1, 2, 3):
        assert derived.contains(FIXTURE_ALGEBRAS["solv_heisenberg"].basis_vector(idx))
    second = derived_series(FIXTURE_ALGEBRAS["solv_heisenberg"])[1]
    assert second.dim == 3 and second.contains_subspace(derived)


def test_verify_natural_grading_standard_layers():
    h3 = FIXTURE_ALGEBRAS["h3"]
    grading = Grading(
        (
            Subspace.from_vectors(3, [h3.basis_vector(0), h3.basis_vector(1)]),
            Subspace.from_vectors(3, [h3.basis_vector(2)]),
        )
    )
    assert verify_natural_grading(h3, lower_central_series(h3), grading) is None


def test_verify_natural_grading_skew_layer():
    # first layer spanned by X and Y + Z still works: [X, Y+Z] = Z
    h3 = FIXTURE_ALGEBRAS["h3"]
    skew = {1: scalar(1), 2: scalar(1)}
    grading = Grading(
        (
            Subspace.from_vectors(3, [h3.basis_vector(0), skew]),
            Subspace.from_vectors(3, [h3.basis_vector(2)]),
        )
    )
    assert verify_natural_grading(h3, lower_central_series(h3), grading) is None


def test_verify_natural_grading_violations():
    h3 = FIXTURE_ALGEBRAS["h3"]
    bad = Grading(
        (
            Subspace.from_vectors(3, [h3.basis_vector(0), h3.basis_vector(2)]),
            Subspace.from_vectors(3, [h3.basis_vector(1)]),
        )
    )
    lcs = lower_central_series(h3)
    assert verify_natural_grading(h3, lcs, bad) is not None
    with pytest.raises(PreconditionError):
        verify_natural_grading(
            h3, lcs, Grading((Subspace.full(3),))
        )  # wrong layer count


def test_filiform_grading():
    fil = FIXTURE_ALGEBRAS["filiform4"]
    lcs = lower_central_series(fil)
    grading = infer_grading_basis_aligned(fil, lcs)
    assert grading is not None
    assert [layer.dim for layer in grading.layers] == [2, 1, 1]
    assert verify_natural_grading(fil, lcs, grading) is None
    assert basis_aligned_weights(grading) == [1, 1, 2, 3]


def test_infer_grading_examples():
    h3 = FIXTURE_ALGEBRAS["h3"]
    grading = infer_grading_basis_aligned(h3, lower_central_series(h3))
    assert grading is not None
    assert [layer.dim for layer in grading.layers] == [2, 1]
    a4 = abelian(4)
    flat = infer_grading_basis_aligned(a4, lower_central_series(a4))
    assert flat is not None and flat.depth == 1
    assert flat.layers[0].dim == 4


def test_infer_then_verify_on_all_graded_fixtures():
    for name, algebra in GRADED_NILPOTENT.items():
        lcs = lower_central_series(algebra)
        grading = infer_grading_basis_aligned(algebra, lcs)
        assert grading is not None, name
        assert verify_natural_grading(algebra, lcs, grading) is None, name


def _zero_positions(algebra):
    n = algebra.dim
    table = {(i, j): comps for i, j, comps in algebra.nonzero_brackets()}
    for i in range(n):
        for j in range(i + 1, n):
            comps = table.get((i, j), {})
            for k in range(n):
                if k not in comps:
                    yield (i, j, k)


def _mutations(algebra):
    """(position, ``algebra`` with 1 added to the zero structure constant
    there) for each position of ``_zero_positions``."""
    for (i, j, k) in _zero_positions(algebra):
        table = {(a, b): comps for a, b, comps in algebra.nonzero_brackets()}
        entry = dict(table.get((i, j), {}))
        entry[k] = entry.get(k, scalar(0)) + scalar(1)
        table[(i, j)] = entry
        yield (i, j, k), unchecked_algebra(algebra.labels, table)


MUTATED = ("h3", "filiform4", "h5")


@pytest.mark.parametrize("name", MUTATED)
def test_corrupting_a_structure_constant_is_never_silently_wrong(name):
    """Adding 1 to a structure constant is either detected or harmless.

    Detected means the Jacobi check fails or the lower central series
    changes.  The undetectable perturbations are exactly the ones giving an
    equivalent presentation (a rescaling or a triangular shear of the
    basis); for those every computed invariant must agree with the
    original, so nothing downstream can silently go wrong.
    """
    from conftest import oracle_betti

    algebra = GRADED_NILPOTENT[name]
    baseline_chain = lower_central_series(algebra).chain
    baseline_dims = [s.dim for s in baseline_chain]
    baseline_betti = oracle_betti(algebra)
    detected = 0
    mutations = list(_mutations(algebra))
    for (i, j, k), mutated in mutations:
        if mutated.jacobi_counterexample() is not None:
            detected += 1
            continue
        if lower_central_series(mutated).chain != baseline_chain:
            detected += 1
            continue
        # not detected: must be an equivalent presentation
        assert lower_central_series(mutated).dims() == baseline_dims, (name, i, j, k)
        assert oracle_betti(mutated) == baseline_betti, (name, i, j, k)
    assert detected > len(mutations) // 2, name


def test_sparse_jacobi_matches_the_dense_reference():
    # Same first failing triple and the same cyclic sum, entry for entry
    # and as printed, on every fixture, generated algebra and corrupted
    # table of the test above.
    cases = [*FIXTURE_ALGEBRAS.values(), *GENERATED.values()] + [
        mutated
        for name in MUTATED
        for _, mutated in _mutations(GRADED_NILPOTENT[name])
    ]
    failing = 0
    for algebra in cases:
        found = algebra.jacobi_counterexample()
        reference = jacobi_counterexample_dense(algebra)
        if found is None:
            assert reference is None, algebra
            continue
        failing += 1
        total = dense(found[3], algebra.dim)
        assert (*found[:3], total) == reference, algebra
        assert algebra.vector_str(found[3]) == algebra.vector_str(sparse(reference[3]))
        assert [str(c) for c in total] == [str(c) for c in reference[3]]
    assert failing > 0


# -- the sparse algebra side against the dense references ----------------------

EQUIVALENCE_CASES = {
    **{f"fixture:{name}": a for name, a in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": a for name, a in GENERATED.items()},
    "h5_i_scaled": h5_i_scaled(),
}

ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, scalar(2), scalar("1/3"), I, ONE - I])


@st.composite
def algebra_vectors(draw):
    """An algebra of EQUIVALENCE_CASES, two lists of dense vectors over Q(i)
    (the second sometimes holding a sum of the first's) and a probe."""
    algebra = EQUIVALENCE_CASES[draw(st.sampled_from(sorted(EQUIVALENCE_CASES)))]
    vector = st.lists(ENTRIES, min_size=algebra.dim, max_size=algebra.dim)
    left = draw(st.lists(vector, max_size=4))
    right = draw(st.lists(vector, max_size=3))
    if len(left) > 1 and draw(st.booleans()):
        right.append([x + y for x, y in zip(left[0], left[1])])
    return algebra, left, right, draw(vector)


def _dense_subspace(sub):
    return dense_rows(sub.rows, sub.ambient_dim), list(sub.pivots)


@settings(max_examples=150, deadline=None)
@given(algebra_vectors())
def test_algebra_side_matches_the_dense_references(case):
    # Subspace construction, contains and add, the bracket, ad, the span of
    # brackets and Jordan-Chevalley of ad, each against its dense reference.
    algebra, left, right, probe = case
    n = algebra.dim
    a = Subspace.from_vectors(n, map(sparse, left))
    b = Subspace.from_vectors(n, map(sparse, right))
    for sub, vectors in ((a, left), (b, right)):
        rows, pivots = dense_rref(vectors, n)
        assert _dense_subspace(sub) == (rows, pivots)
        for v in vectors + [probe]:
            assert sub.contains(sparse(v)) == dense_in_row_space(rows, pivots, v)
    assert _dense_subspace(a.add(b)) == dense_rref(left + right, n)
    assert a.add(b) == Subspace.from_vectors(n, map(sparse, right + left))
    brackets = [
        dense_bracket(algebra, u, v)
        for u in dense_rows(a.rows, n)
        for v in dense_rows(b.rows, n)
    ]
    assert _dense_subspace(span_of_brackets(algebra, a, b)) == dense_rref(brackets, n)
    for u in left + [probe]:
        bracket = algebra.bracket(sparse(u), sparse(probe))
        assert all(bracket.values())
        assert dense(bracket, n) == dense_bracket(algebra, u, probe)
        assert algebra.ad(sparse(u)) == sparse_columns(dense_ad(algebra, u))
    semi, nil = jordan_chevalley(algebra.ad(sparse(probe)))
    ref_semi, ref_nil = jordan_chevalley_dense(dense_ad(algebra, probe))
    assert (semi, nil) == (sparse_columns(ref_semi), sparse_columns(ref_nil))


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_series_and_grading_match_the_dense_references(name):
    algebra = EQUIVALENCE_CASES[name]
    lcs = lower_central_series(algebra)
    assert [_dense_subspace(s) for s in lcs.chain] == series_dense(algebra, derived=False)
    derived = [_dense_subspace(s) for s in derived_series(algebra)]
    assert derived == series_dense(algebra, derived=True)
    grading = infer_grading_basis_aligned(algebra, lcs)
    layers = None if grading is None else [_dense_subspace(s)[0] for s in grading.layers]
    assert layers == infer_grading_dense(algebra)


@pytest.mark.parametrize("name", ["h5", "filiform4"])
def test_series_and_grading_build_no_dense_rows(monkeypatch, name):
    # Subspaces eliminate on sparse rows only: with the dense-row ``rref``
    # patched to raise, the series and the inferred grading come out as before.
    algebra = GRADED_NILPOTENT[name]
    lcs = lower_central_series(algebra)
    expected = (lcs, derived_series(algebra), infer_grading_basis_aligned(algebra, lcs))

    def dense_rref_called(*args, **kwargs):
        raise AssertionError("the algebra side built dense rows")

    monkeypatch.setattr(linalg, "rref", dense_rref_called)
    lcs = lower_central_series(algebra)
    got = (lcs, derived_series(algebra), infer_grading_basis_aligned(algebra, lcs))
    monkeypatch.undo()
    assert got == expected
    assert expected[2] is not None


def test_the_read_only_records_refuse_assignment():
    # The records that were frozen dataclasses (``liealg.Frozen`` now) raise
    # on assigning or deleting a field, and hold no __dict__ for new ones.
    h3 = FIXTURE_ALGEBRAS["h3"]
    lcs = lower_central_series(h3)
    records = [
        Subspace.full(3),
        lcs,
        infer_grading_basis_aligned(h3, lcs),
        TorsionComponent(2, (1, 0, 1)),
        CharacterData(rank=1, exponents=((1,), (-1,), (0,))),
        SolvableInput(h3, Subspace.full(3), Subspace.zero(3)),
        ObstructionSystem(("t1",), (), (), 2, 3, True, []),
    ]
    for record in records:
        field = record.__slots__[0]
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = value
        assert getattr(record, field) is value
