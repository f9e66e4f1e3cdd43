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
    verify_natural_grading_reference,
    weight_layers,
)

from germkit import fixtures, linalg
from germkit.cedga import CharacterData
from germkit.errors import PreconditionError
from germkit.jordan import jordan_chevalley
from germkit.kuranishi import ObstructionSystem
from germkit.liealg import (
    Grading,
    LieAlgebra,
    LowerCentralSeries,
    Subspace,
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
        zero = Subspace(algebra.dim, (), ())
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


def _h3_layers(*layers):
    """Subspaces of h3 (basis X, Y, Z), each spanned by sparse rows."""
    return tuple(Subspace.from_vectors(3, rows) for rows in layers)


X, Y, Z = ({k: ONE} for k in range(3))


def test_verify_natural_grading_standard_layers():
    h3 = FIXTURE_ALGEBRAS["h3"]
    grading = Grading.from_layers(_h3_layers([X, Y], [Z]))
    assert grading == Grading((1, 1, 2), 2)
    assert verify_natural_grading(h3, lower_central_series(h3), grading) is None


def test_from_layers_refuses_a_skew_layer():
    # X and Y + Z span a natural first layer ([X, Y + Z] = Z), but Y + Z is
    # no basis vector, so the layers give no weight per basis vector.
    skew = {1: ONE, 2: ONE}
    h3, lcs = FIXTURE_ALGEBRAS["h3"], lower_central_series(FIXTURE_ALGEBRAS["h3"])
    layers = _h3_layers([X, skew], [Z])
    assert verify_natural_grading_reference(h3, lcs, layers) is None
    for bad in (layers, _h3_layers([X, skew], [Y]), _h3_layers([X, Y, Z], [Z]), ()):
        with pytest.raises(PreconditionError, match="spanned by input basis vectors"):
            Grading.from_layers(bad)


def test_verify_natural_grading_violations():
    h3 = FIXTURE_ALGEBRAS["h3"]
    bad = Grading.from_layers(_h3_layers([X, Z], [Y]))
    lcs = lower_central_series(h3)
    assert verify_natural_grading(h3, lcs, bad) == (
        "layer 1 meets term 2 of the series nontrivially"
    )
    with pytest.raises(PreconditionError, match="1 layers but the nilpotency class is 2"):
        verify_natural_grading(h3, lcs, Grading.from_layers((Subspace.full(3),)))


def test_filiform_grading():
    fil = FIXTURE_ALGEBRAS["filiform4"]
    lcs = lower_central_series(fil)
    grading = infer_grading_basis_aligned(fil, lcs)
    assert grading == Grading((1, 1, 2, 3), 3)
    assert verify_natural_grading(fil, lcs, grading) is None


def test_infer_grading_examples():
    h3 = FIXTURE_ALGEBRAS["h3"]
    assert infer_grading_basis_aligned(h3, lower_central_series(h3)) == Grading((1, 1, 2), 2)
    a4 = abelian(4)
    assert infer_grading_basis_aligned(a4, lower_central_series(a4)) == Grading((1,) * 4, 1)
    sl2 = fixtures.sl2()
    assert infer_grading_basis_aligned(sl2, lower_central_series(sl2)) is None


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

GRADING_CASES = {
    **EQUIVALENCE_CASES,
    # h3 on the basis (X, Y, X + Z): g^(2) holds no basis vector, so no
    # grading by basis vectors exists and the greedy layers stop at layer 2.
    "h3_sheared": LieAlgebra(
        ("A", "B", "C"), {(0, 1): {0: -ONE, 2: ONE}, (1, 2): {0: ONE, 2: -ONE}}
    ),
    # L5 with [e1, f2] = e3 + e4: the levels complement the series, but the
    # bracket breaks them.
    "L5_twisted": LieAlgebra(
        ("e1", "f2", "e3", "e4", "e5"),
        {(0, 1): {2: ONE, 3: ONE}, (0, 2): {3: ONE}, (0, 3): {4: ONE}},
    ),
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


@pytest.mark.parametrize("name", sorted(GRADING_CASES))
def test_series_and_grading_match_the_dense_references(name):
    algebra = GRADING_CASES[name]
    lcs = lower_central_series(algebra)
    assert [_dense_subspace(s) for s in lcs.chain] == series_dense(algebra, derived=False)
    derived = [_dense_subspace(s) for s in derived_series(algebra)]
    assert derived == series_dense(algebra, derived=True)
    # The level weights give the greedy layers wherever the greedy choice
    # finds them, and fail the check wherever it finds none.
    grading = infer_grading_basis_aligned(algebra, lcs)
    reference = infer_grading_dense(algebra)
    if reference is None:
        assert grading is None or verify_natural_grading(algebra, lcs, grading) is not None
    else:
        assert [_dense_subspace(s)[0] for s in weight_layers(grading)] == reference


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


# -- the weight grading against the layer reference --------------------------


def _verdicts(algebra, lcs, grading):
    """``verify_natural_grading`` on ``grading`` and the reference on its
    layers: each verdict, or the message of the PreconditionError raised."""
    out = []
    for verify, arg in (
        (verify_natural_grading, grading),
        (verify_natural_grading_reference, weight_layers(grading)),
    ):
        try:
            out.append(verify(algebra, lcs, arg))
        except PreconditionError as exc:
            out.append(f"raised: {exc}")
    return out


@pytest.mark.parametrize("name", sorted(GRADING_CASES))
def test_verify_matches_the_layer_reference_near_the_level_weights(name):
    # The level weights and every weight vector one entry away from them.
    algebra = GRADING_CASES[name]
    lcs = lower_central_series(algebra)
    grading = infer_grading_basis_aligned(algebra, lcs)
    if grading is None:
        assert lcs.nu is None and infer_grading_dense(algebra) is None
        grading = Grading((1,) * algebra.dim, 1)
    w, depth = grading.weights, grading.depth
    candidates = [w] + [
        w[:k] + (v,) + w[k + 1 :]
        for k in range(len(w))
        for v in range(1, depth + 1)
        if v != w[k]
    ]
    for weights in candidates:
        new, reference = _verdicts(algebra, lcs, Grading(weights, depth))
        assert new == reference, weights


def test_the_level_weights_reach_every_verdict():
    verdicts = set()
    for algebra in GRADING_CASES.values():
        lcs = lower_central_series(algebra)
        grading = infer_grading_basis_aligned(algebra, lcs)
        if grading is not None:
            verdicts.add(verify_natural_grading(algebra, lcs, grading))
    assert verdicts == {
        None,
        "layer 1 meets term 2 of the series nontrivially",
        "[layer 1, layer 1] is not contained in layer 2",
    }


@st.composite
def weighted_algebras(draw):
    """An algebra of GRADING_CASES, weights 1..depth on its basis and a
    series to check them against: the algebra's own, or the filtration by
    weight >= i, which the layers complement, so that only the bracket
    condition decides."""
    algebra = GRADING_CASES[draw(st.sampled_from(sorted(GRADING_CASES)))]
    n, lcs = algebra.dim, lower_central_series(algebra)
    own = lcs.nu is not None and draw(st.booleans())
    depth = lcs.nu if own else draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, depth), min_size=n, max_size=n)))
    if not own:
        chain = tuple(
            Subspace.from_vectors(n, ({k: ONE} for k in range(n) if weights[k] >= i))
            for i in range(1, depth + 2)
        )
        lcs = LowerCentralSeries(chain, depth)
    return algebra, lcs, Grading(weights, depth)


@settings(max_examples=300, deadline=None)
@given(weighted_algebras())
def test_verify_matches_the_layer_reference_on_random_weights(case):
    new, reference = _verdicts(*case)
    assert new == reference


def test_the_read_only_records_refuse_assignment():
    # The records that were frozen dataclasses (``liealg.Frozen`` now) raise
    # on assigning or deleting a field, and hold no __dict__ for new ones.
    h3 = FIXTURE_ALGEBRAS["h3"]
    lcs = lower_central_series(h3)
    records = [
        Subspace.full(3),
        lcs,
        infer_grading_basis_aligned(h3, lcs),
        CharacterData(((1, -1, 0), (1, 0, 1)), (0, 2)),
        SolvableInput(h3, Subspace.full(3), Subspace(3, (), ())),
        ObstructionSystem((), (), 0),
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
