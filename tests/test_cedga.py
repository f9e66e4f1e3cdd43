import functools
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_ALGEBRAS,
    GENERATED,
    PARSED_FIXTURES,
    UNIMODULAR,
    Cochain,
    abelian,
    book3,
    dense_kernel_basis,
    dense_rref,
    germbench_inputs,
    heisenberg,
    h5_i_scaled,
    is_zero_matrix,
    non_unimodular2,
    oracle_betti,
    oracle_d_matrix,
    unchecked_algebra,
)

from germkit import fixtures, linalg
from germkit.cedga import (
    CharacterData,
    Dga,
    pd_type_check,
    _pd_type_by_pairing,
    sort_with_sign,
    subdga_from_characters,
    verify_subdga,
    wedge_monomials,
)
from germkit.errors import PreconditionError
from germkit.formats import parse_algebra_dict, parse_characters
from germkit.liealg import LieAlgebra
from germkit.nilshadow import SolvableInput, nilshadow
from germkit.scalars import ONE, ZERO, scalar


def test_h3_differential():
    dga = Dga(FIXTURE_ALGEBRAS["h3"])
    d1 = dga.d[1]
    # dx = dy = 0, dz = -x^y
    assert [d1[r][0] for r in range(3)] == [ZERO, ZERO, ZERO]
    assert [d1[r][1] for r in range(3)] == [ZERO, ZERO, ZERO]
    assert [str(d1[r][2]) for r in range(3)] == ["-1", "0", "0"]
    assert dga.monomials[2][0] == (0, 1)


def test_filiform_differential():
    dga = Dga(FIXTURE_ALGEBRAS["filiform4"])
    # de3 = -e1^e2, de4 = -e1^e3
    d1 = dga.d[1]
    col3 = [d1[r][2] for r in range(6)]
    col4 = [d1[r][3] for r in range(6)]
    m2 = dga.monomials[2]
    assert col3[m2.index((0, 1))] == -ONE and sum(1 for c in col3 if c) == 1
    assert col4[m2.index((0, 2))] == -ONE and sum(1 for c in col4 if c) == 1


def test_abelian_differential_is_zero():
    dga = Dga(abelian(4))
    assert all(is_zero_matrix(m) for m in dga.d)


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
def test_engine_matches_multilinear_oracle(name):
    algebra = UNIMODULAR[name]
    d = Dga(algebra).d
    assert len(d) == algebra.dim + 1
    for p in range(algebra.dim + 1):
        assert d[p] == oracle_d_matrix(algebra, p), (name, p)


def test_dense_rows_are_built_only_for_the_degrees_read():
    dga = Dga(GENERATED["h7"])
    assert [len(m) for m in dga.d] == dga.dims()[1:] + [0]


def test_complex_is_freed_without_the_cyclic_collector():
    # Dga.d keeps nothing: dropping a complex whose dense rows were read
    # leaves no cycle for the collector to find.
    algebra = FIXTURE_ALGEBRAS["h5"]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dga = Dga(algebra)
        assert dga.d[2]
        del dga
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_build_state_is_one_degree_at_a_time():
    # Beside the columns it keeps, the build holds degree p's bitmasks and
    # an index of degree p + 1's, so its peak stays near what the complex
    # keeps: 1.04 times on h13, against 1.44 when every degree's are held.
    algebra = heisenberg(6)  # h13
    tracemalloc.start()
    try:
        dga = Dga(algebra)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dga.columns and peak <= 1.2 * kept


SEED = 3


def _seeded(name: str) -> LieAlgebra:
    """Benchmark algebras with the non-unit constants of seed SEED."""
    inputs = germbench_inputs()
    make = {
        "h9": lambda rng: inputs.heisenberg(4, rng),
        "L8": lambda rng: inputs.filiform(8, rng),
        "solv_h5": lambda rng: inputs.solvable_heisenberg(2, rng),
    }[name]
    return parse_algebra_dict(make(inputs.rng_for(SEED, name))).algebra


# Algebras in which two terms of some d x_I land on one monomial and add or
# cancel: the bitmask build's signs and its dropped zeros against the oracle.
CANCELLING = {"sl2": fixtures.sl2, "gl:3": lambda: fixtures.gl(3), "h5_i": h5_i_scaled}


@pytest.mark.parametrize("name", ["h9", "L8", "solv_h5", *CANCELLING])
def test_seeded_complex_matches_oracle_in_every_degree(name):
    algebra = CANCELLING[name]() if name in CANCELLING else _seeded(name)
    matrices = [oracle_d_matrix(algebra, p) for p in range(algebra.dim + 1)]
    dga = Dga(algebra)
    assert any(c != ONE for _, _, comps in algebra.nonzero_brackets() for c in comps.values())
    assert dga.d == matrices, name
    # The dense Gauss-Jordan rank over Q(i) of each oracle matrix.
    ranks = [len(dense_rref(matrix, dga.dim_at(p))[0]) for p, matrix in enumerate(matrices)]
    assert dga.betti() == [
        dim - ranks[p] - (ranks[p - 1] if p else 0) for p, dim in enumerate(dga.dims())
    ]


def test_dims_are_binomials():
    dga = Dga(FIXTURE_ALGEBRAS["h5"])
    assert dga.dims() == [1, 5, 10, 10, 5, 1]


def test_wedge_examples():
    dga = Dga(FIXTURE_ALGEBRAS["h3"])
    x = Cochain.from_monomial(dga, (0,))
    y = Cochain.from_monomial(dga, (1,))
    z = Cochain.from_monomial(dga, (2,))
    xy = x.wedge(y)
    assert str(xy) == "X∧Y"
    assert y.wedge(x).coeffs == tuple(-c for c in xy.coeffs)
    assert x.wedge(x).is_zero()
    assert str(xy.wedge(z)) == "X∧Y∧Z"


def test_graded_commutativity_and_leibniz_on_all_monomial_pairs():
    for algebra in (FIXTURE_ALGEBRAS["h3"], FIXTURE_ALGEBRAS["filiform4"]):
        dga = Dga(algebra)
        monos = [m for level in dga.monomials for m in level]
        for left in monos:
            for right in monos:
                p, q = len(left), len(right)
                if p + q > algebra.dim:
                    continue
                a = Cochain.from_monomial(dga, left)
                b = Cochain.from_monomial(dga, right)
                ab, ba = a.wedge(b), b.wedge(a)
                sign = scalar((-1) ** (p * q))
                assert ab.coeffs == tuple(sign * c for c in ba.coeffs)
                lhs = ab.d()
                rhs = a.d().wedge(b) + a.wedge(b.d()).scale(scalar((-1) ** p))
                assert lhs.coeffs == rhs.coeffs


def _random_bracket_table(rng, n):
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                comps = {
                    k: scalar(rng.randint(-2, 2))
                    for k in rng.sample(range(n), rng.randint(1, 2))
                }
                comps = {k: c for k, c in comps.items() if c}
                if comps:
                    table[(i, j)] = comps
    return table


def test_jacobi_iff_d_squared_zero():
    rng = random.Random(4242)
    seen_fail = seen_pass = 0
    for _ in range(60):
        n = rng.choice([3, 4])
        algebra = unchecked_algebra(
            tuple(f"e{i}" for i in range(n)), _random_bracket_table(rng, n)
        )
        if algebra.jacobi_counterexample() is None:
            Dga(algebra)  # must build: d o d == 0 is checked inside
            seen_pass += 1
        else:
            with pytest.raises(PreconditionError):
                Dga(algebra)
            seen_fail += 1
    assert seen_pass > 0 and seen_fail > 0


def _non_jacobi4() -> LieAlgebra:
    """Violates Jacobi: d o d fails in degree 1 at five entries, and the
    first in row-major order (row 0, column 2) is not the first by column
    (row 2, column 0)."""
    return unchecked_algebra(
        tuple("ABCD"),
        {
            (0, 1): {1: -ONE},
            (0, 2): {2: ONE},
            (1, 2): {2: ONE},
            (1, 3): {1: -ONE},
            (2, 3): {0: -ONE},
        },
    )


def _oracle_columns(algebra: LieAlgebra, monomials) -> list:
    """The sparse columns of d on ``monomials``, a per-degree selection,
    read off the multilinear oracle of the full complex of ``algebra``."""
    n = algebra.dim
    index = {m: i for p in range(n + 1) for i, m in enumerate(itertools.combinations(range(n), p))}
    columns = []
    for p, level in enumerate(monomials):
        matrix = oracle_d_matrix(algebra, p)
        above = monomials[p + 1] if p < n else ()
        columns.append([
            [(r, matrix[index[row]][index[m]]) for r, row in enumerate(above)
             if matrix[index[row]][index[m]]]
            for m in level
        ])
    return columns


@pytest.mark.parametrize(
    "monomials, failure",
    [
        (None, "degree 1 entry (row A∧B∧C, column C) = -1"),
        # a d-closed selection: the check runs on restrictions too
        (
            [[()], [(0,)], [(2, 3)], [(0, 2, 3), (1, 2, 3)], [(0, 1, 2, 3)]],
            "degree 1 entry (row A∧C∧D, column A) = -1",
        ),
    ],
    ids=["full", "selection"],
)
def test_d_squared_failure_names_the_first_entry(monomials, failure):
    algebra = _non_jacobi4()
    with pytest.raises(PreconditionError) as info:
        if monomials is None:
            Dga(algebra)
        else:
            # A non-Jacobi parent fails before any restriction: restrict a
            # valid parent on the same labels that carries the oracle's d.
            parent = Dga(LieAlgebra(algebra.labels, {}))
            parent.columns = _oracle_columns(algebra, parent.monomials)
            parent.restrict(monomials)
    assert str(info.value) == (
        f"d o d != 0: {failure}; the structure constants violate the Jacobi identity"
    )


def test_pd_type_full_complexes():
    for name, algebra in UNIMODULAR.items():
        assert pd_type_check(Dga(algebra)) is None, name
    for algebra in (non_unimodular2(), book3()):
        violation = pd_type_check(Dga(algebra))
        assert violation == f"d does not vanish on degree {algebra.dim - 1} (top - 1)"


PD_CASES = {
    **{f"fixture:{name}": a for name, a in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": a for name, a in GENERATED.items()},
    "non_unimodular2": non_unimodular2(),
    "book3": book3(),
}


@pytest.mark.parametrize("name", sorted(PD_CASES))
def test_pd_shortcut_matches_the_pairing_check(name):
    """On a full complex the unimodularity shortcut gives the general verdict."""
    dga = Dga(PD_CASES[name])
    assert pd_type_check(dga) == _pd_type_by_pairing(dga)


@pytest.mark.parametrize("name", sorted(PD_CASES))
def test_betti_from_ranks_matches_oracle(name):
    algebra = PD_CASES[name]
    assert Dga(algebra).betti() == oracle_betti(algebra)


def _betti_from_every_rank(dga):
    dims = dga.dims()
    ranks = [linalg.sparse_rank(cols) for cols in dga.columns]
    return [dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(len(dims))]


BETTI_CASES = {
    **PD_CASES,
    "subdga:solv_heisenberg": lambda: subdga_from_characters(
        Dga(FIXTURE_ALGEBRAS["q_plus_h3"]), PARSED_FIXTURES["solv_heisenberg"].characters
    ),
    "subdga:h5_weight0": lambda: subdga_from_characters(
        Dga(FIXTURE_ALGEBRAS["h5"]),
        CharacterData(((1, -1, 1, -1, 0),), (0,)),
    ),
}


@pytest.mark.parametrize("name", sorted(BETTI_CASES))
def test_betti_mirrors_ranks_only_on_a_unimodular_full_complex(monkeypatch, name):
    # On a full complex of a unimodular algebra rank d_p = rank d_(n-1-p), so
    # betti() ranks degrees p <= (n-1)/2 (and the empty d_n) and mirrors the
    # rest; a non-unimodular algebra or a sub-DGA ranks every degree.
    case = BETTI_CASES[name]
    dga = case() if callable(case) else Dga(case)
    full = _betti_from_every_rank(dga)
    ranked = []
    rank = linalg.sparse_rank
    monkeypatch.setattr(linalg, "sparse_rank", lambda cols: ranked.append(cols) or rank(cols))
    assert dga.betti() == full
    n = dga.algebra.dim
    dual = not name.startswith("subdga:") and dga.algebra.is_unimodular()
    assert len(ranked) == ((n + 1) // 2 + 1 if dual else n + 1)


def test_subdga_selection_from_characters():
    dga = Dga(FIXTURE_ALGEBRAS["q_plus_h3"])
    chars = PARSED_FIXTURES["solv_heisenberg"].characters
    sub = subdga_from_characters(dga, chars)
    got = [tuple(i + 1 for i in m) for level in sub.monomials for m in level]
    assert got == [
        (),
        (1,),
        (4,),
        (1, 4),
        (2, 3),
        (1, 2, 3),
        (2, 3, 4),
        (1, 2, 3, 4),
    ]
    assert verify_subdga(dga, sub.monomials) is None
    assert pd_type_check(sub) is None


def test_all_zero_exponents_select_everything():
    dga = Dga(FIXTURE_ALGEBRAS["h3"])
    chars = CharacterData(((0, 0, 0),), (0,))
    sub = subdga_from_characters(dga, chars)
    assert sub.dims() == [1, 3, 3, 1]


def test_two_generator_zero_sum_selection():
    dga = Dga(abelian(2))
    chars = CharacterData(((1, -1),), (0,))
    sub = subdga_from_characters(dga, chars)
    got = [tuple(i + 1 for i in m) for level in sub.monomials for m in level]
    assert got == [(), (1, 2)]


def test_torsion_components():
    dga = Dga(FIXTURE_ALGEBRAS["abelian3"])
    chars = CharacterData(((1, 1, 0),), (2,))
    sub = subdga_from_characters(dga, chars)
    got = [tuple(i + 1 for i in m) for level in sub.monomials for m in level]
    assert got == [(), (3,), (1, 2), (1, 2, 3)]


CHARACTER_ALGEBRAS = {
    **{f"fixture:{name}": algebra for name, algebra in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": algebra for name, algebra in GENERATED.items()},
}


@functools.cache
def _full_complex(name: str) -> Dga:
    return Dga(CHARACTER_ALGEBRAS[name])


@st.composite
def character_files(draw, dim: int) -> dict:
    """Character data as a file holds it: rank 0-2 exponent vectors and
    0-2 torsion components of modulus 2-6, negative entries included."""
    rank = draw(st.integers(0, 2))
    exponent = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    data = {"rank": rank, "exponents": draw(st.lists(exponent, min_size=dim, max_size=dim))}
    component = st.fixed_dictionaries({
        "modulus": st.integers(2, 6),
        "residues": st.lists(st.integers(-7, 7), min_size=dim, max_size=dim),
    })
    torsion = draw(st.lists(component, max_size=2))
    if torsion or draw(st.booleans()):
        data["torsion"] = torsion
    return data


@pytest.mark.parametrize("name", sorted(CHARACTER_ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weight_tables_select_what_the_raw_sums_select(name, data):
    # The parsed weight tables against the file's own numbers: x_I is kept
    # iff the exponents over I sum to zero in each coordinate and the
    # residues over I to zero modulo each torsion modulus.
    dga = _full_complex(name)
    raw = data.draw(character_files(dga.algebra.dim))
    characters = parse_characters(raw, dga.algebra.dim, "characters")

    def invariant(mono):
        free = all(sum(raw["exponents"][i][c] for i in mono) == 0 for c in range(raw["rank"]))
        return free and all(
            sum(comp["residues"][i] for i in mono) % comp["modulus"] == 0
            for comp in raw.get("torsion", [])
        )

    for level in dga.monomials:
        for mono in level:
            assert characters.selects(mono) == invariant(mono), mono


def test_incompatible_characters_are_rejected():
    # weight data that is not additive along the bracket: dz escapes
    dga = Dga(FIXTURE_ALGEBRAS["h3"])
    chars = CharacterData(((1, 2, 0),), (0,))
    with pytest.raises(PreconditionError):
        subdga_from_characters(dga, chars)


def test_unimodular_duality_of_selections():
    # when the exponents of all generators sum to zero, selections are
    # closed under complements
    dga = Dga(FIXTURE_ALGEBRAS["q_plus_h3"])
    chars = PARSED_FIXTURES["solv_heisenberg"].characters
    assert all(sum(table) == 0 for table in chars.tables)
    sub = subdga_from_characters(dga, chars)
    chosen = {mono for level in sub.monomials for mono in level}
    everything = tuple(range(4))
    for mono in chosen:
        complement = tuple(i for i in everything if i not in mono)
        assert complement in chosen


def test_verify_subdga_violations():
    dga = Dga(FIXTURE_ALGEBRAS["h3"])
    # closed: 1, x, y in degrees 0..1 and x^y in degree 2
    good = (((),), ((0,), (1,)), ((0, 1),), ())
    assert verify_subdga(dga, good) is None
    # selecting z without x^y breaks d-closure
    bad = (((),), ((2,),), (), ())
    message = verify_subdga(dga, bad)
    assert message is not None and "X∧Y" in message
    # missing unit
    assert verify_subdga(dga, ((), ((0,),), (), ())) is not None


def _character_selection(algebra: LieAlgebra, characters: CharacterData):
    return algebra, subdga_from_characters(Dga(algebra), characters)


def _nilshadow_selection(k: int):
    """The character selection of the nilshadow of germbench's
    T x| h(2k+1) at seed SEED."""
    inputs = germbench_inputs()
    parsed = parse_algebra_dict(
        inputs.solvable_heisenberg(k, inputs.rng_for(SEED, f"solv{k}"))
    )
    shadow, _ = nilshadow(SolvableInput(parsed.algebra, parsed.nilradical, parsed.complement))
    return _character_selection(shadow, parsed.characters)


def _h5i_selection(keep):
    algebra = h5_i_scaled()
    full = Dga(algebra)
    return algebra, full.restrict([[m for m in level if keep(m)] for level in full.monomials])


# name -> () -> (algebra, a restriction of its full complex)
RESTRICTIONS = {
    "fixture-characters": lambda: _character_selection(
        FIXTURE_ALGEBRAS["q_plus_h3"], PARSED_FIXTURES["solv_heisenberg"].characters
    ),
    "solv_h5": lambda: _nilshadow_selection(2),
    "solv_h7": lambda: _nilshadow_selection(3),
    "h5i-no-Z": lambda: _h5i_selection(lambda m: 4 not in m),
    "h5i-full": lambda: _h5i_selection(lambda m: True),
}


@pytest.mark.parametrize("name", sorted(RESTRICTIONS))
def test_restriction_matches_the_oracle_on_the_selection(name):
    algebra, sub = RESTRICTIONS[name]()
    assert verify_subdga(Dga(algebra), sub.monomials) is None
    assert sub.columns == _oracle_columns(algebra, sub.monomials)


def _closed_generators(algebra: LieAlgebra) -> tuple[LieAlgebra, Dga]:
    """The explicit selection of the monomials on the generators x_k with
    d x_k = 0: d, a derivation, vanishes on them, and wedge keeps them."""
    full = Dga(algebra)
    closed = {k for k, column in enumerate(full.columns[1]) if not column}
    keep = [[m for m in level if closed.issuperset(m)] for level in full.monomials]
    assert verify_subdga(full, keep) is None
    return algebra, full.restrict(keep)


def _additive_characters(algebra: LieAlgebra) -> tuple[LieAlgebra, Dga]:
    """The selection of a rank-one character w with w_k = w_i + w_j wherever
    c_ij^k != 0, so that d and wedge keep it: the kernel basis of those
    conditions summed with weights -1, 2, -3, ..., denominators cleared."""
    n = algebra.dim
    rows = []
    for i, j, comps in algebra.nonzero_brackets():
        for k in comps:
            row = [ZERO] * n
            for q, c in ((k, ONE), (i, -ONE), (j, -ONE)):
                row[q] = row[q] + c
            rows.append(row)
    kernel = dense_kernel_basis(rows, n)
    weights = [
        sum(((-1) ** t * t * v[q].re for t, v in enumerate(kernel, 1)), Fraction(0))
        for q in range(n)
    ]
    scale = math.lcm(*(w.denominator for w in weights))
    characters = CharacterData((tuple(int(w * scale) for w in weights),), (0,))
    return algebra, subdga_from_characters(Dga(algebra), characters)


# name -> () -> (algebra, a complex of it): every fixture and generated
# complex, in full and under an explicit and a character selection, and
# the restrictions above.
INDEXED = {
    **{
        f"{kind}:{source}:{name}": (lambda make=make, algebra=algebra: make(algebra))
        for source, algebras in (("fixture", FIXTURE_ALGEBRAS), ("generated", GENERATED))
        for name, algebra in algebras.items()
        for kind, make in (
            ("full", lambda a: (a, Dga(a))),
            ("closed", _closed_generators),
            ("characters", _additive_characters),
        )
    },
    **{f"restriction:{name}": make for name, make in RESTRICTIONS.items()},
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_index_is_the_place_in_the_degree(name):
    algebra, dga = INDEXED[name]()
    for level in dga.monomials:
        assert [dga.index(mono) for mono in level] == list(range(len(level))), name
    # Every monomial of the full complex that the selection leaves out.
    held = {mono for level in dga.monomials for mono in level}
    for level in Dga(algebra).monomials:
        for mono in level:
            if mono not in held:
                with pytest.raises(KeyError):
                    dga.index(mono)


def test_wedge_monomial_signs():
    assert wedge_monomials((0,), (1,)) == (1, (0, 1))
    assert wedge_monomials((1,), (0,)) == (-1, (0, 1))
    assert wedge_monomials((0,), (0,)) is None
    assert wedge_monomials((0, 2), (1,)) == (-1, (0, 1, 2))


def test_sort_with_sign_agrees_with_the_inversion_count():
    # The two-index fast path and the general loop give one sign rule: the
    # parity of the inversions, None on a repeated index.
    def reference(indices):
        if len(set(indices)) != len(indices):
            return None
        inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
        return (-1) ** inversions, tuple(sorted(indices))

    for length in range(5):
        for indices in itertools.product(range(4), repeat=length):
            assert sort_with_sign(indices) == reference(indices), indices
