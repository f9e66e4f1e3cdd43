import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_ALGEBRAS,
    GENERATED,
    GRADED_NILPOTENT,
    RingPoly,
    dense_columns,
    gauge_identity_check_reference,
    germbench_inputs,
    homogeneous_components,
    inferred_grading,
    square_slice,
    tensor_bracket,
    vec_add_into,
)

from germkit import cli, fixtures, kuranishi, scalars
from germkit.cedga import Dga, subdga_from_characters, wedge_monomials
from germkit.decomp import GERM_TOP, Decomposition, monomial_weight, split_complex
from germkit.errors import InternalCheckError, PreconditionError
from germkit.formats import parse_algebra_dict
from germkit.kuranishi import (
    KuranishiSeries,
    TensorDgla,
    bracket_slices,
    gauge_identity_check,
    kuranishi_series,
    linear_embedding_check,
    mc_residual,
    obstruction_system,
    random_rational_samples,
    verify_degree_bound,
)
from germkit.liealg import LieAlgebra, Subspace
from germkit.multipoly import MultiPoly
from germkit.nilshadow import SolvableInput, nilshadow
from germkit.scalars import I, ONE, Scalar, ZERO, scalar

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _setup(base, target, grading=True, cap=None):
    g = fixtures.BUILTIN_ALGEBRAS[base]() if isinstance(base, str) else base
    t = fixtures.BUILTIN_ALGEBRAS[target]() if isinstance(target, str) else target
    gr = inferred_grading(g) if grading else None
    dec = split_complex(Dga(g), "metric", gr)
    series = kuranishi_series(dec, t, cap)
    return series


def test_bracket_examples():
    h3 = fixtures.heisenberg3()
    sl2 = fixtures.sl2()
    tdgla = TensorDgla(Dga(h3), sl2)
    # [x (x) H, y (x) E] = (x^y) (x) [H, E] = 2 (x^y) (x) E
    u = {tdgla.flat(0, 0): ONE}
    v = {tdgla.flat(1, 1): ONE}
    out = tdgla.bracket11(u, v)
    assert out == {tdgla.flat(0, 1): scalar(2)}  # monomial (0,1) is x^y
    # same one-form on both sides wedges to zero
    assert tdgla.bracket11(u, {tdgla.flat(0, 1): ONE}) == {}
    # graded symmetry in degree one: [w, w] = 2 (x^y) (x) [a, b]
    w = {}
    vec_add_into(w, u)
    vec_add_into(w, v)
    square = tdgla.bracket11(w, w)
    assert square == {tdgla.flat(0, 1): scalar(4)}  # 2 * [H, E] = 4E


def test_bracket_graded_antisymmetry_and_jacobi():
    h3 = fixtures.heisenberg3()
    sl2 = fixtures.sl2()
    tdgla = TensorDgla(Dga(h3), sl2)
    elems = [
        (1, {tdgla.flat(0, 0): ONE, tdgla.flat(2, 1): scalar(2)}),
        (1, {tdgla.flat(1, 2): ONE}),
        (1, {tdgla.flat(0, 1): scalar(-1), tdgla.flat(1, 0): ONE}),
    ]
    for (p, a) in elems:
        for (q, b) in elems:
            ab = tensor_bracket(tdgla, p, a, q, b)
            ba = tensor_bracket(tdgla, q, b, p, a)
            sign = scalar(-((-1) ** (p * q)))
            assert ab == {k: sign * c for k, c in ba.items()}
    # graded Leibniz form of Jacobi: [a,[b,c]] = [[a,b],c] + (-1)^{pq}[b,[a,c]]
    (p, a), (q, b), (r, c) = elems
    lhs = tensor_bracket(tdgla, p, a, q + r, tensor_bracket(tdgla, q, b, r, c))
    rhs = tensor_bracket(tdgla, p + q, tensor_bracket(tdgla, p, a, q, b), r, c)
    term = tensor_bracket(tdgla, q, b, p + r, tensor_bracket(tdgla, p, a, r, c))
    sign = scalar((-1) ** (p * q))
    for k, v in term.items():
        rhs[k] = rhs.get(k, ZERO) + sign * v
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_leibniz_rule_for_d():
    h3 = fixtures.q_plus_heisenberg3()
    sl2 = fixtures.sl2()
    tdgla = TensorDgla(Dga(h3), sl2)
    a = {tdgla.flat(3, 0): ONE, tdgla.flat(1, 1): scalar(3)}  # degree 1
    b = {tdgla.flat(0, 2): ONE, tdgla.flat(3, 0): scalar(-2)}  # degree 1
    d1, d2 = tdgla.dga.columns[1], tdgla.dga.columns[2]
    lhs = tdgla.apply_matrix(d2, tdgla.bracket11(a, b))
    rhs = tensor_bracket(tdgla, 2, tdgla.apply_matrix(d1, a), 1, b)
    minus = tensor_bracket(tdgla, 1, a, 2, tdgla.apply_matrix(d1, b))
    for k, v in minus.items():
        rhs[k] = rhs.get(k, ZERO) - v
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_mc_residual_examples():
    h3 = fixtures.heisenberg3()
    sl2 = fixtures.sl2()
    tdgla = TensorDgla(Dga(h3), sl2)
    assert mc_residual(tdgla, {}) == {}
    assert mc_residual(tdgla, {tdgla.flat(0, 0): ONE}) == {}  # x (x) H is flat
    # z (x) H: dz = -x^y
    out = mc_residual(tdgla, {tdgla.flat(2, 0): ONE})
    assert out == {tdgla.flat(0, 0): -ONE}


def test_h3_series_shape():
    series = _setup("h3", "sl2")
    assert series.variables == ("t1", "t2", "t3", "t4", "t5", "t6")
    assert series.terminated and series.last_nonzero == 2 and series.cap == 4
    # phi_2 = z (x) [a, b]: check one slot, coefficient of t2*t6 (E and F sides)
    tdgla = series.tdgla
    slot = series.slices[2][(0, 1, 0, 0, 0, 1)]
    assert slot == {tdgla.flat(2, 0): ONE}  # [E, F] = H on z


def test_abelian_series_is_linear():
    series = _setup("abelian3", "sl2")
    assert set(series.slices) == {1}
    assert series.terminated and series.last_nonzero == 1


def test_recursion_identity():
    for base, target in (("h3", "sl2"), ("filiform4", "gl2"), ("h5", "h3")):
        series = _setup(base, target)
        dec = series.decomposition

        delta2 = dec.delta[2]
        for r in range(2, series.last_nonzero + 1):
            acc = {}
            for s_deg in range(1, r):
                left = series.slices.get(s_deg, {})
                right = series.slices.get(r - s_deg, {})
                piece = bracket_slices(series.tdgla, [(1, left, right)])
                for e, v in piece.items():
                    dst = acc.setdefault(e, {})
                    vec_add_into(dst, v)
            expected = {}
            for e, v in acc.items():
                w = series.tdgla.apply_matrix(delta2, v)
                if w:
                    expected[e] = {k: -c / scalar(2) for k, c in w.items()}
            expected = {e: v for e, v in expected.items() if v}
            assert series.slices.get(r, {}) == expected, (base, target, r)


def test_graded_weight_confinement():
    for name, algebra in GRADED_NILPOTENT.items():
        from germkit.liealg import basis_aligned_weights

        grading = inferred_grading(algebra)
        weights = basis_aligned_weights(grading)
        nu = grading.depth
        dga = Dga(algebra)
        dec = split_complex(dga, "metric", grading)
        series = kuranishi_series(dec, fixtures.sl2())
        assert series.terminated and series.last_nonzero <= nu, name
        ta = 3
        for r, terms in series.slices.items():
            for vec in terms.values():
                for idx in vec:
                    mono_idx = idx // ta
                    mono = dga.monomials[1][mono_idx]
                    assert monomial_weight(weights, mono) == r, name
        # bracket of slices lands in the matching degree-2 weight space
        for r1, t1 in series.slices.items():
            for r2, t2 in series.slices.items():
                piece = bracket_slices(series.tdgla, [(1, t1, t2)])
                for vec in piece.values():
                    for idx in vec:
                        mono = dga.monomials[2][idx // ta]
                        assert monomial_weight(weights, mono) == r1 + r2, name


def _with_slices(series, slices):
    """``series`` with its phi replaced by ``slices``."""
    return KuranishiSeries(
        tdgla=series.tdgla,
        decomposition=series.decomposition,
        variables=series.variables,
        zeta_info=series.zeta_info,
        slices=slices,
        cap=series.cap,
        terminated=series.terminated,
        last_nonzero=max(slices, default=0),
    )


def test_gauge_identities_and_mutation():
    differs = "phi + (1/2) delta[phi, phi] differs from the linear part"
    series = _setup("h3", "sl2")
    assert gauge_identity_check(series) is None
    dropped = {r: s for r, s in series.slices.items() if r != 2}
    assert gauge_identity_check(_with_slices(series, dropped)) == differs
    # A deep series: each mutation keeps delta(phi) = 0 (it scales or drops
    # a whole coefficient vector of an image of delta), so only the second
    # identity can catch it.
    deep = _setup(_filiform6(), fixtures.gl(2))
    last = deep.last_nonzero
    assert deep.terminated and last >= 4
    assert gauge_identity_check(deep) is None
    exps = next(iter(deep.slices[3]))
    scaled = dict(deep.slices)
    scaled[3] = dict(scaled[3])
    scaled[3][exps] = {i: c * scalar(2) for i, c in scaled[3][exps].items()}
    assert gauge_identity_check(_with_slices(deep, scaled)) == differs
    trimmed = dict(deep.slices)
    trimmed[last] = dict(list(trimmed[last].items())[1:])
    assert gauge_identity_check(_with_slices(deep, trimmed)) == differs


def test_gauge_check_requires_termination():
    series = _setup("h3", "sl2", cap=2)
    assert not series.terminated
    with pytest.raises(PreconditionError):
        gauge_identity_check(series)


def _sl2_oracle():
    """Brute-force [a,[a,b]] and [b,[a,b]] in sl2 coordinates.

    Independent of the tensor-DGLA machinery: plain polynomial arithmetic
    with the hand-written sl2 bracket.
    """
    variables = tuple(f"t{i}" for i in range(1, 7))

    def var(i):
        return RingPoly.variable(variables, i)

    a = [var(0), var(1), var(2)]  # H, E, F coefficients
    b = [var(3), var(4), var(5)]

    def bracket(u, v):
        h = u[1] * v[2] - u[2] * v[1]
        e = (u[0] * v[1] - u[1] * v[0]) * scalar(2)
        f = (u[0] * v[2] - u[2] * v[0]) * scalar(-2)
        return [h, e, f]

    c = bracket(a, b)
    return bracket(a, c), bracket(b, c)


def test_h3_sl2_obstructions_match_brute_force_oracle():
    series = _setup("h3", "sl2")
    system = obstruction_system(series)
    assert len(system.polynomials) == 6
    first, second = _sl2_oracle()
    oracle = first + second  # x^z block then y^z block, components H, E, F
    for engine_poly, oracle_poly in zip(system.polynomials, oracle):
        assert engine_poly == oracle_poly * scalar(2)
        assert homogeneous_components(engine_poly) == [(3, engine_poly)]
        assert engine_poly.total_degree() == 3


def test_abelian_base_gives_cup_product_system():
    series = _setup("abelian3", "sl2")
    system = obstruction_system(series)
    variables = series.variables  # t_{(i,a)} = row-major (one-form, sl2 basis)

    def var(i, a):
        return RingPoly.variable(variables, 3 * i + a)

    def bracket(u, v):
        h = u[1] * v[2] - u[2] * v[1]
        e = (u[0] * v[1] - u[1] * v[0]) * scalar(2)
        f = (u[0] * v[2] - u[2] * v[0]) * scalar(-2)
        return [h, e, f]

    coeff = [[var(i, a) for a in range(3)] for i in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2)]  # harmonic 2-form order
    expected = []
    for (i, j) in pairs:
        for poly in bracket(coeff[i], coeff[j]):
            expected.append(poly * scalar(2))
    assert list(system.polynomials) == expected
    assert system.max_degree == 2


def test_abelian_target_gives_zero_system():
    series = _setup("h3", fixtures.abelian(2))
    system = obstruction_system(series)
    assert system.is_smooth


def test_h3_target_matches_hand_expansion():
    # with coefficients in h(3) itself, [a, b] is central so the double
    # brackets [a,[a,b]] and [b,[a,b]] vanish identically; the engine
    # must agree with the zero system the hand expansion gives
    series = _setup("h3", "h3")
    system = obstruction_system(series)
    assert len(system.polynomials) == 6
    assert system.is_smooth


def test_pivot_strategy_gives_equivalent_series_shape():
    h3 = fixtures.heisenberg3()
    grading = inferred_grading(h3)
    sl2 = fixtures.sl2()
    metric = kuranishi_series(split_complex(Dga(h3), "metric", grading), sl2)
    pivot = kuranishi_series(split_complex(Dga(h3), "pivot", grading), sl2)
    assert metric.variables == pivot.variables
    assert metric.terminated and pivot.terminated
    sys_m = obstruction_system(metric)
    sys_p = obstruction_system(pivot)
    assert sys_m.max_degree == sys_p.max_degree == 3
    assert gauge_identity_check(pivot) is None


def test_degree_bound_checks():
    series = _setup("filiform4", "sl2")
    system = obstruction_system(series)
    assert system.nu == 3
    assert verify_degree_bound(system, 3) is None
    assert verify_degree_bound(system, 2) is not None  # degree-4 terms exist


def test_obstructions_have_no_low_order_terms():
    for base, target in (("h3", "sl2"), ("abelian3", "gl2"), ("h5", "sl2")):
        system = obstruction_system(_setup(base, target))
        for poly in system.polynomials:
            for exps, _ in poly.terms.items():
                assert sum(exps) >= 2


def _germ_file(tmp_path, capsys, name):
    """The germ ``kuranishi`` writes for fixtures/<name>.json with target sl2."""
    path = tmp_path / "germ.json"
    fixture = FIXTURES / f"{name}.json"
    code = cli.main(["kuranishi", str(fixture), "--target", "sl2", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def _mc_check(capsys, germ, point):
    """The JSON report of ``mc-check`` on ``germ`` at ``point``."""
    code = cli.main(["mc-check", str(germ), "--point", point, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_spot_checks_on_h3_sl2(tmp_path, capsys):
    germ = _germ_file(tmp_path, capsys, "h3")
    # a = E, b = 0: everything commutes with itself
    r = _mc_check(capsys, germ, "t2=1")
    assert r["obstructions_vanish"] and r["residual_is_zero"] and r["gauge_is_zero"]
    # a = E, b = 3/2 E: proportional values stay flat
    r = _mc_check(capsys, germ, "t2=1,t5=3/2")
    assert r["obstructions_vanish"] and r["residual_is_zero"]
    # a = H, b = E: [H, [H, E]] = 4E obstructs
    r = _mc_check(capsys, germ, "t1=1,t5=1")
    assert not r["obstructions_vanish"]
    assert not r["residual_is_zero"]
    assert r["consistent"]
    assert r["obstruction_values"]["h2[0]⊗E"] == "8"  # 2 * 4 on the x^z (x) E slot


def test_spot_checks_respect_flat_points_on_large_values(tmp_path, capsys):
    # graded base: vanishing obstructions force exact flatness even for
    # large parameter values
    germ = _germ_file(tmp_path, capsys, "q_plus_h3")
    r = _mc_check(capsys, germ, "t1=100,t7=200")
    assert r["consistent"]


def test_linear_embedding_of_character_subdga():
    shadow, _ = nilshadow(fixtures.solvable_heisenberg_input())
    dga = Dga(shadow)
    sub = subdga_from_characters(dga, fixtures.solvable_heisenberg_characters())
    sl2 = fixtures.sl2()
    dim1 = sub.dim_at(1) * sl2.dim
    samples = [[ZERO] * dim1] + random_rational_samples(50, dim1, seed=3)
    assert linear_embedding_check(sub, dga, sl2, samples) is None


def test_full_complex_as_its_own_selection():
    h3 = fixtures.heisenberg3()
    dga = Dga(h3)
    sub = Dga(h3, dga.monomials)
    sl2 = fixtures.sl2()
    samples = random_rational_samples(10, dga.dim_at(1) * sl2.dim, seed=1)
    assert linear_embedding_check(sub, dga, sl2, samples) is None


def test_character_subdga_germ_is_smooth():
    shadow, _ = nilshadow(fixtures.solvable_heisenberg_input())
    dga = Dga(shadow)
    sub = subdga_from_characters(dga, fixtures.solvable_heisenberg_characters())
    dec = split_complex(sub)
    series = kuranishi_series(dec, fixtures.sl2())
    system = obstruction_system(series)
    assert len(series.variables) == 3  # one harmonic one-form, dim sl2 = 3
    assert series.terminated
    assert system.is_smooth
    # the ambient germ is a genuine cubic cone by contrast
    ambient = _setup("q_plus_h3", "sl2")
    ambient_system = obstruction_system(ambient)
    assert ambient_system.max_degree == 3 and not ambient_system.is_smooth


def test_semisimple_base_is_rigid():
    sl2 = fixtures.sl2()
    dec = split_complex(Dga(sl2))
    series = kuranishi_series(dec, sl2, cap=2)
    assert series.terminated and not series.variables
    system = obstruction_system(series)
    assert system.is_smooth and len(system.polynomials) == 0


def test_one_dimensional_base():
    dec = split_complex(Dga(fixtures.abelian(1)))
    series = kuranishi_series(dec, fixtures.sl2(), cap=2)
    assert series.terminated
    system = obstruction_system(series)
    assert system.is_smooth


def test_selection_with_empty_middle_degree():
    # zero-sum selection on the abelian plane keeps only the unit and the
    # volume; the degree-one level is empty and nothing may error
    from germkit.cedga import CharacterData

    dga = Dga(fixtures.abelian(2))
    rc = subdga_from_characters(
        dga, CharacterData(rank=1, exponents=((1,), (-1,)))
    )
    assert rc.dims() == [1, 0, 1]
    for strategy in ("metric", "pivot"):
        dec = split_complex(rc, strategy)
        assert dec.betti() == [1, 0, 1]
        series = kuranishi_series(dec, fixtures.sl2(), cap=2)
        system = obstruction_system(series)
        assert series.terminated and not series.variables
        assert system.is_smooth


def _reference_obstructions(series):
    """Harmonic coordinates of a fresh Scalar [phi, phi]: one dense dot
    product per term, harmonic 2-form and target index."""
    dec = series.decomposition
    ta = series.tdgla.target.dim
    coords = (
        dense_columns(dec.harmonic_coords(2), dec.betti()[2]) if len(dec.splits) > 2 else []
    )
    dga, target = series.tdgla.dga, series.tdgla.target
    square = [
        _reference_square(dga, target, series.slices, r)
        for r in range(2, 2 * max(series.slices, default=0) + 1)
    ]
    polys = [{} for _ in range(len(coords) * ta)]
    for terms in square:
        for exps, vec in terms.items():
            for a in range(ta):
                dense = [ZERO] * dec.dga.dim_at(2)
                for idx, c in vec.items():
                    mono, ai = divmod(idx, ta)
                    if ai == a:
                        dense[mono] = c
                for h, row in enumerate(coords):
                    acc = ZERO
                    for x, y in zip(row, dense):
                        acc = acc + x * y
                    if acc:
                        polys[h * ta + a][exps] = acc
    return [MultiPoly(series.variables, terms) for terms in polys]


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("target", ["sl2", "gl2"])
@pytest.mark.parametrize("name", sorted(FIXTURE_ALGEBRAS))
def test_capped_obstructions_match_a_fresh_bracket(name, target, cap):
    """A capped series leaves [phi, phi] above the cap to the obstruction
    system; its result must still be the projection of the whole bracket."""
    dec = split_complex(Dga(FIXTURE_ALGEBRAS[name]), "metric", top=GERM_TOP)
    series = kuranishi_series(dec, fixtures.BUILTIN_ALGEBRAS[target](), cap)
    reference = [p.terms for p in _reference_obstructions(series)]
    system = obstruction_system(series)
    assert system.cap == cap
    assert [p.terms for p in system.polynomials] == reference
    # The series' bracket sums are used up; a second call brackets afresh.
    assert not series.bracket_sums
    assert [p.terms for p in obstruction_system(series).polynomials] == reference


# -- the degree-one bracket kernel against a plain Scalar reference --------------


def _reference_bracket(dga, target, a, b):
    """[a, b] of two degree-one slices, term by term in Scalar arithmetic.

    Built from ``wedge_monomials`` and ``LieAlgebra.nonzero_brackets`` only,
    so it shares nothing with the kernel's tables.
    """
    ta = target.dim
    table = {(i, j): comps for i, j, comps in target.nonzero_brackets()}
    for (i, j), comps in list(table.items()):
        table[(j, i)] = {k: -c for k, c in comps.items()}
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            for iu, cu in va.items():
                mu, au = divmod(iu, ta)
                for iv, cv in vb.items():
                    mv, av = divmod(iv, ta)
                    merged = wedge_monomials(dga.monomials[1][mu], dga.monomials[1][mv])
                    if merged is None:
                        continue
                    sign, mono = merged
                    degree, spot = dga.position[mono]
                    assert degree == 2
                    vec = out.setdefault(exps, {})
                    for k, c in table.get((au, av), {}).items():
                        key = spot * ta + k
                        vec[key] = vec.get(key, ZERO) + scalar(sign) * cu * cv * c
    cleaned = {e: {k: c for k, c in v.items() if c} for e, v in out.items()}
    return {e: v for e, v in cleaned.items() if v}


def _reference_sum(dga, target, pairs):
    """Sum of factor * [a, b] over (factor, a, b), in Scalar arithmetic."""
    out = {}
    for factor, a, b in pairs:
        for e, v in _reference_bracket(dga, target, a, b).items():
            vec_add_into(out.setdefault(e, {}), v, scalar(factor))
    return {e: v for e, v in out.items() if v}


def _reference_square(dga, target, slices, r):
    """[phi, phi]_r as the sum over ordered pairs s + t = r."""
    return _reference_sum(
        dga, target, [(1, slices.get(s, {}), slices.get(r - s, {})) for s in range(1, r)]
    )


def _sl2_scaled(h, e):
    """sl2 on the basis (h*H, e*E, F): its structure constants carry h and e."""
    return LieAlgebra(
        ["H'", "E'", "F"],
        {(0, 1): {1: 2 * h}, (0, 2): {2: -2 * h}, (1, 2): {0: e / h}},
    )


KERNEL_TARGETS = {
    "sl2": fixtures.sl2(),
    "gl2": fixtures.gl(2),
    # [H', E] = 2i E, [H', F] = -2i F, [E, F] = -i H': an imaginary table.
    "sl2_i": _sl2_scaled(I, ONE),
    # E' = E/3: a table with denominator 3.
    "sl2_third": _sl2_scaled(ONE, scalar("1/3")),
}
KERNEL_DGA = Dga(fixtures.heisenberg5())

_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coefs = st.one_of(
    st.builds(Scalar, _parts),
    st.builds(Scalar, _parts, _parts),
    st.sampled_from([ONE, -ONE, I, -I]),
)


@st.composite
def _bracket_pairs(draw):
    """One to three (factor, a, b): factors in {1, 2, -1}, a and b homogeneous
    degree-one slices in one set of 0-4 variables, any of them maybe empty."""
    nvars = draw(st.integers(0, 4))
    dim1 = KERNEL_DGA.dim_at(1) * 3

    def one_slice():
        degree = draw(st.integers(1, 3)) if nvars else 0
        # An exponent vector of total degree `degree`, as the variable of
        # each of its factors.
        exps = st.lists(st.integers(0, max(nvars - 1, 0)), min_size=degree, max_size=degree)
        # Zero coefficients are dropped, which now and then empties a vector.
        vecs = st.dictionaries(st.integers(0, dim1 - 1), _coefs, min_size=1, max_size=4).map(
            lambda v: {i: c for i, c in v.items() if c}
        )
        counts = exps.map(lambda picks: tuple(picks.count(k) for k in range(nvars)))
        if draw(st.integers(1, 6)) == 6:  # hypothesis favours the low end
            return {}
        return draw(st.dictionaries(counts, vecs, min_size=1, max_size=4))

    count = draw(st.integers(1, 3))
    return [(draw(st.sampled_from([1, 2, -1])), one_slice(), one_slice()) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KERNEL_TARGETS)), _bracket_pairs())
def test_bracket_kernel_matches_scalar_reference(name, pairs):
    target = KERNEL_TARGETS[name]
    tdgla = TensorDgla(KERNEL_DGA, target)
    assert bracket_slices(tdgla, pairs) == _reference_sum(KERNEL_DGA, target, pairs)
    _, a, b = pairs[0]
    for u, v in zip(a.values(), b.values()):
        assert tdgla.bracket11(u, v) == _reference_bracket(
            KERNEL_DGA, target, {(): u}, {(): v}
        ).get((), {})
    # Cancellation: with u at t1 and t2 and v at t2 and (-v) at t1, the
    # t1*t2 coefficient is [u, v] - [u, v] = 0 and must not appear at all.
    for u in list(a.values())[:1]:
        for v in list(b.values())[:1]:
            left = {(1, 0): u, (0, 1): u}
            right = {(0, 1): v, (1, 0): {i: -c for i, c in v.items()}}
            got = bracket_slices(tdgla, [(1, left, right)])
            assert (1, 1) not in got
            assert got == _reference_bracket(KERNEL_DGA, target, left, right)


def _filiform6():
    """L6 with non-unit constants: [e1, e_i] = c_i e_{i+1}."""
    coefs = ["2/3", "-3", "1/2", "5/4"]
    return LieAlgebra(
        [f"e{i}" for i in range(1, 7)],
        {(0, i): {i + 1: scalar(c)} for i, c in zip(range(1, 5), coefs)},
    )


def _solvable_heisenberg5_nilshadow():
    """The nilshadow of T x| h5, T acting by +-w_i on X_i, Y_i, w = (1, 2)."""
    labels = ["T", "X1", "X2", "Y1", "Y2", "Z"]
    algebra = LieAlgebra(
        labels,
        {
            (0, 1): {1: scalar(1)},
            (0, 2): {2: scalar(2)},
            (0, 3): {3: scalar(-1)},
            (0, 4): {4: scalar(-2)},
            (1, 3): {5: scalar("3/2")},
            (2, 4): {5: scalar("-2/3")},
        },
    )
    basis = [algebra.basis_vector(i) for i in range(6)]
    return nilshadow(
        SolvableInput(
            algebra=algebra,
            nilradical=Subspace.from_vectors(6, basis[1:]),
            complement=Subspace.from_vectors(6, basis[:1]),
        )
    )[0]


@pytest.mark.parametrize(
    "base, target",
    [
        (_filiform6, lambda: fixtures.gl(2)),
        (_solvable_heisenberg5_nilshadow, lambda: fixtures.gl(3)),
    ],
    ids=["L6-gl2", "Th5-gl3"],
)
def test_square_slice_matches_scalar_reference_over_a_series(base, target):
    # The series' own integer bracket sums, reduced, are [phi, phi]_r: the
    # Scalar sum over ordered pairs and one kernel call over unordered ones.
    algebra, lie_target = base(), target()
    grading = inferred_grading(algebra)
    dec = split_complex(Dga(algebra), "metric", grading, top=GERM_TOP)
    series = kuranishi_series(dec, lie_target)
    assert series.terminated and series.last_nonzero >= 2
    assert set(series.bracket_sums) == set(range(2, 2 * series.last_nonzero + 1))
    dga = series.tdgla.dga
    code = kuranishi._series_code(series.cap)
    for r, ((re, im), den) in series.bracket_sums.items():
        expected = _reference_square(dga, lie_target, series.slices, r)
        reduced = kuranishi._reduce(
            (dict(re), dict(im)), den, code, len(series.variables), series.tdgla._step
        )
        assert reduced == expected, r
        assert square_slice(series.tdgla, series.slices, r) == expected, r


# -- the integer gauge check against the Scalar reference -------------------------


def _seeded_bases():
    """germbench's seeded L6, h5 and the nilshadow of T x| h5: non-unit
    constants."""
    inputs = germbench_inputs()
    out = {}
    for name, make in (
        ("L6", lambda rng: inputs.filiform(6, rng)),
        ("h5", lambda rng: inputs.heisenberg(2, rng)),
        ("solv_h5", lambda rng: inputs.solvable_heisenberg(2, rng)),
    ):
        parsed = parse_algebra_dict(make(inputs.rng_for(0, name)))
        if parsed.nilradical is None:
            out[f"seeded:{name}"] = parsed.algebra
        else:
            data = SolvableInput(parsed.algebra, parsed.nilradical, parsed.complement)
            out[f"seeded:{name}"] = nilshadow(data)[0]
    return out


GAUGE_BASES = {
    **{f"fixture:{name}": a for name, a in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": a for name, a in GENERATED.items()},
    **_seeded_bases(),
}
GAUGE_CASES = [(base, target) for base in sorted(GAUGE_BASES) for target in ("sl2", "gl2")] + [
    (base, target)
    for base in ("fixture:h5", "fixture:filiform4", "generated:L6", "seeded:L6", "seeded:solv_h5")
    for target in ("sl2_i", "sl2_third")
]


def _gauge_mutations(series):
    """The series with phi_3's first coefficient vector doubled, and with
    the first term of its last degree dropped."""
    out = []
    slices = series.slices
    if 3 in slices:
        doubled = dict(slices)
        exps, vec = next(iter(slices[3].items()))
        doubled[3] = {**slices[3], exps: {i: c * scalar(2) for i, c in vec.items()}}
        out.append(doubled)
    if slices:
        last = max(slices)
        dropped = dict(slices)
        dropped[last] = dict(list(slices[last].items())[1:])
        out.append(dropped)
    return out


@pytest.mark.parametrize("base, target", GAUGE_CASES)
def test_integer_gauge_check_matches_the_scalar_reference(base, target):
    algebra = GAUGE_BASES[base]
    grading = inferred_grading(algebra)
    dec = split_complex(Dga(algebra), "metric", grading, top=GERM_TOP)
    series = kuranishi_series(dec, KERNEL_TARGETS[target])
    if not series.terminated:
        for check in (gauge_identity_check, gauge_identity_check_reference):
            with pytest.raises(PreconditionError):
                check(series)
        return
    assert gauge_identity_check(series) is None
    assert gauge_identity_check_reference(series) is None
    for slices in _gauge_mutations(series):
        mutated = _with_slices(series, slices)
        assert gauge_identity_check(mutated) == gauge_identity_check_reference(mutated)


def test_gauge_check_builds_no_scalar(monkeypatch):
    series = _setup(_filiform6(), fixtures.gl(2))
    mutated = [_with_slices(series, slices) for slices in _gauge_mutations(series)]

    def refuse(*args):
        raise AssertionError("the gauge check built a Scalar")

    monkeypatch.setattr(kuranishi, "from_ints", refuse)
    monkeypatch.setattr(scalars, "_make", refuse)
    assert gauge_identity_check(series) is None
    differs = "phi + (1/2) delta[phi, phi] differs from the linear part"
    assert [gauge_identity_check(m) for m in mutated] == [differs, differs]


def test_gauge_check_catches_a_nonzero_delta_one():
    # delta_1 = 0 on every complex (d vanishes on C^0), so only a
    # decomposition handed a nonzero delta_1 column reaches this message.
    series = _setup("h3", "sl2")
    dec = series.decomposition
    assert dec.delta[1] == [[], [], []]
    delta = [dec.delta[0], [[(0, ONE)], [], []], *dec.delta[2:]]
    mutated = dataclasses.replace(
        series,
        decomposition=Decomposition(dec.dga, dec.grading, dec.weights, dec.splits, delta),
    )
    message = "delta(phi) is not identically zero"
    assert gauge_identity_check(mutated) == message
    assert gauge_identity_check_reference(mutated) == message


def test_obstruction_system_rejects_a_linear_term(monkeypatch):
    series = _setup("h3", "sl2")
    linear = (1,) + (0,) * (len(series.variables) - 1)
    monkeypatch.setattr(kuranishi, "_reduce", lambda *args: {linear: {0: ONE}})
    with pytest.raises(InternalCheckError, match="constant or linear part"):
        obstruction_system(series)
