import json
import pathlib
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_ALGEBRAS,
    FIXTURE_ALGEBRAS,
    GENERATED,
    GRADED_NILPOTENT,
    I,
    PARSED_FIXTURES,
    RingPoly,
    abelian,
    dense_columns,
    embedding_check,
    gauge_identity_check_reference,
    germbench_inputs,
    h5_i_scaled,
    homogeneous_components,
    homogeneous_degrees,
    inferred_grading,
    level_index,
    linear_embedding_check_reference,
    replaced,
    show_reference,
    solvable_input,
    square_slice,
    tensor_bracket,
    vec_add_into,
)

from germkit import cli, fixtures, kuranishi, scalars
from germkit.cedga import CharacterData, Dga, subdga_from_characters, wedge_monomials
from germkit.decomp import GERM_TOP, Decomposition, monomial_weight, split_complex
from germkit.errors import InternalCheckError, PreconditionError
from germkit.formats import parse_algebra_dict
from germkit.kuranishi import (
    TensorDgla,
    bracket_slices,
    gauge_identity_check,
    kuranishi_series,
    mc_residual,
    obstruction_system,
    verify_degree_bound,
)
from germkit.liealg import LieAlgebra, Subspace
from germkit.multipoly import MultiPoly
from germkit.nilshadow import SolvableInput, nilshadow
from germkit.scalars import ONE, Scalar, ZERO, scalar

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _setup(base, target, grading=True, cap=None):
    g = BUILTIN_ALGEBRAS[base] if isinstance(base, str) else base
    t = BUILTIN_ALGEBRAS[target] if isinstance(target, str) else target
    gr = inferred_grading(g) if grading else None
    dec = split_complex(Dga(g), "metric", gr)
    series = kuranishi_series(dec, TensorDgla(dec.dga, t), cap)
    return series


def test_bracket_examples():
    h3 = FIXTURE_ALGEBRAS["h3"]
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
    h3 = FIXTURE_ALGEBRAS["h3"]
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
    h3 = FIXTURE_ALGEBRAS["q_plus_h3"]
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
    h3 = FIXTURE_ALGEBRAS["h3"]
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
                # A copy, so that [phi_s, phi_s] is no square: both
                # orientations of each index pair are read.
                right = dict(series.slices.get(r - s_deg, {}))
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
        series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
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
    return replaced(series, slices=slices, last_nonzero=max(slices, default=0))


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
    series = _setup("h3", abelian(2))
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
    h3 = FIXTURE_ALGEBRAS["h3"]
    grading = inferred_grading(h3)
    sl2 = fixtures.sl2()
    complex_ = Dga(h3)
    tdgla = TensorDgla(complex_, sl2)
    metric = kuranishi_series(split_complex(complex_, "metric", grading), tdgla)
    pivot = kuranishi_series(split_complex(complex_, "pivot", grading), tdgla)
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


# Selections of q_plus_h3 = Q T + h3: the character file keeps one 1-form,
# so every point is flat; the monomials of T, X and Y, without Z, keep
# three, and T⊗H + X⊗E is obstructed by [H, E] = 2E.
Q_PLUS_H3_SELECTIONS = {
    "characters": (None, ["t3=-3/2", "t1=1,t2=1"]),
    "no-Z": (
        {"monomials": [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]},
        ["t9=-3/2", "t1=1,t5=1"],
    ),
}


@pytest.mark.parametrize("strategy", ["metric", "pivot"])
@pytest.mark.parametrize("selection", sorted(Q_PLUS_H3_SELECTIONS))
def test_mc_check_of_a_subdga_germ(tmp_path, capsys, selection, strategy):
    spec, (axis, pair) = Q_PLUS_H3_SELECTIONS[selection]
    selection_path = FIXTURES / "diag_weight_characters.json"
    if spec is not None:
        selection_path = tmp_path / "selection.json"
        selection_path.write_text(json.dumps(spec))
    germ = tmp_path / "germ.json"
    code = cli.main([
        "kuranishi", str(FIXTURES / "q_plus_h3.json"), "--subdga", str(selection_path),
        "--target", "sl2", "--strategy", strategy, "--json", str(germ),
    ])
    capsys.readouterr()
    assert code == 0 and json.loads(germ.read_text())["subdga_monomials"]
    r = _mc_check(capsys, germ, axis)
    assert r["obstructions_vanish"] and r["residual_is_zero"] and r["gauge_is_zero"]
    r = _mc_check(capsys, germ, pair)
    obstructed = spec is not None
    assert r["obstructions_vanish"] is not obstructed
    assert r["residual_is_zero"] is not obstructed


def test_linear_embedding_of_character_subdga():
    shadow, _ = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    dga = Dga(shadow)
    sub = subdga_from_characters(dga, PARSED_FIXTURES["solv_heisenberg"].characters)
    # N = 2 one-forms * dim sl2 = 6 basis vectors: N(N+1)/2 points.
    assert embedding_check(sub, dga, fixtures.sl2()) == (21, None)


def test_full_complex_as_its_own_selection():
    h3 = FIXTURE_ALGEBRAS["h3"]
    dga = Dga(h3)
    assert embedding_check(dga.restrict(dga.monomials), dga, fixtures.sl2()) == (45, None)


def test_linear_embedding_names_the_failing_point():
    # The monomials of h3 on [X, Y] = 2Z: d Z differs from the ambient's, so
    # the first point carrying Z, in k-major order, fails.
    h3 = FIXTURE_ALGEBRAS["h3"]
    doubled = LieAlgebra(["X", "Y", "Z"], {(0, 1): {2: scalar(2)}})
    sub = Dga(doubled)
    assert embedding_check(sub, Dga(h3), fixtures.sl2()) == (7, (
        "residuals disagree at X⊗H + Z⊗H: selection gives (-2)*X∧Y⊗H, "
        "ambient gives (-1)*X∧Y⊗H"
    ))


def test_linear_embedding_over_gaussian_rationals():
    h5i = h5_i_scaled()
    dga = Dga(h5i)
    target = _sl2_scaled(I, ONE)
    no_z = [[m for m in level if 4 not in m] for level in dga.monomials]
    for monomials, points in ((dga.monomials, 120), (no_z, 78)):
        assert embedding_check(dga.restrict(monomials), dga, target) == (points, None)
    # The conjugate constants give the conjugate d Z.
    conjugate = LieAlgebra(h5i.labels, {(0, 1): {4: -I}, (2, 3): {4: ONE + I * scalar("1/2")}})
    compared, witness = embedding_check(Dga(conjugate), dga, target)
    assert compared == 13 and witness.startswith("residuals disagree at X1⊗H' + Z⊗H': ")


def _cli_complexes(argv, data=None):
    """(selection, ambient complex) as ``germkit subdga`` builds them, from
    the files in ``argv`` or from the algebra dict ``data``."""
    run = cli.Run(cli.build_parser().parse_args(["subdga", *argv]))
    if data is not None:
        run.parsed = parse_algebra_dict(data)
    return run.selection, run.complex


def _full_selection(algebra):
    """The whole complex of ``algebra`` as its own selection."""
    dga = Dga(algebra)
    return dga.restrict(dga.monomials), dga


def _zero_sum_selection():
    """Zero-sum characters on the abelian plane: no one-form is kept, N = 0."""
    dga = Dga(abelian(2))
    return subdga_from_characters(dga, CharacterData(rank=1, exponents=((1,), (-1,)))), dga


# Functions giving (selection, ambient): each input that carries
# characters, with its character selection, two complexes as their own
# selections, and an empty degree-one level.
EMBEDDING_CASES = {
    "solv_heisenberg": lambda: _cli_complexes([str(FIXTURES / "solv_heisenberg.json")]),
    "q_plus_h3": lambda: _cli_complexes([
        str(FIXTURES / "q_plus_h3.json"),
        "--characters",
        str(FIXTURES / "diag_weight_characters.json"),
    ]),
    "Th5": lambda: _cli_complexes(["-"], germbench_inputs().solvable_heisenberg(2, None)),
    "h3_full": lambda: _full_selection(FIXTURE_ALGEBRAS["h3"]),
    "h5i_full": lambda: _full_selection(h5_i_scaled()),
    "abelian2_zero_sum": _zero_sum_selection,
}
EMBEDDING_TARGETS = {
    "sl2": fixtures.sl2,
    "gl:2": lambda: fixtures.gl(2),
    "gl:3": lambda: fixtures.gl(3),
    "sl2_i": lambda: _sl2_scaled(I, ONE),
}


@pytest.mark.parametrize("target", sorted(EMBEDDING_TARGETS))
@pytest.mark.parametrize("case", sorted(EMBEDDING_CASES))
def test_embedding_identity_matches_the_point_loop(case, target):
    sub, ambient = EMBEDDING_CASES[case]()
    t = EMBEDDING_TARGETS[target]()
    n = sub.dim_at(1) * t.dim
    result = embedding_check(sub, ambient, t)
    assert result == linear_embedding_check_reference(sub, ambient, t)
    assert result == (n * (n + 1) // 2, None)


def _flip_one_wedge_sign(monkeypatch, sub):
    """[m0, m1] changes sign in the wedge table of ``sub``'s TensorDgla
    alone.  A square reads that orientation only, so its [w, w] has the
    m0 x m1 terms negated while d agrees."""
    init = TensorDgla.__init__

    def corrupted(self, dga, target):
        init(self, dga, target)
        if dga is sub:
            sign, mono = self._wedge11[0][1]
            self._wedge11[0][1] = (-sign, mono)

    monkeypatch.setattr(TensorDgla, "__init__", corrupted)


def test_embedding_identity_sees_a_corrupted_bracket(monkeypatch):
    # Only the quadratic half of the identity differs.
    sub, ambient = EMBEDDING_CASES["solv_heisenberg"]()
    assert embedding_check(sub, ambient, fixtures.sl2()) == (21, None)
    _flip_one_wedge_sign(monkeypatch, sub)
    result = embedding_check(sub, ambient, fixtures.sl2())
    assert result == linear_embedding_check_reference(sub, ambient, fixtures.sl2())
    assert result == (5, (
        "residuals disagree at T⊗H + Z⊗E: selection gives (-2)*T∧Z⊗E + (-1)*X∧Y⊗E, "
        "ambient gives (2)*T∧Z⊗E + (-1)*X∧Y⊗E"
    ))


def test_embedding_identity_sees_a_corrupted_differential():
    # One entry of the selection's d_1 doubled: d e_k differs on the second
    # one-form while [w, w] agrees, so only the linear half differs.
    sub, ambient = EMBEDDING_CASES["solv_heisenberg"]()
    columns = [list(level) for level in sub.columns]
    (row, value), = columns[1][1]
    columns[1][1] = [(row, value + value)]
    sub.columns = columns
    result = embedding_check(sub, ambient, fixtures.sl2())
    assert result == linear_embedding_check_reference(sub, ambient, fixtures.sl2())
    assert result == (4, (
        "residuals disagree at T⊗H + Z⊗H: selection gives (-2)*X∧Y⊗H, "
        "ambient gives (-1)*X∧Y⊗H"
    ))


def test_embedding_identity_never_passes_a_failure_no_point_shows(monkeypatch):
    # Identities that differ with residuals that agree at every basis point
    # would need [e_k, e_k] != 0: an engine bug, reported as one.
    sub, ambient = EMBEDDING_CASES["solv_heisenberg"]()
    _flip_one_wedge_sign(monkeypatch, sub)
    monkeypatch.setattr(kuranishi, "mc_residual", lambda tdgla, omega: {})
    with pytest.raises(InternalCheckError, match="some \\[e_k, e_k\\] is nonzero"):
        embedding_check(sub, ambient, fixtures.sl2())


def test_character_subdga_germ_is_smooth():
    shadow, _ = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    dga = Dga(shadow)
    sub = subdga_from_characters(dga, PARSED_FIXTURES["solv_heisenberg"].characters)
    dec = split_complex(sub)
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
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
    series = kuranishi_series(dec, TensorDgla(dec.dga, sl2), cap=2)
    assert series.terminated and not series.variables
    system = obstruction_system(series)
    assert system.is_smooth and len(system.polynomials) == 0


def test_one_dimensional_base():
    dec = split_complex(Dga(abelian(1)))
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()), cap=2)
    assert series.terminated
    system = obstruction_system(series)
    assert system.is_smooth


def test_selection_with_empty_middle_degree():
    # zero-sum selection on the abelian plane keeps only the unit and the
    # volume; the degree-one level is empty and nothing may error
    rc, _ = _zero_sum_selection()
    assert rc.dims() == [1, 0, 1]
    for strategy in ("metric", "pivot"):
        dec = split_complex(rc, strategy)
        assert dec.betti() == [1, 0, 1]
        series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()), cap=2)
        system = obstruction_system(series)
        assert series.terminated and not series.variables
        assert system.is_smooth


def _reference_projection(series, square):
    """Harmonic coordinates of a Scalar slice of degree-2 vectors: one dense
    dot product per term, harmonic 2-form and target index."""
    dec = series.decomposition
    ta = series.tdgla.target.dim
    coords = (
        dense_columns(dec.harmonic_coords(2), dec.betti()[2]) if len(dec.splits) > 2 else []
    )
    polys = [{} for _ in range(len(coords) * ta)]
    for exps, vec in square.items():
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
    return polys


def _reference_obstructions(series):
    """Harmonic coordinates of a fresh Scalar [phi, phi]."""
    dga, target = series.tdgla.dga, series.tdgla.target
    square = {}
    for r in range(2, 2 * max(series.slices, default=0) + 1):
        square.update(_reference_square(dga, target, series.slices, r))
    return [MultiPoly(series.variables, terms) for terms in _reference_projection(series, square)]


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("target", ["sl2", "gl2"])
@pytest.mark.parametrize("name", sorted(FIXTURE_ALGEBRAS))
def test_capped_obstructions_match_a_fresh_bracket(name, target, cap):
    """A capped series projects [phi, phi] past the cap, up to twice its last
    degree; the result must still be the projection of the whole bracket."""
    dec = split_complex(Dga(FIXTURE_ALGEBRAS[name]), "metric", top=GERM_TOP)
    series = kuranishi_series(dec, TensorDgla(dec.dga, BUILTIN_ALGEBRAS[target]), cap)
    reference = [p.terms for p in _reference_obstructions(series)]
    system = obstruction_system(series)
    assert system.cap == cap
    assert [p.terms for p in system.polynomials] == reference
    # The system only reads the series, so a second call gives it again.
    assert [p.terms for p in obstruction_system(series).polynomials] == reference


# -- the degree-one bracket kernel against a plain Scalar reference --------------


def _reference_bracket(dga, target, a, b):
    """[a, b] of two degree-one slices, term by term in Scalar arithmetic.

    Built from ``wedge_monomials`` and ``LieAlgebra.nonzero_brackets`` only,
    so it shares nothing with the kernel's tables.
    """
    ta = target.dim
    index = level_index(dga, 2)
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
                    spot = index[mono]
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
        {(0, 1): {1: h + h}, (0, 2): {2: -h - h}, (1, 2): {0: e / h}},
    )


KERNEL_TARGETS = {
    "sl2": fixtures.sl2(),
    "gl2": fixtures.gl(2),
    # [H', E] = 2i E, [H', F] = -2i F, [E, F] = -i H': an imaginary table.
    "sl2_i": _sl2_scaled(I, ONE),
    # E' = E/3: a table with denominator 3.
    "sl2_third": _sl2_scaled(ONE, scalar("1/3")),
}
KERNEL_DGA = Dga(FIXTURE_ALGEBRAS["h5"])


@pytest.mark.parametrize(
    "target", [fixtures.sl2(), fixtures.gl(3), _sl2_scaled(I, ONE)], ids=["sl2", "gl3", "sl2_i"]
)
def test_kernel_bracket_table_is_the_columns_of_ad(target):
    # Column s * dim + t of the structure columns is column t of ad x_s.
    by_ad = [column for s in range(target.dim) for column in target.ad({s: ONE})]
    assert target.structure_columns() == by_ad
    assert TensorDgla(KERNEL_DGA, target)._int_bracket == kuranishi._int_columns(by_ad)

_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coefs = st.one_of(
    st.builds(Scalar, _parts),
    st.builds(Scalar, _parts, _parts),
    st.sampled_from([ONE, -ONE, I, -I]),
)


@st.composite
def _bracket_pairs(draw):
    """One to three (factor, a, b): factors in {1, 2, -1}, a and b homogeneous
    degree-one slices in one set of 0-4 variables, any of them maybe empty,
    and now and then b the same slice object as a, which ``bracket_slices``
    sums as a square."""
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

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        factor, a = draw(st.sampled_from([1, 2, -1])), one_slice()
        pairs.append((factor, a, a if draw(st.booleans()) else one_slice()))
    return pairs


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
    # The series' obstruction terms of each degree r in 2..2 rho are the
    # harmonic coordinates of the Scalar [phi, phi]_r over ordered pairs,
    # though the series sums it over unordered pairs and only onto the
    # 2-monomials that delta_2 or the harmonic coordinates read.  Both maps
    # send the other 2-monomials to 0.
    algebra, lie_target = base(), target()
    grading = inferred_grading(algebra)
    dec = split_complex(Dga(algebra), "metric", grading, top=GERM_TOP)
    series = kuranishi_series(dec, TensorDgla(dec.dga, lie_target))
    assert series.terminated and series.last_nonzero >= 2
    top = 2 * series.last_nonzero
    assert {sum(e) for terms in series.obstruction_terms for e in terms} <= set(
        range(2, top + 1)
    )
    tdgla = series.tdgla
    ta = lie_target.dim
    maps = (dec.delta_cols(2), dec.harmonic_coords(2))
    read = {mono for cols in maps for mono, col in enumerate(cols) if col}
    assert read < set(range(dec.dga.dim_at(2)))
    dropped = 0
    for r in range(2, top + 1):
        expected = _reference_square(dec.dga, lie_target, series.slices, r)
        got = [
            {e: c for e, c in terms.items() if sum(e) == r}
            for terms in series.obstruction_terms
        ]
        assert got == _reference_projection(series, expected), r
        for e, v in expected.items():
            rest = {i: c for i, c in v.items() if i // ta not in read}
            dropped += len(rest)
            for cols in maps:
                assert tdgla.apply_matrix(cols, rest) == {}, (r, e)
        assert square_slice(tdgla, series.slices, r) == expected, r
    assert dropped


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
    series = kuranishi_series(dec, TensorDgla(dec.dga, KERNEL_TARGETS[target]))
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
    mutated = replaced(
        series,
        decomposition=Decomposition(dec.dga, dec.grading, dec.weights, dec.splits, delta),
    )
    message = "delta(phi) is not identically zero"
    assert gauge_identity_check(mutated) == message
    assert gauge_identity_check_reference(mutated) == message


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
@pytest.mark.parametrize("base", ["h3", "h5", "filiform4"])
def test_gauge_check_sees_a_wedge_sign_flipped_in_either_orientation(base, entry):
    # The gauge check and its Scalar reference sum no square: [phi_s, phi_s]
    # reads both orientations of every index pair, so one wedge sign flipped
    # after the series was built fails both, in either orientation.
    series = _setup(base, "sl2")
    assert gauge_identity_check(series) is None
    assert gauge_identity_check_reference(series) is None
    table = series.tdgla._wedge11
    sign, mono = table[entry[0]][entry[1]]
    table[entry[0]][entry[1]] = (-sign, mono)
    differs = "phi + (1/2) delta[phi, phi] differs from the linear part"
    assert gauge_identity_check(series) == differs
    assert gauge_identity_check_reference(series) == differs


# -- the pruned bracket kernel against the full wedge table ------------------------


PRUNING_BASES = {**GAUGE_BASES, "i_scaled:h5": h5_i_scaled()}
PRUNING_CASES = [
    (base, strategy, "gl2", cap)
    for base in sorted(PRUNING_BASES)
    for strategy in ("metric", "pivot")
    for cap in (None, 2, 3)
] + [
    (base, strategy, "sl2_i", cap)
    for base in ("fixture:h5", "generated:L6", "seeded:L6", "i_scaled:h5")
    for strategy in ("metric", "pivot")
    for cap in (None, 2, 3)
]


def _germ_outputs(algebra, strategy, target, cap):
    """The phi slices, the obstruction polynomials and the gauge verdicts on
    the series and its mutations, of one run."""
    dec = split_complex(Dga(algebra), strategy, inferred_grading(algebra), top=GERM_TOP)
    series = kuranishi_series(dec, TensorDgla(dec.dga, target), cap)
    polynomials = [p.terms for p in obstruction_system(series).polynomials]
    verdicts = []
    for slices in (series.slices, *_gauge_mutations(series)):
        try:
            verdicts.append(gauge_identity_check(_with_slices(series, slices)))
        except PreconditionError as exc:
            verdicts.append(str(exc))
    return series.slices, polynomials, verdicts


@pytest.mark.parametrize("base, strategy, target, cap", PRUNING_CASES)
def test_pruned_kernel_matches_the_full_wedge_table(monkeypatch, base, strategy, target, cap):
    algebra, lie_target = PRUNING_BASES[base], KERNEL_TARGETS[target]
    pruned = _germ_outputs(algebra, strategy, lie_target, cap)
    monkeypatch.setattr(TensorDgla, "wedge_onto", lambda self, *columns: self._wedge11)
    assert _germ_outputs(algebra, strategy, lie_target, cap) == pruned


@pytest.mark.parametrize("strategy", ["metric", "pivot"])
@pytest.mark.parametrize("base", sorted(PRUNING_BASES))
def test_wedge_onto_drops_only_unread_monomials(base, strategy):
    algebra = PRUNING_BASES[base]
    dec = split_complex(Dga(algebra), strategy, inferred_grading(algebra), top=GERM_TOP)
    tdgla = TensorDgla(dec.dga, fixtures.sl2())
    delta2, coords = dec.delta_cols(2), dec.harmonic_coords(2)

    def reads(cols, mono):
        return mono < len(cols) and bool(cols[mono])

    for maps in ((delta2,), (coords,), (delta2, coords)):
        table = tdgla.wedge_onto(*maps)
        for full_row, row in zip(tdgla._wedge11, table, strict=True):
            for full, kept in zip(full_row, row, strict=True):
                if kept is not None:
                    assert kept == full and any(reads(cols, kept[1]) for cols in maps)
                elif full is not None:
                    assert not any(reads(cols, full[1]) for cols in maps)


def test_wedge_onto_keeps_few_monomials_on_a_filiform_base():
    # L7 x gl2 (metric): delta_2 reads 5 of the 21 2-monomials, delta_2 and
    # the harmonic coordinates together 12.
    algebra = GENERATED["L7"]
    dec = split_complex(Dga(algebra), "metric", inferred_grading(algebra), top=GERM_TOP)
    tdgla = TensorDgla(dec.dga, fixtures.gl(2))

    def targets(table):
        return {w[1] for row in table for w in row if w is not None}

    assert len(targets(tdgla._wedge11)) == 21
    assert len(targets(tdgla.wedge_onto(dec.delta_cols(2)))) == 5
    assert len(targets(tdgla.wedge_onto(dec.delta_cols(2), dec.harmonic_coords(2)))) == 12


class _CountingColumns(list):
    """Sparse columns that count the reads of their entries."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_apply_columns_reads_each_index_column_once():
    # Monomial 0 has an empty column; monomial 1 goes to 3 * row 0 - row 2.
    # Many terms sit on monomial 0's indices, a few on monomial 1's, in both
    # the real and the imaginary part; each index's column is read once.
    ta = 2
    col_lists = [[], [(0, 3), (2, -1)]]
    cols = _CountingColumns(col_lists)
    re = {
        0: {e: e + 1 for e in range(50)},
        1: {e: -e for e in range(1, 40)},
        3: {7: 2, 9: -5},
    }
    im = {2: {7: 4, 11: 1}}
    got = kuranishi._apply_columns(([(cols, 0)], 5), (re, im), ta)
    assert cols.reads == len(re.keys() | im.keys())
    expected = ({}, {})
    for part, source in zip(expected, (re, im)):
        for index, terms in source.items():
            mono, a = divmod(index, ta)
            for i, c in col_lists[mono]:
                for e, x in terms.items():
                    target = part.setdefault(i * ta + a, {})
                    target[e] = target.get(e, 0) + x * c
    assert got == expected
    assert got == (
        {1: {7: 6, 9: -15}, 5: {7: -2, 9: 5}},
        {0: {7: 12, 11: 3}, 4: {7: -4, 11: -1}},
    )


@pytest.mark.parametrize("base, target", [("L6", "gl2"), ("h5_i_scaled", "sl2")])
def test_series_is_the_same_at_every_packed_exponent_width(base, target):
    # The cap picks the array type of the packed exponents (fields that hold
    # 2 * cap): 8 bits at the default cap, 16 at 200, 32 at 40,000 and 64 at
    # 2^32 and at the largest cap accepted.  A terminated series is the same
    # at each.
    algebra = GENERATED["L6"] if base == "L6" else h5_i_scaled()
    lie_target = fixtures.gl(2) if target == "gl2" else fixtures.sl2()
    dec = split_complex(Dga(algebra), "metric", inferred_grading(algebra), top=GERM_TOP)
    runs = [
        kuranishi_series(dec, TensorDgla(dec.dga, lie_target), cap)
        for cap in (None, 200, 40_000, 2**32, 2**63 - 1)
    ]
    assert [kuranishi._field_code(2 * s.cap) for s in runs] == list("BHIQQ")
    first = runs[0]
    assert first.terminated and first.last_nonzero >= 2
    for series in runs:
        assert series.slices == first.slices
        assert series.obstruction_terms == first.obstruction_terms
        assert series.terminated and series.last_nonzero == first.last_nonzero
        assert gauge_identity_check(series) is None


def test_obstruction_system_rejects_a_linear_term(monkeypatch):
    # The series checks the degree of each monomial it unpacks: a linear
    # term in the integer maps of [phi, phi]_2, put into the harmonic
    # projection (the first linear map applied) or into -(1/2) delta_2 of
    # it (the second), stops it.
    g = FIXTURE_ALGEBRAS["h3"]
    dec = split_complex(Dga(g), "metric", inferred_grading(g))
    m = dec.betti()[1] * 3
    # The default cap 4 gives one byte per exponent.
    linear = int.from_bytes(struct.pack(f"{m}B", 1, *[0] * (m - 1)), sys.byteorder)
    apply = kuranishi._apply_columns
    for corrupted in (1, 2):
        calls = []

        def with_linear_term(columns, maps, ta):
            re, im = apply(columns, maps, ta)
            calls.append(columns)
            if len(calls) == corrupted:
                re.setdefault(0, {})[linear] = 1
            return re, im

        monkeypatch.setattr(kuranishi, "_apply_columns", with_linear_term)
        with pytest.raises(InternalCheckError, match=r"\[phi, phi\]_2 has a degree-1 term"):
            kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
        assert len(calls) == corrupted


@pytest.mark.parametrize("cap", [None, 2, 3])
@pytest.mark.parametrize("base", sorted(GAUGE_BASES))
def test_obstruction_system_brackets_and_projects_nothing(monkeypatch, base, cap):
    algebra = GAUGE_BASES[base]
    dec = split_complex(Dga(algebra), "metric", inferred_grading(algebra), top=GERM_TOP)
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.gl(2)), cap)
    expected = [dict(terms) for terms in series.obstruction_terms]

    def refuse(*args):
        raise AssertionError("obstruction_system reached the bracket kernel")

    for name in ("_square", "_sum_pairs", "_apply_columns", "_reduce"):
        monkeypatch.setattr(kuranishi, name, refuse)
    system = obstruction_system(series)
    assert [p.terms for p in system.polynomials] == expected
    assert series.obstruction_terms == expected


DEGREE_ALGEBRAS = {
    **{f"fixture:{name}": a for name, a in FIXTURE_ALGEBRAS.items()},
    **{f"generated:{name}": a for name, a in GENERATED.items()},
}


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("target", ["sl2", "gl:2", "gl:3"])
@pytest.mark.parametrize("name", sorted(DEGREE_ALGEBRAS))
def test_series_records_the_degrees_a_recount_finds(name, target, cap):
    # The system reads each polynomial's homogeneous degrees from the
    # series, which records them degree by degree; counted again here from
    # the terms, densely, they agree, and so does the max degree.
    algebra = DEGREE_ALGEBRAS[name]
    dec = split_complex(Dga(algebra), "metric", inferred_grading(algebra), top=GERM_TOP)
    series = kuranishi_series(dec, TensorDgla(dec.dga, cli.resolve_target(target)[1]), cap)
    system = obstruction_system(series)
    recount = homogeneous_degrees(system.polynomials)
    assert system.degrees is series.obstruction_degrees
    assert system.degrees == recount
    assert system.max_degree == max((d[-1] for d in recount if d), default=0)
    assert system.max_degree == max((p.total_degree() for p in system.polynomials), default=0)


def test_a_polynomial_pushed_past_the_bound_is_its_witness(monkeypatch, tmp_path, capsys):
    # h3 x sl2 (nu = 2) meets its bound nu + 1 = 3.  The last nonzero
    # obstruction polynomial is pushed past it by a term of degree 4, which
    # the series records as its own loop would: the degrees, the max degree
    # and the bound follow, and the witness is that polynomial, printed as
    # its "pretty" form and as the reference prints its records.
    real, pushed = cli.kuranishi_series, []

    def push(dec, tdgla, cap=None):
        series = real(dec, tdgla, cap)
        k = max(k for k, terms in enumerate(series.obstruction_terms) if terms)
        exps = (0,) * (len(series.variables) - 1) + (4,)
        series.obstruction_terms[k][exps] = scalar("-1/2")
        series.obstruction_degrees[k].append(4)
        pushed.append(k)
        return series

    monkeypatch.setattr(cli, "kuranishi_series", push)
    out = tmp_path / "germ.json"
    assert cli.main(["kuranishi", str(FIXTURES / "h3.json"), "--target", "sl2", "--json", str(out)]) == 0
    capsys.readouterr()
    germ = json.loads(out.read_text())["obstructions"]
    (k,) = pushed
    records = germ["polynomials"][k]
    shown = show_reference(
        tuple(json.loads(out.read_text())["variables"]),
        [(tuple(r["exponents"]), r["coefficient"]) for r in records[::-1]],
    )
    assert "-1/2*t6^4" in shown
    assert germ["degree_bound"] == {"bound": 3, "satisfied": False, "witness": shown}
    assert germ["pretty"][k] == shown
    assert germ["max_degree"] == 4
    assert germ["homogeneous_degrees"][k] == [3, 4]
    assert all(d == [3] for j, d in enumerate(germ["homogeneous_degrees"]) if j != k and d)


@pytest.mark.parametrize("argv, built", [
    (["pipeline", "solv_heisenberg.json", "--target", "sl2"], 2),
    (["kuranishi", "q_plus_h3.json", "--target", "sl2",
      "--subdga", "diag_weight_characters.json"], 2),
    (["kuranishi", "h3.json", "--target", "gl:2"], 1),
])
def test_one_tensor_dgla_per_complex(monkeypatch, capsys, argv, built):
    # The germ and the embedding check share C*(complex) tensor the target:
    # a pipeline with characters builds one for the complex and one for the
    # selection, and kuranishi --subdga builds the ambient one for the
    # embedding check alone.
    init, count = TensorDgla.__init__, []

    def counted(self, *args):
        count.append(args)
        init(self, *args)

    monkeypatch.setattr(TensorDgla, "__init__", counted)
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(count) == built
