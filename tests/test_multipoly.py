import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RingPoly, homogeneous_components, polynomial_records, show_reference

from germkit import cli
from germkit.formats import germ_from_dict, load_json_file
from germkit.kuranishi import PolyCochain
from germkit.multipoly import MultiPoly, PointPowers, printed
from germkit.scalars import ParsedScalars, Scalar, ZERO, scalar

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

VARS = ("t1", "t2", "t3")

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)
exps_st = st.tuples(*(st.integers(0, 3) for _ in range(3)))
polys_st = st.builds(
    lambda terms: RingPoly(VARS, terms),
    st.dictionaries(exps_st, scalars_st, max_size=4),
)
points_st = st.tuples(*(scalars_st for _ in range(3)))


def p_var(i):
    return RingPoly.variable(VARS, i)


def test_product_examples():
    t1, t2 = p_var(0), p_var(1)
    assert t1 * t2 == MultiPoly(VARS, {(1, 1, 0): scalar(1)})
    assert (t1 + t2) * (t1 - t2) == MultiPoly(
        VARS, {(2, 0, 0): scalar(1), (0, 2, 0): scalar(-1)}
    )
    assert t1 * ZERO == RingPoly.zero(VARS)


def test_eval_examples():
    t1, t2 = p_var(0), p_var(1)
    assert (t1 * t2).eval(PointPowers([scalar(2), scalar(3), ZERO])) == scalar(6)
    sym = t1 * t1 - t2 * t2
    assert sym.eval(PointPowers([scalar(1), scalar(1), ZERO])) == ZERO
    p = t1 * t2 + RingPoly.constant(VARS, scalar("5/7"))
    assert p.eval(PointPowers([ZERO, ZERO, ZERO])) == scalar("5/7")


def test_homogeneous_components_examples():
    t1, t2 = p_var(0), p_var(1)
    comps = homogeneous_components(t1 + t1 * t2)
    assert [(d, str(c)) for d, c in comps] == [(1, "t1"), (2, "t1*t2")]
    assert homogeneous_components(RingPoly.zero(VARS)) == []
    cubed = t1 * t1 * t1
    assert homogeneous_components(cubed) == [(3, cubed)]


def test_variable_mismatch_rejected():
    p = RingPoly.variable(("a", "b"), 0)
    q = RingPoly.variable(("c",), 0)
    with pytest.raises(ValueError):
        p + q
    # constants pass through
    assert p + RingPoly.constant(("c",), scalar(1)) == p + scalar(1)


@given(polys_st, polys_st, polys_st)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys_st, polys_st)
def test_degree_of_products(p, q):
    if p and q:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@given(polys_st, points_st)
def test_eval_is_a_ring_map(p, point):
    q = p * p + p
    direct = q.eval(PointPowers(point))
    via = p.eval(PointPowers(point))
    assert direct == via * via + via


@given(polys_st)
def test_homogeneous_components_sum_back(p):
    total = RingPoly.zero(VARS)
    for degree, comp in homogeneous_components(p):
        assert RingPoly(VARS, comp.terms).is_homogeneous()
        assert not comp or comp.total_degree() == degree
        total = total + comp
    assert total == p


@given(polys_st)
def test_records_round_trip(p):
    records = polynomial_records(p)
    assert MultiPoly.from_records(VARS, records, ParsedScalars()) == p
    grlex = [(tuple(r["exponents"]), r["coefficient"]) for r in records]
    assert str(p) == show_reference(VARS, grlex[::-1])


def test_string_form_is_graded_lex():
    t1, t2, t3 = (p_var(i) for i in range(3))
    poly = t3 + t1 * t1 + t1 * t2 + scalar(2) * t1
    assert str(poly) == "t1^2 + t1*t2 + 2*t1 + t3"


VARS64 = tuple(f"t{k}" for k in range(1, 65))
# A wide germ's terms: one to three nonzero exponents among 64 variables.
wide_exps_st = st.dictionaries(st.integers(0, 63), st.integers(1, 3), max_size=3).map(
    lambda entries: tuple(entries.get(k, 0) for k in range(64))
)
wide_polys_st = st.builds(
    lambda terms: MultiPoly(VARS64, terms),
    st.dictionaries(wide_exps_st, scalars_st.filter(bool), max_size=12),
)


def sparse_grlex_key(exps):
    """The degree, then -position and value of each nonzero entry in
    position order: grlex read from the nonzero entries alone."""
    key = [sum(exps)]
    for k, e in enumerate(exps):
        if e:
            key += [-k, e]
    return key


@given(wide_polys_st)
def test_printed_orders_wide_terms_by_the_sparse_key(poly):
    # printed() sorts on the dense exponent tuples; a key from the nonzero
    # entries alone gives the same order, here on 64 variables.
    order = [exps for _, exps, _, _ in printed(poly)[1]]
    assert order == sorted(poly.terms, key=sparse_grlex_key)
    assert order == sorted(poly.terms, key=lambda exps: (sum(exps), exps))


def test_eval_length_mismatch():
    too_long = PointPowers([scalar(1)] * 4)
    with pytest.raises(ValueError):
        p_var(0).eval(too_long)
    with pytest.raises(ValueError):
        PolyCochain(VARS, {1: {(1, 0, 0): {0: scalar(1)}}}).eval(too_long)


# -- evaluation against a plain oracle ---------------------------------------------

VARS8 = tuple(f"t{k}" for k in range(1, 9))
# Mostly zero exponents, as in obstruction terms; Gaussian points with zeros.
exps8_st = st.tuples(*(st.sampled_from((0, 0, 0, 1, 2, 3)) for _ in VARS8))
polys8_st = st.builds(
    lambda terms: RingPoly(VARS8, terms),
    st.dictionaries(exps8_st, scalars_st, max_size=6),
)
points8_st = st.lists(
    st.one_of(st.just(ZERO), scalars_st), min_size=len(VARS8), max_size=len(VARS8)
)
cochains8_st = st.dictionaries(
    exps8_st, st.dictionaries(st.integers(0, 3), scalars_st, min_size=1, max_size=3),
    max_size=4,
)


def oracle_monomial(exps, point):
    value = scalar(1)
    for x, e in zip(point, exps):
        for _ in range(e):
            value = value * x
    return value


def oracle_eval(poly, point):
    """Sum of c * prod x_j^e_j with plain Scalar products."""
    total = ZERO
    for exps, coeff in poly.terms.items():
        total = total + coeff * oracle_monomial(exps, point)
    return total


def oracle_cochain(terms, point):
    out = {}
    for exps, vec in terms.items():
        m = oracle_monomial(exps, point)
        for i, c in vec.items():
            out[i] = out.get(i, ZERO) + c * m
    return {i: c for i, c in out.items() if c}


def as_cochain(terms):
    slices = {}
    for exps, vec in terms.items():
        slices.setdefault(sum(exps), {})[exps] = vec
    return PolyCochain(VARS8, slices)


@settings(max_examples=60, deadline=None)
@given(st.lists(polys8_st, min_size=1, max_size=3), cochains8_st, points8_st)
def test_eval_at_a_shared_point_matches_the_oracle(polys, terms, point):
    at = PointPowers(point)
    for p in polys:
        assert p.eval(at) == oracle_eval(p, point)
    cochain = as_cochain(terms)
    assert cochain.eval(at) == oracle_cochain(terms, point)


@settings(max_examples=60, deadline=None)
@given(polys8_st, cochains8_st, points8_st, points8_st)
def test_points_evaluated_in_turn_keep_their_own_powers(p, terms, x, y):
    at_x, at_y = PointPowers(x), PointPowers(y)
    cochain = as_cochain(terms)
    for at, point in ((at_x, x), (at_y, y), (at_x, x), (at_y, y)):
        assert p.eval(at) == oracle_eval(p, point)
        assert cochain.eval(at) == oracle_cochain(terms, point)


def test_integer_evaluation_of_a_read_germ_matches_the_oracle(tmp_path, capsys):
    """h5 x gl3 as ``kuranishi --json`` writes it (36 variables), read back:
    phi and every obstruction polynomial evaluate on integers to what the
    Scalar oracles give, at an axis point and at a Gaussian point whose
    coordinates have mixed denominators."""
    path = tmp_path / "germ.json"
    argv = ["kuranishi", str(FIXTURES / "h5.json"), "--target", "gl:3", "--json", str(path)]
    assert cli.main(argv) == 0
    germ = germ_from_dict(load_json_file(str(path)), str(path))
    n = len(germ.variables)
    assert n == 36 and germ.phi.slices and any(germ.polynomials)
    axis = [ZERO] * n
    axis[7] = Scalar(Fraction(-2, 3), Fraction(1, 5))
    gaussian = [
        Scalar(Fraction((-1) ** k * (k % 7 + 1), k % 5 + 1), Fraction(k % 3 - 1, k % 4 + 2))
        for k in range(n)
    ]
    phi_terms = {e: vec for terms in germ.phi.slices.values() for e, vec in terms.items()}
    for point in (axis, gaussian):
        at = PointPowers(point)
        omega = germ.phi.eval(at)
        assert omega and omega == oracle_cochain(phi_terms, point)
        values = [poly.eval(at) for poly in germ.polynomials]
        assert values == [oracle_eval(poly, point) for poly in germ.polynomials]
    # phi = t * zeta is flat on an axis; at the generic point the germ is not.
    assert any(values)


def test_prepared_point_length_mismatch():
    with pytest.raises(ValueError):
        p_var(0).eval(PointPowers([scalar(1)]))
