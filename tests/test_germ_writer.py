"""The germ writer against the germ file as nested dicts.

``formats.germ_to_dict`` hands ``render_json`` the germ's phi and
obstruction records as ``Fragment``s, text written straight from the
series and the polynomials.  These tests hold that text to
``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)`` of
``conftest.germ_to_dict_reference``, at the two places a germ sits in a
report: the top level of ``kuranishi``, and under ``"germ"`` in
``pipeline``.  The records are written for one of the two places (the
``depth`` of ``germ_to_dict``), or only when rendered (``depth`` None), so
each germ is made all three ways and rendered at both places.
"""

from __future__ import annotations

import json
from fractions import Fraction

from conftest import (
    FIXTURE_ALGEBRAS,
    I,
    germ_to_dict_reference,
    homogeneous_degrees,
    inferred_grading,
    replaced,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import cli, fixtures
from germkit.cedga import Dga
from germkit.cli import main
from germkit.decomp import split_complex
from germkit.formats import Fragment, _Exponents, algebra_to_dict, germ_to_dict, render_json
from germkit.kuranishi import ObstructionSystem, TensorDgla, kuranishi_series
from germkit.multipoly import MultiPoly
from germkit.scalars import ONE, Scalar, scalar


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _h3_germ():
    algebra = FIXTURE_ALGEBRAS["h3"]
    grading = inferred_grading(algebra)
    dec = split_complex(Dga(algebra), "metric", grading)
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
    fields = {
        "base": algebra_to_dict(algebra, "h3"),
        "target": algebra_to_dict(fixtures.sl2(), "sl2"),
        "strategy": "metric",
        "grading_labels": [[["X", "Y"]], [["Z"]]],
        "subdga_monomials": None,
        "degree_bound": {"bound": 3, "satisfied": True},
    }
    return series, fields


SERIES, FIELDS = _h3_germ()
NVARS = len(SERIES.variables)
FLAT = SERIES.tdgla.dim(1)

# "1" and "-1" print no coefficient; a Gaussian coefficient with a real
# part prints in parentheses.
COEFFICIENTS = st.one_of(
    st.sampled_from([ONE, -ONE, scalar("-1/2"), scalar("-7/3"), scalar("1/2+3*i"), -I, I]),
    st.builds(
        Scalar,
        st.fractions(max_denominator=20).filter(bool),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]),
    ),
)
# Exponents reach two digits; an all-zero vector is a constant term.
EXPONENTS = st.tuples(*[st.sampled_from([0, 0, 0, 1, 2, 9, 10, 12])] * NVARS)
SLICES = st.dictionaries(
    st.integers(1, 12),
    st.dictionaries(
        EXPONENTS,
        st.dictionaries(st.integers(0, FLAT - 1), COEFFICIENTS, min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    max_size=3,
)
# Zero polynomials among nonzero ones, or none at all (a smooth germ).
POLYNOMIALS = st.lists(
    st.dictionaries(EXPONENTS, COEFFICIENTS, max_size=5).map(
        lambda terms: MultiPoly(SERIES.variables, terms)
    ),
    max_size=4,
)


def _germs(slices, polynomials, depth=0, variables=SERIES.variables):
    # A germ of fewer variables than the h3 series keeps that many of its zeta.
    zeta_info = SERIES.zeta_info[: len(variables)]
    degrees = homogeneous_degrees(polynomials)  # these terms', not the h3 series'
    series = replaced(
        SERIES, slices=slices, variables=variables, zeta_info=zeta_info,
        obstruction_degrees=degrees,
    )
    system = ObstructionSystem(
        tuple(f"h2[{k}]⊗H" for k in range(len(polynomials))),
        tuple(polynomials),
        max((d[-1] for d in degrees if d), default=0),
    )
    return (
        germ_to_dict(series, system, **FIELDS, depth=depth),
        germ_to_dict_reference(series, system, **FIELDS),
    )


def _check(slices, polynomials, variables=SERIES.variables):
    for depth in (0, 1, None):
        germ, reference = _germs(slices, polynomials, depth, variables)
        assert germ["obstructions"]["pretty"] == reference["obstructions"]["pretty"]
        # At the top level (kuranishi) and under "germ" (pipeline).
        assert render_json(germ) == dumps(reference)
        nested = {"germ": germ, "stages": []}
        assert render_json(nested) == dumps({"germ": reference, "stages": []})


@settings(max_examples=60, deadline=None)
@given(SLICES, POLYNOMIALS)
def test_germ_text_is_the_stdlib_dump_of_the_reference(slices, polynomials):
    _check(slices, polynomials)


# Germs on both sides of the writer's rule (``formats._Exponents``): one
# variable, the most that take the "%d" template, one more, and 64, as on a
# solvable algebra with gl3 values.  Each term has one to three nonzero
# exponents, some of two digits, and every germ has a term with a 10 and a
# term with a 12, with coefficients i and -i, in phi and in an obstruction.
WIDTHS = [1, _Exponents.NARROW, _Exponents.NARROW + 1, 64]
WIDE_COEFFICIENTS = st.one_of(st.sampled_from([I, -I, ONE, -ONE]), COEFFICIENTS)


def _germs_of_width(width):
    variables = tuple(f"t{i + 1}" for i in range(width))
    exponents = st.dictionaries(
        st.integers(0, width - 1), st.sampled_from([1, 2, 3, 10, 12, 37]), min_size=1, max_size=3
    ).map(lambda spots: tuple(spots.get(k, 0) for k in range(width)))
    ten, twelve = (10,) + (0,) * (width - 1), (0,) * (width - 1) + (12,)
    slices = st.dictionaries(
        st.integers(1, 40),
        st.dictionaries(
            exponents,
            st.dictionaries(st.integers(0, FLAT - 1), WIDE_COEFFICIENTS, min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        ),
        max_size=3,
    ).map(lambda slices: {**slices, 41: {ten: {0: I}, twelve: {FLAT - 1: -I}}})
    polynomials = st.lists(
        st.dictionaries(exponents, WIDE_COEFFICIENTS, max_size=8).map(
            lambda terms: MultiPoly(variables, terms)
        ),
        max_size=4,
    ).map(lambda polys: [*polys, MultiPoly(variables, {ten: I, twelve: -I})])
    return st.tuples(st.just(variables), slices, polynomials)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WIDTHS).flatmap(_germs_of_width))
def test_wide_germ_text_is_the_stdlib_dump_of_the_reference(germ):
    variables, slices, polynomials = germ
    _check(slices, polynomials, variables)


def test_edge_germs_are_covered():
    # The cases the hypothesis test is meant to reach, spelled out once.
    wide = tuple([10] + [0] * (NVARS - 2) + [12])
    cases = [
        ({}, []),  # an empty phi and a smooth germ
        ({1: {wide: {0: -I}}}, [MultiPoly(SERIES.variables, {})]),
        (
            {22: {wide: {0: scalar("1/2+3*i"), FLAT - 1: -ONE}}},
            [MultiPoly(SERIES.variables, {wide: scalar("-1/2"), (0,) * NVARS: ONE})],
        ),
    ]
    for slices, polynomials in cases:
        _check(slices, polynomials)
    germ, _ = _germs(*cases[-1])
    assert "t1^10*t6^12" in germ["obstructions"]["pretty"][0]


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


def _fragment(value) -> Fragment:
    """A Fragment of ``value``: the stdlib's text, indented for its place."""
    return Fragment(lambda newline: dumps(value)[:-1].replace("\n", newline))


@given(JSON_VALUES, JSON_VALUES)
def test_a_fragment_reads_as_its_value(value, other):
    data = {"a": value, "b": [other, {"c": value}, value]}
    held = {"a": _fragment(value), "b": [other, {"c": _fragment(value)}, _fragment(value)]}
    assert render_json(held) == dumps(data)


L5_TWISTED = {
    "name": "L5_twisted",
    "basis": ["e1", "f2", "e3", "e4", "e5"],
    "brackets": [
        {"left": "e1", "right": "f2",
         "result": [{"coef": "1", "basis": "e3"}, {"coef": "1", "basis": "e4"}]},
        {"left": "e1", "right": "e3", "result": [{"coef": "1", "basis": "e4"}]},
        {"left": "e1", "right": "e4", "result": [{"coef": "1", "basis": "e5"}]},
    ],
}


def test_two_digit_exponents_end_to_end(tmp_path, capsys, monkeypatch):
    # The twisted L5 has no basis-aligned grading; its sl2 germ is truncated
    # at the default cap 10, with phi exponents up to 9 and obstruction
    # exponents up to 10.
    source = tmp_path / "L5_twisted.json"
    source.write_text(json.dumps(L5_TWISTED))
    written, expected = tmp_path / "germ.json", tmp_path / "reference.json"
    argv = ["kuranishi", str(source), "--target", "sl2", "--json"]
    assert main([*argv, str(written)]) == 0
    monkeypatch.setattr(cli, "germ_to_dict", germ_to_dict_reference)
    monkeypatch.setattr(cli, "render_json", dumps)
    assert main([*argv, str(expected)]) == 0
    capsys.readouterr()
    assert written.read_bytes() == expected.read_bytes()

    germ = json.loads(written.read_text())
    phi_top = max(e for block in germ["phi"] for t in block["terms"] for e in t["exponents"])
    obstruction_top = max(
        e for records in germ["obstructions"]["polynomials"] for r in records for e in r["exponents"]
    )
    assert (phi_top, obstruction_top) == (9, 10)
