import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import I

from germkit.errors import ParseError
from germkit.scalars import (
    ONE,
    Scalar,
    ZERO,
    format_scalar,
    from_ints,
    parse_scalar,
    scalar,
)

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=12)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)
rationals_st = st.builds(Scalar, fractions_st)


def test_basic_examples():
    assert scalar("1/2") + scalar("1/3") == scalar("5/6")
    assert I * I == -ONE
    assert (scalar(2) + scalar("3*i")).conjugate() == scalar("2-3*i")


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_rational_inputs_stay_rational():
    a, b = scalar("3/7"), scalar("-14/9")
    for value in (a + b, a * b, a / b, a - b):
        assert value.is_rational()


@given(scalars_st, scalars_st, scalars_st)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(scalars_st)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@given(scalars_st, scalars_st)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars_st)
def test_string_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ZERO),
        ("-7/3", Scalar(Fraction(-7, 3))),
        ("i", I),
        ("-i", -I),
        ("2*i", Scalar(Fraction(0), Fraction(2))),
        ("1/2+1/3*i", Scalar(Fraction(1, 2), Fraction(1, 3))),
        ("1/2-1/3*i", Scalar(Fraction(1, 2), Fraction(-1, 3))),
        ("-1/2+i", Scalar(Fraction(-1, 2), Fraction(1))),
    ],
)
def test_parse_forms(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "", "x", "1//2", "1+2", "1/0",
        # Fraction() syntax outside the documented forms
        "1.5", "1_0", "1e3", "1e3000000", "-.5", "1/2.0", " 1 /0x1",
        # malformed imaginary parts
        "2i", "1+2i", "1*i*i", "1+-2*i", "*i", "1/2*i+1", "i1", "+", "--1",
        "\u0663",  # a non-ASCII decimal digit
    ],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "bad scalar '1/0': Fraction(1, 0)"),
        ("3/0*i", "bad scalar '3/0*i': Fraction(3, 0)"),
    ],
)
def test_zero_denominator_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == message


# -- the integer representation against a (Fraction, Fraction) oracle ---------

# Small denominators make the cross-gcd and sign branches common; wide ones
# exercise large integers.  Rational values take the one-part branch.
wide_fractions_st = st.fractions(max_denominator=10**4)
any_fractions_st = st.one_of(fractions_st, wide_fractions_st)
oracle_scalars_st = st.one_of(
    scalars_st,
    rationals_st,
    st.builds(Scalar, wide_fractions_st, wide_fractions_st),
    st.builds(Scalar, wide_fractions_st),
)
# Wide and small integers and wide fractions, each as the rational Scalar
# it builds: the operators take Scalars only.
operands_st = st.one_of(
    oracle_scalars_st,
    st.builds(Scalar, st.integers(-(10**6), 10**6)),
    st.builds(Scalar, st.integers(-12, 12)),
    st.builds(Scalar, any_fractions_st),
)


def _pair(x):
    """(re, im) of a Scalar, as the Fraction-pair representation holds it."""
    return x.re, x.im


def _oracle_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _oracle_div(p, q):
    norm = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm


ORACLE = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: _oracle_mul,
    operator.truediv: _oracle_div,
}


def _assert_canonical(x, pair):
    assert type(x) is Scalar
    assert (x.re, x.im) == pair
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1


@given(oracle_scalars_st, operands_st, st.sampled_from(list(ORACLE)), st.booleans())
def test_arithmetic_matches_fraction_pair_oracle(x, y, op, scalar_on_right):
    left, right = (y, x) if scalar_on_right else (x, y)
    if op is operator.truediv and _pair(right) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    _assert_canonical(op(left, right), ORACLE[op](_pair(left), _pair(right)))


@given(oracle_scalars_st)
def test_unary_operations_match_oracle(x):
    re, im = _pair(x)
    _assert_canonical(-x, (-re, -im))
    _assert_canonical(x.conjugate(), (re, -im))
    if not x:
        with pytest.raises(ZeroDivisionError):
            ONE / x
        return
    _assert_canonical(ONE / x, _oracle_div((Fraction(1), Fraction(0)), (re, im)))


@given(any_fractions_st, any_fractions_st)
def test_parts_round_trip(re, im):
    x = Scalar(re, im)
    _assert_canonical(x, (re, im))
    assert Scalar(re=re, im=im) == x
    assert Scalar(x.re, x.im) == x
    assert x.is_rational() == (im == 0)
    assert (not x) == (re == 0 and im == 0)
    assert pickle.loads(pickle.dumps(x)) == x
    d = 6 * re.denominator * im.denominator  # over a common, unreduced denominator
    a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    _assert_canonical(from_ints(a, b, d), (re, im))


@given(oracle_scalars_st, st.integers(1, 10**6))
def test_equal_values_have_equal_hashes(x, k):
    y = (x * Scalar(k)) / Scalar(k)
    assert y == x and hash(y) == hash(x)
    # the hash of the (re, im) Fraction pair, which fixes set iteration order
    assert hash(x) == hash((x.re, x.im))


def test_equality_and_hash_examples():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2)) == scalar("3/6")
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))
    assert Scalar(1) == Scalar(Fraction(1)) == ONE
    assert Scalar(1) != 1 and 1 != Scalar(1)
    assert Scalar(0) != 0 and ONE != "1" and ONE != Fraction(1)
    assert len({Scalar(Fraction(2, 4)), Scalar(Fraction(1, 2)), ONE}) == 2


@pytest.mark.parametrize("name", ["re", "im", "_a", "_b", "_d", "extra"])
def test_attribute_assignment_raises(name):
    x = scalar("1/2+1/3*i")
    with pytest.raises(AttributeError):
        setattr(x, name, Fraction(1))
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == scalar("1/2+1/3*i")


def test_constructor_rejects_other_types():
    for bad in (0.5, "1", None, 1j):
        with pytest.raises(TypeError):
            Scalar(bad)


class _RightOperand:
    """A foreign type that knows how to stand on the right of a Scalar."""

    def __radd__(self, other):
        return ("radd", other)

    def __rmul__(self, other):
        return ("rmul", other)


@pytest.mark.parametrize(
    "op, left, right",
    [
        (operator.add, ONE, 1),
        (operator.add, 1, ONE),
        (operator.sub, ONE, Fraction(1, 2)),
        (operator.mul, 2, ONE),
        (operator.truediv, ONE, 2),
        (operator.mul, True, ONE),
    ],
    ids=["scalar+int", "int+scalar", "scalar-fraction", "int*scalar", "scalar/int", "bool*scalar"],
)
def test_operators_take_scalars_only(op, left, right):
    with pytest.raises(TypeError):
        op(left, right)


def test_sum_needs_a_scalar_start():
    with pytest.raises(TypeError):
        sum([ONE, ONE])
    assert sum([ONE, ONE], ZERO) == Scalar(2)


def test_foreign_right_operand_gets_its_reflected_method():
    # A non-Scalar operand makes the Scalar's method return NotImplemented,
    # so Python asks the right operand: the tests' RingPoly relies on it.
    right = _RightOperand()
    assert ONE + right == ("radd", ONE)
    assert ONE * right == ("rmul", ONE)
