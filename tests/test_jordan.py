import random
from fractions import Fraction

from conftest import minimal_polynomial

import germkit.linalg as la
from germkit.jordan import (
    char_poly,
    jordan_chevalley,
    poly_derivative,
    poly_eval_matrix,
    poly_gcd,
    squarefree_part,
)
from germkit.scalars import ONE, Scalar, ZERO, scalar


def s(x):
    return scalar(x)


def test_diagonal_is_already_semisimple():
    m = [[s(2), ZERO], [ZERO, s(-5)]]
    semi, nil = jordan_chevalley(m)
    assert la.mat_eq(semi, m) and la.is_zero_matrix(nil)


def test_strictly_upper_triangular_is_nilpotent():
    m = [[ZERO, s(3), s(1)], [ZERO, ZERO, s(2)], [ZERO, ZERO, ZERO]]
    semi, nil = jordan_chevalley(m)
    assert la.is_zero_matrix(semi) and la.mat_eq(nil, m)


def test_jordan_block():
    m = [[ONE, ONE], [ZERO, ONE]]
    semi, nil = jordan_chevalley(m)
    assert la.mat_eq(semi, la.identity(2))
    assert la.mat_eq(nil, [[ZERO, ONE], [ZERO, ZERO]])


def test_rotation_block_is_semisimple_over_gaussian_rationals():
    m = [[ZERO, -ONE], [ONE, ZERO]]  # eigenvalues +-i
    semi, nil = jordan_chevalley(m)
    assert la.mat_eq(semi, m) and la.is_zero_matrix(nil)


def test_char_poly_2x2():
    m = [[s(1), s(2)], [s(3), s(4)]]
    # x^2 - 5x - 2
    assert char_poly(m) == [s(-2), s(-5), ONE]


def test_minimal_polynomial_of_jordan_block():
    m = [[ONE, ONE], [ZERO, ONE]]
    # (x - 1)^2
    assert minimal_polynomial(m) == [ONE, s(-2), ONE]
    assert minimal_polynomial(la.identity(3)) == [-ONE, ONE]


def test_squarefree_part():
    # (x-1)^2 (x+2)  ->  (x-1)(x+2)
    p = [s(2), s(-3), ZERO, ONE]
    assert squarefree_part(p) == [s(-2), ONE, ONE]


def _random_scalar(rng, complex_ok=False):
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    im = Fraction(rng.randint(-1, 1)) if complex_ok and rng.random() < 0.3 else Fraction(0)
    return Scalar(re, im)


def random_conjugated_block_matrix(rng, max_dim=6, complex_ok=False):
    n = rng.randint(2, max_dim)
    m = la.zeros(n, n)
    filled = 0
    while filled < n:
        size = rng.randint(1, min(3, n - filled))
        eigenvalue = _random_scalar(rng, complex_ok)
        for r in range(size):
            m[filled + r][filled + r] = eigenvalue
            if r + 1 < size and rng.random() < 0.8:
                m[filled + r][filled + r + 1] = ONE
        filled += size
    p = la.identity(n)
    p_inv = la.identity(n)
    shears = []
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = scalar(rng.randint(-2, 2))
        shears.append((i, j, c))
        for col in range(n):
            p[i][col] = p[i][col] + c * p[j][col]
    for i, j, c in reversed(shears):
        for col in range(n):
            p_inv[i][col] = p_inv[i][col] - c * p_inv[j][col]
    assert la.mat_eq(la.mat_mul(p, p_inv), la.identity(n))
    return la.mat_mul(la.mat_mul(p, m), p_inv)


def assert_good_decomposition(m):
    n = len(m)
    semi, nil = jordan_chevalley(m)
    assert la.mat_eq(la.mat_add(semi, nil), m)
    assert la.mat_eq(la.mat_mul(semi, nil), la.mat_mul(nil, semi))
    power = la.identity(n)
    for _ in range(n):
        power = la.mat_mul(nil, power)
    assert la.is_zero_matrix(power)
    mp = minimal_polynomial(semi)
    assert poly_gcd(mp, poly_derivative(mp)) == [ONE]
    return semi, nil


def test_randomized_decompositions_with_gaussian_entries():
    rng = random.Random(20240817)
    for _ in range(25):
        m = random_conjugated_block_matrix(rng, max_dim=5, complex_ok=True)
        assert_good_decomposition(m)


def test_semisimple_part_commutes_with_polynomials_in_m():
    rng = random.Random(99)
    for _ in range(10):
        m = random_conjugated_block_matrix(rng, max_dim=4)
        semi, _ = jordan_chevalley(m)
        coeffs = [scalar(rng.randint(-3, 3)) for _ in range(4)]
        commutant = poly_eval_matrix(coeffs, m)
        assert la.mat_eq(
            la.mat_mul(semi, commutant), la.mat_mul(commutant, semi)
        )
