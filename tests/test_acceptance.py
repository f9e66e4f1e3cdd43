"""Acceptance criteria, one test per criterion.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts exactly; there are no tolerances anywhere because the
whole engine is exact.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    FIXTURE_ALGEBRAS,
    GRADED_NILPOTENT,
    PARSED_FIXTURES,
    UNIMODULAR,
    RingPoly,
    apply_d,
    conj_transpose,
    dense_mat_mul,
    embedding_check,
    hermitian,
    homogeneous_components,
    identity,
    inferred_grading,
    is_zero_matrix,
    jordan_chevalley_on_dense,
    mat_add,
    mat_vec,
    minimal_polynomial,
    non_unimodular2,
    replaced,
    solvable_input,
    zeros,
)

from germkit import fixtures
from germkit.cedga import Dga, pd_type_check, subdga_from_characters
from germkit.decomp import kernel_containment_check, split_complex
from germkit.jordan import poly_derivative, poly_xgcd
from germkit.kuranishi import (
    TensorDgla,
    gauge_identity_check,
    kuranishi_series,
    obstruction_system,
    verify_degree_bound,
)
from germkit.nilshadow import nilshadow
from germkit.scalars import ONE, Scalar, ZERO, scalar


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {verdict} - {detail}")
    assert ok, detail


def _graded_metric(algebra):
    grading = inferred_grading(algebra)
    assert grading is not None
    return split_complex(Dga(algebra), "metric", grading), grading


# -- criterion 1: the cubic cone -----------------------------------------------


def test_criterion_1_cubic_cone():
    dec, _ = _graded_metric(FIXTURE_ALGEBRAS["h3"])
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
    system = obstruction_system(series)

    ok = series.terminated and series.last_nonzero == 2
    ok = ok and len(system.variables) == 6
    ok = ok and len(system.polynomials) == 6
    ok = ok and all(
        homogeneous_components(p) == [(3, p)] for p in system.polynomials
    )

    # independent brute-force oracle: [a,[a,b]] = 0, [b,[a,b]] = 0 expanded
    # by hand from the sl2 bracket, no harmonic machinery involved
    variables = system.variables

    def var(i):
        return RingPoly.variable(variables, i)

    a = [var(0), var(1), var(2)]
    b = [var(3), var(4), var(5)]

    def sl2_bracket(u, v):
        return [
            u[1] * v[2] - u[2] * v[1],
            (u[0] * v[1] - u[1] * v[0]) * scalar(2),
            (u[0] * v[2] - u[2] * v[0]) * scalar(-2),
        ]

    c = sl2_bracket(a, b)
    oracle = sl2_bracket(a, c) + sl2_bracket(b, c)
    # identification: engine coordinates are (x^z, y^z) x (H, E, F) and the
    # engine system carries the symmetric factor 2 from [phi, phi]
    ok = ok and all(
        engine == oracle_poly * scalar(2)
        for engine, oracle_poly in zip(system.polynomials, oracle)
    )
    report(
        1,
        ok,
        "h(3) x sl2 terminates at degree 2 and emits the six homogeneous "
        "cubics of [a,[a,b]] = [b,[a,b]] = 0 (exact match to the "
        "brute-force oracle after the coordinate identification)",
    )


# -- criterion 2: degree bound nu + 1 --------------------------------------------


def test_criterion_2_degree_bound():
    bases = {
        "abelian3": (FIXTURE_ALGEBRAS["abelian3"], 1),
        "h3": (FIXTURE_ALGEBRAS["h3"], 2),
        "h5": (FIXTURE_ALGEBRAS["h5"], 2),
        "filiform4": (FIXTURE_ALGEBRAS["filiform4"], 3),
    }
    targets = {
        "sl2": fixtures.sl2(),
        "gl2": fixtures.gl(2),
        "h3": FIXTURE_ALGEBRAS["h3"],
    }
    ok = True
    details = []
    for base_name, (base, expected_nu) in bases.items():
        dec, grading = _graded_metric(base)
        ok = ok and grading.depth == expected_nu
        for target_name, target in targets.items():
            series = kuranishi_series(dec, TensorDgla(dec.dga, target))
            system = obstruction_system(series)
            good = (
                series.terminated
                and series.last_nonzero <= expected_nu
                and verify_degree_bound(system, expected_nu) is None
            )
            ok = ok and good
            details.append(
                f"{base_name}x{target_name}:deg<={system.max_degree}"
            )
    report(
        2,
        ok,
        "series terminate by degree nu and obstructions stay at degree "
        f"<= nu+1 on all 12 runs ({', '.join(details)})",
    )


# -- criterion 3: nilshadow structure constants ------------------------------------


def test_criterion_3_nilshadow():
    shadow, _ = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    ok = shadow.labels == ("T", "X", "Y", "Z")
    ok = ok and shadow.nonzero_brackets() == [(1, 2, {3: ONE})]
    split, _ = nilshadow(solvable_input(PARSED_FIXTURES["sol3"]))
    ok = ok and split.nonzero_brackets() == []
    report(
        3,
        ok,
        "diagonal solvable extension collapses to the sole bracket "
        "[X, Y] = Z on the original basis; the split diagonal action "
        "gives the direct-sum (abelian) bracket",
    )


# -- criterion 4: splitting machinery ------------------------------------------------


def test_criterion_4_hodge_machinery():
    ok = True
    for name, algebra in UNIMODULAR.items():
        dga = Dga(algebra)
        dec = split_complex(dga)
        for p in range(len(dec.splits)):
            split = dec.splits[p]
            ok = ok and (
                len(split.harmonic) + len(split.exact) + len(split.complement)
                == dga.dim_at(p)
            )
        d = dga.d
        for p in range(algebra.dim):
            dim_p, dim_q = dga.dim_at(p), dga.dim_at(p + 1)
            dstar = conj_transpose(d[p], dim_p)
            for a_idx in range(dim_p):
                alpha = [ONE if i == a_idx else ZERO for i in range(dim_p)]
                d_alpha = apply_d(dga, p, alpha)
                for b_idx in range(dim_q):
                    beta = [ONE if i == b_idx else ZERO for i in range(dim_q)]
                    lhs = hermitian(d_alpha, beta)
                    rhs = hermitian(alpha, mat_vec(dstar, beta))
                    ok = ok and lhs == rhs
        betti = dec.betti()
        ok = ok and betti == betti[::-1]  # duality on unimodular inputs
    ok = ok and split_complex(Dga(FIXTURE_ALGEBRAS["h3"])).betti() == [1, 2, 2, 1]
    report(
        4,
        ok,
        "adjointness <d a, b> = <a, d* b> on every basis pair, three-way "
        "dimensions fill each degree, h(3) betti = (1,2,2,1), duality "
        "b_p = b_{n-p} on all unimodular fixtures",
    )


# -- criterion 5: series identities --------------------------------------------------


def test_criterion_5_series_identities():
    ok = True
    runs = [
        ("abelian3", FIXTURE_ALGEBRAS["abelian3"], fixtures.sl2()),
        ("h3", FIXTURE_ALGEBRAS["h3"], fixtures.sl2()),
        ("h5", FIXTURE_ALGEBRAS["h5"], fixtures.gl(2)),
        ("filiform4", FIXTURE_ALGEBRAS["filiform4"], fixtures.sl2()),
        ("q_plus_h3", FIXTURE_ALGEBRAS["q_plus_h3"], fixtures.sl2()),
    ]
    for name, base, target in runs:
        dec, _ = _graded_metric(base)
        series = kuranishi_series(dec, TensorDgla(dec.dga, target))
        ok = ok and series.terminated
        ok = ok and gauge_identity_check(series) is None

    # negative control: dropping the quadratic slice must fail the check
    dec, _ = _graded_metric(FIXTURE_ALGEBRAS["h3"])
    series = kuranishi_series(dec, TensorDgla(dec.dga, fixtures.sl2()))
    corrupted = replaced(
        series,
        slices={r: s for r, s in series.slices.items() if r != 2},
        terminated=True,
        last_nonzero=1,
    )
    ok = ok and gauge_identity_check(corrupted) is not None
    report(
        5,
        ok,
        "delta(phi) = 0 and phi + (1/2) delta[phi, phi] = phi_1 hold as "
        "exact polynomial identities on every terminated run; dropping "
        "phi_2 is caught",
    )


# -- criterion 6: degree-2 cocycle weights ---------------------------------------------


def test_criterion_6_cocycle_weight_bound():
    ok = True
    for name, algebra in GRADED_NILPOTENT.items():
        dec, _ = _graded_metric(algebra)
        ok = ok and kernel_containment_check(dec) is None
    report(
        6,
        ok,
        "degree-2 cocycles of every graded nilpotent fixture live in "
        "weight <= nu + 1",
    )


# -- criterion 7: linear embedding ------------------------------------------------------


def test_criterion_7_linear_embedding():
    shadow, _ = nilshadow(solvable_input(PARSED_FIXTURES["solv_heisenberg"]))
    dga = Dga(shadow)
    sub = subdga_from_characters(dga, PARSED_FIXTURES["solv_heisenberg"].characters)
    compared, witness = embedding_check(sub, dga, fixtures.sl2())
    report(
        7,
        witness is None,
        "flatness residuals agree under the inclusion of the character "
        f"sub-DGA into the full nilshadow complex at all {compared} points "
        "e_k and e_k + e_l of its degree-one basis, hence at every point",
    )


# -- criterion 8: duality-type gate ------------------------------------------------------


def test_criterion_8_pd_gate():
    ok = True
    for name, algebra in UNIMODULAR.items():
        ok = ok and algebra.is_unimodular()
        ok = ok and pd_type_check(Dga(algebra)) is None
    bad = non_unimodular2()
    ok = ok and not bad.is_unimodular()
    ok = ok and pd_type_check(Dga(bad)) is not None
    # character selections with zero total exponent sum are closed under
    # complements and keep duality type
    dga = Dga(FIXTURE_ALGEBRAS["q_plus_h3"])
    chars = PARSED_FIXTURES["solv_heisenberg"].characters
    total = [sum(v[c] for v in chars.exponents) for c in range(chars.rank)]
    ok = ok and all(t == 0 for t in total)
    sub = subdga_from_characters(dga, chars)
    ok = ok and pd_type_check(sub) is None
    report(
        8,
        ok,
        "full complexes have duality type exactly for unimodular algebras "
        "(2-dim counterexample fails) and zero-total-exponent character "
        "selections keep it",
    )


# -- criterion 9: Jordan-Chevalley at scale -----------------------------------------------


def _random_block_matrix(rng) -> list[list[Scalar]]:
    n = rng.randint(2, 6)
    m = zeros(n, n)
    filled = 0
    while filled < n:
        size = rng.randint(1, min(3, n - filled))
        re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        im = Fraction(rng.randint(-1, 1)) if rng.random() < 0.25 else Fraction(0)
        eigenvalue = Scalar(re, im)
        for r in range(size):
            m[filled + r][filled + r] = eigenvalue
            if r + 1 < size and rng.random() < 0.8:
                m[filled + r][filled + r + 1] = ONE
        filled += size
    p = identity(n)
    p_inv = identity(n)
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
    return dense_mat_mul(dense_mat_mul(p, m), p_inv)


def test_criterion_9_jordan_chevalley_200_matrices():
    rng = random.Random(818281828)
    ok = True
    for _ in range(200):
        m = _random_block_matrix(rng)
        n = len(m)
        semi, nil = jordan_chevalley_on_dense(m)
        ok = ok and mat_add(semi, nil) == m
        ok = ok and dense_mat_mul(semi, nil) == dense_mat_mul(nil, semi)
        power = identity(n)
        for _ in range(n):
            power = dense_mat_mul(nil, power)
        ok = ok and is_zero_matrix(power)
        minpoly = minimal_polynomial(semi)
        ok = ok and poly_xgcd(minpoly, poly_derivative(minpoly))[0] == [ONE]
        if not ok:
            break
    report(
        9,
        ok,
        "200 random conjugated block matrices of dimension <= 6 split "
        "exactly: S + N = M, SN = NS, N nilpotent, minimal polynomial of "
        "S squarefree",
    )
