"""Effective Jordan-Chevalley decomposition over Q(i).

``jordan_chevalley(M)`` returns the unique pair (S, N) with M = S + N,
S semisimple, N nilpotent and SN = NS.  The algorithm is Newton iteration
on the squarefree part q of the characteristic polynomial: with
u*q + v*q' = 1 from the extended Euclidean algorithm, the map
A -> A - q(A) v(A) squares the nilpotency order of q(A) at each step, so
ceil(log2(dim)) + 1 iterations always suffice.  S is a polynomial in M by
construction, and semisimplicity is certified by q being squarefree
(gcd(q, q') = 1) together with q(S) = 0.

Univariate polynomials here are lists of Scalars, ascending powers, with no
trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

import math

from . import linalg
from .errors import InternalCheckError
from .linalg import Matrix
from .scalars import ONE, Scalar, ZERO, scalar

Poly = list[Scalar]


def poly_normalize(coeffs: list[Scalar]) -> Poly:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_normalize(
        [
            (a[k] if k < len(a) else ZERO) + (b[k] if k < len(b) else ZERO)
            for k in range(n)
        ]
    )


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, [-c for c in b])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return poly_normalize(out)


def poly_scale(c: Scalar, a: Poly) -> Poly:
    return poly_normalize([c * x for x in a])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [ZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b) and poly_normalize(rem):
        rem = poly_normalize(rem)
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] / lead
        quo[shift] = factor
        for k, c in enumerate(b):
            rem[shift + k] = rem[shift + k] - factor * c
        rem.pop()
    return poly_normalize(quo), poly_normalize(rem)


def poly_monic(a: Poly) -> Poly:
    if not a:
        return []
    inv = ONE / a[-1]
    return [c * inv for c in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    x, y = poly_normalize(list(a)), poly_normalize(list(b))
    while y:
        x, y = y, poly_divmod(x, y)[1]
    return poly_monic(x)


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g and g monic."""
    r0, r1 = poly_normalize(list(a)), poly_normalize(list(b))
    u0, u1 = [ONE], []
    v0, v1 = [], [ONE]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    if not r0:
        return [], u0, v0
    inv = ONE / r0[-1]
    return poly_scale(inv, r0), poly_scale(inv, u0), poly_scale(inv, v0)


def poly_derivative(a: Poly) -> Poly:
    return poly_normalize([scalar(k) * a[k] for k in range(1, len(a))])


def poly_eval_matrix(a: Poly, m: Matrix) -> Matrix:
    n = len(m)
    acc = linalg.zeros(n, n)
    for c in reversed(a):
        acc = linalg.mat_mul(acc, m)
        for d in range(n):
            acc[d][d] = acc[d][d] + c
    return acc


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recurrence."""
    n = len(m)
    coeffs = [ZERO] * n + [ONE]  # ascending; coeffs[n] = 1
    mk = linalg.copy_matrix(m)
    for k in range(1, n + 1):
        trace = ZERO
        for d in range(n):
            trace = trace + mk[d][d]
        coeffs[n - k] = -trace / scalar(k)
        if k == n:
            break
        shifted = linalg.copy_matrix(mk)
        for d in range(n):
            shifted[d][d] = shifted[d][d] + coeffs[n - k]
        mk = linalg.mat_mul(m, shifted)
    return coeffs


def squarefree_part(a: Poly) -> Poly:
    """a / gcd(a, a'), monic: same roots, all simple."""
    g = poly_gcd(a, poly_derivative(a))
    q, r = poly_divmod(a, g)
    assert not r, "gcd must divide"
    return poly_monic(q)


def jordan_chevalley(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split m = S + N into commuting semisimple and nilpotent parts."""
    n = len(m)
    if n == 0:
        return [], []
    p = char_poly(m)
    q = squarefree_part(p)
    g, _, v = poly_xgcd(q, poly_derivative(q))
    if g != [ONE]:
        raise InternalCheckError("squarefree part is not coprime to its derivative")
    a = linalg.copy_matrix(m)
    for _ in range(math.ceil(math.log2(n)) + 1 if n > 1 else 1):
        qa = poly_eval_matrix(q, a)
        if linalg.is_zero_matrix(qa):
            break
        a = linalg.mat_sub(a, linalg.mat_mul(qa, poly_eval_matrix(v, a)))
    s = a
    if not linalg.is_zero_matrix(poly_eval_matrix(q, s)):
        raise InternalCheckError("Newton iteration did not converge")
    nil = linalg.mat_sub(m, s)
    _verify_decomposition(m, s, nil, q)
    return s, nil


def _verify_decomposition(m: Matrix, s: Matrix, nil: Matrix, q: Poly) -> None:
    n = len(m)
    if not linalg.mat_eq(linalg.mat_add(s, nil), m):
        raise InternalCheckError("S + N != M")
    if not linalg.mat_eq(linalg.mat_mul(s, nil), linalg.mat_mul(nil, s)):
        raise InternalCheckError("S and N do not commute")
    power = linalg.identity(n)
    for _ in range(n):
        power = linalg.mat_mul(nil, power)
    if not linalg.is_zero_matrix(power):
        raise InternalCheckError("N is not nilpotent")
