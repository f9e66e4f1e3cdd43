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
trailing zeros; the zero polynomial is the empty list.  Matrices are
square and held as sparse columns.
"""

from __future__ import annotations

import math

from . import linalg
from .errors import InternalCheckError
from .linalg import SparseColumns
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


def _identity(n: int) -> SparseColumns:
    return [[(j, ONE)] for j in range(n)]


def poly_eval_matrix(a: Poly, m: SparseColumns) -> SparseColumns:
    identity = _identity(len(m))
    acc: SparseColumns = [[] for _ in m]
    for c in reversed(a):
        acc = linalg.combine((ONE, c), (linalg.mat_mul(acc, m), identity))
    return acc


def char_poly(m: SparseColumns) -> Poly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recurrence."""
    n = len(m)
    identity = _identity(n)
    coeffs = [ZERO] * n + [ONE]  # ascending; coeffs[n] = 1
    mk = m
    for k in range(1, n + 1):
        trace = sum((x for j, column in enumerate(mk) for i, x in column if i == j), ZERO)
        coeffs[n - k] = -trace / scalar(k)
        if k == n:
            break
        mk = linalg.mat_mul(m, linalg.combine((ONE, coeffs[n - k]), (mk, identity)))
    return coeffs


def squarefree_part(a: Poly) -> Poly:
    """a / gcd(a, a'), monic: same roots, all simple."""
    g = poly_xgcd(a, poly_derivative(a))[0]
    q, r = poly_divmod(a, g)
    assert not r, "gcd must divide"
    return poly_monic(q)


def jordan_chevalley(m: SparseColumns) -> tuple[SparseColumns, SparseColumns]:
    """Split m = S + N into commuting semisimple and nilpotent parts."""
    n = len(m)
    if n == 0:
        return [], []
    p = char_poly(m)
    q = squarefree_part(p)
    g, _, v = poly_xgcd(q, poly_derivative(q))
    if g != [ONE]:
        raise InternalCheckError("squarefree part is not coprime to its derivative")
    s = m
    # The Newton steps, and one more evaluation of q at the last iterate.
    for _ in range(math.ceil(math.log2(n)) + 2 if n > 1 else 2):
        qs = poly_eval_matrix(q, s)
        if not any(qs):
            break
        s = linalg.combine((ONE, -ONE), (s, linalg.mat_mul(qs, poly_eval_matrix(v, s))))
    else:
        raise InternalCheckError("Newton iteration did not converge")
    nil = linalg.combine((ONE, -ONE), (m, s))
    _verify_decomposition(s, nil)
    return s, nil


def _verify_decomposition(s: SparseColumns, nil: SparseColumns) -> None:
    """S and N commute and N is nilpotent; S + N = M holds by N's definition."""
    if linalg.mat_mul(s, nil) != linalg.mat_mul(nil, s):
        raise InternalCheckError("S and N do not commute")
    power = _identity(len(nil))
    for _ in nil:
        power = linalg.mat_mul(nil, power)
    if any(power):
        raise InternalCheckError("N is not nilpotent")
