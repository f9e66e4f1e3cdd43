"""Built-in algebras used by tests, scripts and the CLI presets.

Structure constants are given over Q; every fixture passes the Jacobi check
at construction.
"""

from __future__ import annotations

from .cedga import CharacterData
from .liealg import LieAlgebra, Subspace
from .nilshadow import SolvableInput
from .scalars import ONE, Scalar, scalar


def _alg(labels, brackets) -> LieAlgebra:
    table = {}
    for (i, j), comps in brackets.items():
        table[(i, j)] = {k: scalar(c) for k, c in comps.items()}
    return LieAlgebra(labels, table)


def abelian(n: int = 3) -> LieAlgebra:
    """The abelian algebra Q^n (one-step nilpotent)."""
    return _alg([f"e{i + 1}" for i in range(n)], {})


def heisenberg3() -> LieAlgebra:
    """h(3): [X, Y] = Z, two-step nilpotent."""
    return _alg(["X", "Y", "Z"], {(0, 1): {2: 1}})


def heisenberg5() -> LieAlgebra:
    """h(5): [X1, Y1] = [X2, Y2] = Z, two-step nilpotent."""
    return _alg(
        ["X1", "Y1", "X2", "Y2", "Z"],
        {(0, 1): {4: 1}, (2, 3): {4: 1}},
    )


def filiform4() -> LieAlgebra:
    """Four-dimensional filiform: [e1, e2] = e3, [e1, e3] = e4 (three-step)."""
    return _alg(["e1", "e2", "e3", "e4"], {(0, 1): {2: 1}, (0, 2): {3: 1}})


def q_plus_heisenberg3() -> LieAlgebra:
    """Q + h(3): a central line added to the Heisenberg algebra."""
    return _alg(["T", "X", "Y", "Z"], {(1, 2): {3: 1}})


def solvable_heisenberg() -> LieAlgebra:
    """Solvable 4-dim algebra: diag(1, -1, 0) derivation acting on h(3).

    [T, X] = X, [T, Y] = -Y, [X, Y] = Z.  Unimodular, not nilpotent.
    """
    return _alg(
        ["T", "X", "Y", "Z"],
        {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {3: 1}},
    )


def solvable_heisenberg_input() -> SolvableInput:
    g = solvable_heisenberg()
    return SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(
            4, [g.basis_vector(1), g.basis_vector(2), g.basis_vector(3)]
        ),
        complement=Subspace.from_vectors(4, [g.basis_vector(0)]),
    )


def solvable_heisenberg_characters() -> CharacterData:
    """Exponent data of the diagonal action: weights (0, 1, -1, 0)."""
    return CharacterData(rank=1, exponents=((0,), (1,), (-1,), (0,)))


def sol3() -> LieAlgebra:
    """sol(3): [T, X] = X, [T, Y] = -Y.  Solvable, unimodular, abelian nilradical."""
    return _alg(["T", "X", "Y"], {(0, 1): {1: 1}, (0, 2): {2: -1}})


def sol3_input() -> SolvableInput:
    g = sol3()
    return SolvableInput(
        algebra=g,
        nilradical=Subspace.from_vectors(3, [g.basis_vector(1), g.basis_vector(2)]),
        complement=Subspace.from_vectors(3, [g.basis_vector(0)]),
    )


def sl2() -> LieAlgebra:
    """sl(2): [H, E] = 2E, [H, F] = -2F, [E, F] = H."""
    return _alg(
        ["H", "E", "F"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    )


def gl(n: int) -> LieAlgebra:
    """gl(n) on the elementary-matrix basis Eij; from n = 10 on the labels
    read Ei_j, since E111 would name both E1_11 and E11_1."""
    sep = "_" if n >= 10 else ""
    labels = [f"E{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]

    def idx(i: int, j: int) -> int:
        return i * n + j

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a, b = idx(i, j), idx(k, l)
                    if a >= b:
                        continue
                    comps: dict[int, Scalar] = {}
                    if j == k:
                        comps[idx(i, l)] = comps.get(idx(i, l), scalar(0)) + ONE
                    if l == i:
                        comps[idx(k, j)] = comps.get(idx(k, j), scalar(0)) - ONE
                    comps = {t: c for t, c in comps.items() if c}
                    if comps:
                        brackets[(a, b)] = comps
    return LieAlgebra(labels, brackets)

