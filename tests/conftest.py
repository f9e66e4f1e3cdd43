"""Shared test helpers: independent oracles kept deliberately separate from
the library code paths they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from germkit import fixtures
from germkit.liealg import LieAlgebra
from germkit.scalars import Scalar, ZERO, scalar


# -- independent rank computation (plain Fractions, no germkit.linalg) ----------


def frac_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def to_fraction(x: Scalar) -> Fraction:
    assert x.is_rational(), "oracle expects rational data"
    return x.re


# -- independent Chevalley-Eilenberg differential -------------------------------
#
# Multilinear formula: for w a p-cochain and K = (k0 < ... < kp),
#   (d w)(X_{k0}, .., X_{kp})
#       = sum_{s<t} (-1)^{s+t} w([X_{ks}, X_{kt}], X_{k0}, .., ^s, .., ^t, ..)
# where the hat marks omitted arguments.  On degree one this evaluates to
# -w([X, Y]) for the stored constants, matching the engine's convention.


def _det(matrix: list[list[Scalar]]) -> Scalar:
    n = len(matrix)
    if n == 0:
        return scalar(1)
    if n == 1:
        return matrix[0][0]
    total = ZERO
    sign = 1
    for c in range(n):
        if matrix[0][c]:
            minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
            term = matrix[0][c] * _det(minor)
            total = total + (term if sign == 1 else -term)
        sign = -sign
    return total


def _eval_monomial(mono: tuple[int, ...], args: list[list[Scalar]]) -> Scalar:
    # x_mono(v_1, .., v_p) = det with rows indexed by mono, columns by args
    return _det([[v[i] for v in args] for i in mono])


def oracle_d_matrix(algebra: LieAlgebra, p: int) -> list[list[Scalar]]:
    """Degree-p differential of the full complex by the multilinear formula."""
    n = algebra.dim
    source = list(itertools.combinations(range(n), p))
    target = list(itertools.combinations(range(n), p + 1))
    rows = []
    for big in target:
        # (whether the sign is +, arguments) of each term with a nonzero bracket
        terms = []
        for s in range(p + 1):
            for t in range(s + 1, p + 1):
                bracket = algebra.bracket(
                    algebra.basis_vector(big[s]), algebra.basis_vector(big[t])
                )
                if any(bracket):
                    rest = [
                        algebra.basis_vector(big[u])
                        for u in range(p + 1)
                        if u != s and u != t
                    ]
                    terms.append(((s + t) % 2 == 0, [bracket] + rest))
        row = []
        for mono in source:
            total = ZERO
            for even, args in terms:
                value = _eval_monomial(mono, args)
                if value:
                    total = total + (value if even else -value)
            row.append(total)
        rows.append(row)
    return rows


def oracle_betti(
    algebra: LieAlgebra, matrices: list[list[list[Scalar]]] | None = None
) -> list[int]:
    """Cohomology dimensions from the oracle differentials and frac_rank.

    ``matrices`` may pass oracle_d_matrix of every degree already computed.
    """
    n = algebra.dim
    dims = [len(list(itertools.combinations(range(n), p))) for p in range(n + 1)]
    ranks = []
    for p in range(n + 1):
        if matrices is not None:
            matrix = matrices[p]
        else:
            matrix = oracle_d_matrix(algebra, p) if p < n else []
        if matrix and dims[p]:
            ranks.append(frac_rank([[to_fraction(x) for x in row] for row in matrix]))
        else:
            ranks.append(0)
    betti = []
    for p in range(n + 1):
        incoming = ranks[p - 1] if p >= 1 else 0
        betti.append(dims[p] - ranks[p] - incoming)
    return betti


# -- fixture registry ------------------------------------------------------------


GRADED_NILPOTENT = {
    "abelian3": fixtures.abelian(3),
    "h3": fixtures.heisenberg3(),
    "h5": fixtures.heisenberg5(),
    "filiform4": fixtures.filiform4(),
    "q_plus_h3": fixtures.q_plus_heisenberg3(),
}

UNIMODULAR = {
    **GRADED_NILPOTENT,
    "solv_heisenberg": fixtures.solvable_heisenberg(),
    "sol3": fixtures.sol3(),
    "sl2": fixtures.sl2(),
}


def non_unimodular2() -> LieAlgebra:
    return LieAlgebra(("T", "X"), {(0, 1): {1: scalar(1)}})


def heisenberg(k: int) -> LieAlgebra:
    """h(2k+1): [x_{2i}, x_{2i+1}] = z for i < k, z the last basis vector."""
    labels = [f"x{i}" for i in range(2 * k)] + ["z"]
    return LieAlgebra(
        labels, {(2 * i, 2 * i + 1): {2 * k: scalar(1)} for i in range(k)}
    )


def filiform(n: int) -> LieAlgebra:
    """L_n: [e1, e_i] = e_{i+1} for i = 2..n-1."""
    labels = [f"e{i}" for i in range(1, n + 1)]
    return LieAlgebra(labels, {(0, i): {i + 1: scalar(1)} for i in range(1, n - 1)})


GENERATED = {
    **{f"h{2 * k + 1}": heisenberg(k) for k in range(1, 4)},
    **{f"L{n}": filiform(n) for n in range(3, 8)},
}


def germbench_inputs():
    """germbench/inputs.py, imported from its file (it is not a package)."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "germbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("germbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def algebra_fixture_files() -> dict[str, LieAlgebra]:
    """The algebra files under fixtures/, by file stem."""
    import pathlib

    from germkit.formats import load_algebra_file

    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    return {
        path.stem: load_algebra_file(str(path)).algebra
        for path in sorted(root.glob("*.json"))
        if path.stem != "diag_weight_characters"
    }


FIXTURE_ALGEBRAS = algebra_fixture_files()


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    import pathlib

    return pathlib.Path(__file__).resolve().parents[1] / "fixtures"
