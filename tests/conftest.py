"""Shared test helpers: independent oracles kept deliberately separate from
the library code paths they check, and the references the tests compare
library code against.  ``src/germkit`` holds only what the program runs;
these live here because only the tests call them:

- ``frac_rank``, ``oracle_d_matrix`` and ``oracle_betti``: ranks and
  differentials from plain Fractions and the multilinear formula;
- ``wedge_vectors``, ``apply_d`` and ``Cochain``: dense cochains of a
  ``Dga``, the harness of the Leibniz and graded-commutativity tests on
  ``Dga.columns``;
- ``tensor_bracket``: the bracket of ``C* (x) a`` in any pair of degrees,
  the reference of the DGLA-axiom tests;
- ``RingPoly``: ``MultiPoly`` with ring arithmetic and checked terms, in
  which the hand-expanded obstruction oracles are written, and
  ``homogeneous_components``, a polynomial split by degree;
- ``unchecked_algebra``: a ``LieAlgebra`` built without the Jacobi check,
  for the failure paths of the complex and the Jacobi reference;
- ``derived_subalgebra``: [g, g] from one bracket span, the reference of
  the second term of ``liealg.derived_series``;
- ``I``: the imaginary unit;
- the fixture registry: ``PARSED_FIXTURES``, each file under ``fixtures/``
  parsed once (the only definition of the fixture algebras, with their
  nilradical, complement and characters), and its views
  ``FIXTURE_ALGEBRAS``, ``GRADED_NILPOTENT``, ``UNIMODULAR`` and
  ``BUILTIN_ALGEBRAS`` (with ``abelian(n)``, for the abelian algebras
  without a file); ``solvable_input``, a file's ``SolvableInput``; and
  ``homogeneous_degrees``, the degrees an ``ObstructionSystem`` records,
  counted from its polynomials' terms;
- ``minimal_polynomial``: the squarefree check on Jordan-Chevalley parts;
- ``hermitian``: the form that makes the monomial basis orthonormal, for
  the adjointness tests of the metric splitting;
- ``jacobi_counterexample_dense``: the Jacobi check on dense vectors, the
  reference of the sparse ``LieAlgebra.jacobi_counterexample``;
- ``kernel_containment_dense``: the degree-2 cocycle-weight check on a
  dense kernel of d_2, the reference of ``kernel_containment_check``,
  which reads the cocycles off the split;
- ``inferred_grading``: the grading the CLI infers, for graded splits;
- ``square_slice`` and ``gauge_identity_check_reference``: [phi, phi]_r as
  one ``bracket_slices`` call over the unordered pairs, and the gauge check
  on Scalar slices, the references of the series' integer bracket sums and
  of the integer ``gauge_identity_check``;
- ``germ_to_dict_reference``, ``polynomial_records`` and
  ``show_reference``: the germ file as nested dicts, one per phi entry and
  per obstruction term, with each polynomial's records and printed form
  made apart; the reference of ``formats.germ_to_dict``'s text fragments
  and of ``multipoly.printed``, with the degrees counted from the terms;
- ``linear_embedding_check_reference``: the embedding check as two
  ``mc_residual`` calls at each of the N(N+1)/2 points e_k and e_k + e_l,
  the reference of the polynomial identity in ``linear_embedding_check``,
  and ``embedding_check``, that check on tensor DGLAs built for the call;
- ``is_unimodular_dense``: the traces of dense ad matrices, the reference
  of the sparse ``LieAlgebra.is_unimodular``;
- the dense matrix kit, the references of the sparse rows and columns
  that ``linalg`` holds: ``zeros``, ``identity``, ``mat_add``, ``mat_sub``,
  ``dense_mat_mul``, ``mat_vec``, ``is_zero_matrix`` and ``unit``, with
  ``sparse``, ``dense``, ``sparse_columns`` and ``dense_columns`` between
  the two forms;
- ``dense_bracket`` and ``dense_ad`` (the bracket from the i < j table on
  dense vectors), ``series_dense`` (the lower central and derived series),
  ``infer_grading_dense`` (one dense rref per basis vector chosen),
  ``jordan_chevalley_dense`` and ``ad_s_matrices_dense``: the references of
  the sparse algebra side, ``jordan_chevalley_on_dense`` the library's
  decomposition of a dense matrix, and ``h5_i_scaled`` a Q(i) input;
- ``dense_rref``, ``dense_kernel_basis``, ``dense_solve_many``,
  ``dense_inverse``, ``dense_in_row_space`` and ``transpose``: Gauss-Jordan
  elimination on dense rows, pivot column by pivot column, the references
  of the sparse ``linalg.echelon`` and its consumers; ``vec_add_into``,
  the reference accumulation of sparse vectors;
- ``split_complex_dense``: the splitting from dense d, d*, Laplacians and
  dim x dim projections on those dense references, the reference of
  ``decomp.split_complex``, which reads only the sparse columns of d and
  works on sparse rows; with it ``extend_basis_reference`` (the pivot
  split's harmonic choice by one rref per row chosen, the reference of
  ``decomp._extend_basis``), ``conj_transpose``, ``image_basis``,
  ``dstar_matrices``, ``dense_laplacian`` and ``dense_rows`` (sparse rows
  as dense rows).
"""

from __future__ import annotations

import itertools
import math
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import pytest

from germkit.cedga import Dga, Monomial, wedge_monomials
from germkit.cli import obtain_grading
from germkit.decomp import _vector_weights
from germkit.errors import InternalCheckError, PreconditionError
from germkit.formats import ParsedAlgebra, load_algebra_file
from germkit.jordan import (
    Poly,
    jordan_chevalley,
    poly_derivative,
    poly_normalize,
    poly_xgcd,
    squarefree_part,
)
from germkit.kuranishi import (
    HALF,
    KuranishiSeries,
    Slice,
    SparseVec,
    TensorDgla,
    bracket_slices,
    linear_embedding_check,
    mc_residual,
)
from germkit.liealg import (
    Grading,
    LieAlgebra,
    Subspace,
    basis_aligned_weights,
    lower_central_series,
    span_of_brackets,
    verify_natural_grading,
)
from germkit.nilshadow import SolvableInput
from germkit.linalg import Row, SparseColumns
from germkit.multipoly import ExponentVector, MultiPoly
from germkit.scalars import ONE, Scalar, ZERO, scalar

I = Scalar(0, 1)


def grlex_key(exponents: ExponentVector) -> tuple[int, ExponentVector]:
    """The graded lexicographic order of exponent vectors, summed densely."""
    return (sum(exponents), exponents)


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


# -- the dense matrix kit, the reference of sparse rows and columns --------------

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[ZERO] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product a @ b of dense matrices; ``a`` has at least one row."""
    assert len(b) == len(a[0]), "shape mismatch in dense_mat_mul"
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in enumerate(row):
            if not x:
                continue
            for j, y in enumerate(b[k]):
                if y:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def sparse(row: Sequence[Scalar]) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def dense(row: Row, ncols: int) -> Vector:
    out = [ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def sparse_columns(m: Matrix) -> SparseColumns:
    """The sparse columns of a dense matrix with at least one row."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m[0]))]


def dense_columns(columns: SparseColumns, nrows: int) -> Matrix:
    """The dense matrix whose columns are the sparse ``columns``."""
    out = zeros(nrows, len(columns))
    for j, column in enumerate(columns):
        for i, x in column:
            out[i][j] = x
    return out


def unit(n: int, i: int) -> Vector:
    return [ONE if j == i else ZERO for j in range(n)]


# -- dense Gauss-Jordan references of the sparse elimination ---------------------


def transpose(a: Matrix, ncols: int) -> Matrix:
    return [[row[j] for row in a] for j in range(ncols)]


def dense_rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with zero rows dropped, by Gauss-Jordan
    elimination on the first nonzero entry of each column in turn."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        support = [(j, y) for j, y in enumerate(m[r]) if y]
        for i in range(len(m)):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int) -> Matrix:
    """Canonical rref basis of the right null space {x : A x = 0}."""
    reduced, pivots = dense_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            if reduced[r][fc]:
                v[pc] = -reduced[r][fc]
        basis.append(v)
    return dense_rref(basis, ncols)[0]


def dense_solve_many(
    a: Matrix, bs: Sequence[Sequence[Scalar]], ncols: int
) -> list[Vector] | None:
    """One solution of A x = b per right-hand side, free coordinates set to
    zero, from one elimination; None if any system is inconsistent."""
    nrhs = len(bs)
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    reduced, pivots = dense_rref(aug, ncols + nrhs) if aug else ([], [])
    if any(pc >= ncols for pc in pivots):
        return None
    solutions = []
    for k in range(nrhs):
        x = [ZERO] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][ncols + k]
        solutions.append(x)
    return solutions


def dense_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = dense_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def dense_in_row_space(rref_rows: Matrix, pivots: list[int], v: Sequence[Scalar]) -> bool:
    """Membership test against a subspace already in rref form."""
    residual = list(v)
    for row, pc in zip(rref_rows, pivots):
        f = residual[pc]
        if f:
            for j, y in enumerate(row):
                if y:
                    residual[j] = residual[j] - f * y
    return all(not x for x in residual)


def vec_add_into(dst: SparseVec, src: SparseVec, factor: Scalar = ONE) -> None:
    """dst += factor * src, dropping the entries that cancel."""
    for idx, c in src.items():
        total = dst.get(idx, ZERO) + factor * c
        if total:
            dst[idx] = total
        else:
            dst.pop(idx, None)


def dense_rows(rows: Sequence[dict[int, Scalar]], ncols: int) -> Matrix:
    """Sparse rows as dense rows of length ``ncols``."""
    return [dense(row, ncols) for row in rows]


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
                bracket = dense_bracket(algebra, unit(n, big[s]), unit(n, big[t]))
                if any(bracket):
                    rest = [unit(n, big[u]) for u in range(p + 1) if u != s and u != t]
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


# -- dense cochains of a Dga -----------------------------------------------------


def wedge_vectors(dga: Dga, p: int, u: Vector, q: int, v: Vector) -> Vector:
    """Wedge of coefficient vectors; result in degree p+q of ``dga``."""
    out = [ZERO] * dga.dim_at(p + q)
    for iu, cu in enumerate(u):
        if not cu:
            continue
        left = dga.monomials[p][iu]
        for iv, cv in enumerate(v):
            if not cv:
                continue
            merged = wedge_monomials(left, dga.monomials[q][iv])
            if merged is None:
                continue
            sign, target = merged
            spot = dga.position.get(target)
            if spot is None or spot[0] != p + q:
                raise PreconditionError(
                    f"wedge leaves the span: {dga.monomial_label(target)} "
                    "is not in the complex"
                )
            out[spot[1]] = out[spot[1]] + scalar(sign) * cu * cv
    return out


def apply_d(dga: Dga, p: int, u: Vector) -> Vector:
    out = [ZERO] * dga.dim_at(p + 1)
    for x, column in zip(u, dga.columns[p]):
        if x:
            for r, value in column:
                out[r] = out[r] + x * value
    return out


@dataclass(frozen=True)
class Cochain:
    """A homogeneous element of a Dga, stored as dense coefficients."""

    dga: Dga
    degree: int
    coeffs: tuple[Scalar, ...]

    @classmethod
    def from_monomial(cls, dga: Dga, mono: Monomial) -> "Cochain":
        p, idx = dga.position[mono]
        coeffs = [ZERO] * dga.dim_at(p)
        coeffs[idx] = ONE
        return cls(dga, p, tuple(coeffs))

    def wedge(self, other: "Cochain") -> "Cochain":
        assert self.dga is other.dga, "operands live in different complexes"
        out = wedge_vectors(
            self.dga, self.degree, list(self.coeffs), other.degree, list(other.coeffs)
        )
        return Cochain(self.dga, self.degree + other.degree, tuple(out))

    def d(self) -> "Cochain":
        out = apply_d(self.dga, self.degree, list(self.coeffs))
        return Cochain(self.dga, self.degree + 1, tuple(out))

    def __add__(self, other: "Cochain") -> "Cochain":
        assert self.dga is other.dga and self.degree == other.degree
        return Cochain(
            self.dga,
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, c: Scalar) -> "Cochain":
        return Cochain(self.dga, self.degree, tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return self.dga.cochain_label(self.degree, sparse(self.coeffs))


def hermitian(u: Vector, v: Vector) -> Scalar:
    """<u, v> = sum u_i conj(v_i); linear on the left."""
    acc = ZERO
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y.conjugate()
    return acc


# -- the tensor DGLA bracket in any degrees ----------------------------------------


def tensor_bracket(
    tdgla: TensorDgla, p: int, u: SparseVec, q: int, v: SparseVec
) -> SparseVec:
    """[u, v] for arbitrary degrees, term by term; degree one takes the
    library's ``bracket11``."""
    if p == 1 and q == 1:
        return tdgla.bracket11(u, v)
    ta = tdgla.target.dim
    out: SparseVec = {}
    for iu, cu in u.items():
        mu, au = divmod(iu, ta)
        left = tdgla.dga.monomials[p][mu]
        for iv, cv in v.items():
            mv, av = divmod(iv, ta)
            right = tdgla.dga.monomials[q][mv]
            merged = wedge_monomials(left, right)
            if merged is None:
                continue
            sign, target = merged
            spot = tdgla.dga.position.get(target)
            if spot is None or spot[0] != p + q:
                raise PreconditionError(
                    "bracket leaves the complex; selection not closed"
                )
            coeff = scalar(sign) * cu * cv
            base = spot[1] * ta
            for k, c in tdgla.target.bracket({au: ONE}, {av: ONE}).items():
                vec_add_into(out, {base + k: c}, coeff)
    return out


# -- polynomial ring arithmetic -------------------------------------------------------


class RingPoly(MultiPoly):
    """A MultiPoly with ring arithmetic, for writing polynomials by hand.

    Compares equal to a library MultiPoly with the same variables and terms.
    """

    __slots__ = ()

    def __init__(self, variables: Sequence[str], terms: dict[ExponentVector, Scalar]):
        """Checks each exponent vector and drops the zero coefficients, which
        ``MultiPoly`` trusts its callers to have done."""
        n = len(variables)
        clean: dict[ExponentVector, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        super().__init__(variables, clean)

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "RingPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "RingPoly":
        c = scalar(value)
        n = len(variables)
        return cls(variables, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "RingPoly":
        n = len(variables)
        exps = tuple(1 if k == index else 0 for k in range(n))
        return cls(variables, {exps: scalar(1)})

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def __iter__(self) -> Iterator[tuple[ExponentVector, Scalar]]:
        return iter(sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])))

    def _align(self, other) -> "tuple[RingPoly, RingPoly]":
        """Coerce the pair onto a shared variable tuple.

        Constants (including plain Scalars/ints) adapt to the other side;
        genuinely different variable tuples are an error.
        """
        if isinstance(other, MultiPoly):
            other = RingPoly(other.variables, other.terms)
        else:
            other = RingPoly.constant(self.variables, other)
        if self.variables == other.variables:
            return self, other
        if not self.variables or self.is_constant():
            return RingPoly.constant(other.variables, self.constant_term()), other
        if not other.variables or other.is_constant():
            return self, RingPoly.constant(self.variables, other.constant_term())
        raise ValueError(
            f"variable mismatch: {self.variables} vs {other.variables}"
        )

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def __add__(self, other) -> "RingPoly":
        a, b = self._align(other)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            s = out.get(exps, ZERO) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return RingPoly(a.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "RingPoly":
        return RingPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "RingPoly":
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other) -> "RingPoly":
        return (-self) + other

    def __mul__(self, other) -> "RingPoly":
        if isinstance(other, (Scalar, int)):
            c = scalar(other)
            if not c:
                return RingPoly.zero(self.variables)
            return RingPoly(
                self.variables, {e: k * c for e, k in self.terms.items()}
            )
        a, b = self._align(other)
        out: dict[ExponentVector, Scalar] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exps, ZERO) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        return RingPoly(a.variables, out)

    __rmul__ = __mul__


def homogeneous_components(poly: MultiPoly) -> list[tuple[int, MultiPoly]]:
    """Split into (degree, component) pairs, ascending; they sum to poly."""
    buckets: dict[int, dict[ExponentVector, Scalar]] = {}
    for exps, coeff in poly.terms.items():
        buckets.setdefault(sum(exps), {})[exps] = coeff
    return [
        (deg, MultiPoly(poly.variables, buckets[deg]))
        for deg in sorted(buckets)
    ]


# -- minimal polynomial of a matrix ---------------------------------------------------


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic minimal polynomial via the first linear dependence of powers."""
    n = len(m)
    powers = [identity(n)]
    for _ in range(n):
        powers.append(dense_mat_mul(m, powers[-1]))
    flat = [[p[i][j] for p in powers] for i in range(n) for j in range(n)]
    for k in range(1, n + 1):
        rows = [[row[j] for j in range(k)] for row in flat]
        rhs = [row[k] for row in flat]
        sols = dense_solve_many(rows, [rhs], k)
        if sols is not None:
            return poly_normalize([-c for c in sols[0]] + [ONE])
    raise InternalCheckError("no linear dependence among matrix powers")


# -- dense references of the algebra side ------------------------------------


def dense_bracket(algebra: LieAlgebra, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    """[u, v] on dense vectors from the i < j table ``nonzero_brackets``:
    the reference of the sparse ``LieAlgebra.bracket``."""
    table = {(i, j): comps for i, j, comps in algebra.nonzero_brackets()}
    out = [ZERO] * algebra.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if not a or not b or i == j:
                continue
            ab = a * b if i < j else -(a * b)
            for k, c in table.get((min(i, j), max(i, j)), {}).items():
                out[k] = out[k] + ab * c
    return out


def dense_ad(algebra: LieAlgebra, v: Sequence[Scalar]) -> Matrix:
    """The matrix of ad_v : w -> [v, w], column j = [v, e_j]."""
    n = algebra.dim
    return transpose([dense_bracket(algebra, v, unit(n, j)) for j in range(n)], n)


def series_dense(algebra: LieAlgebra, derived: bool) -> list[tuple[Matrix, list[int]]]:
    """The lower central series (or with ``derived`` the derived series) as
    dense rref rows and pivots, each term rebracketed from dense vectors,
    until a term is zero or repeats the dimension of the one before."""
    n = algebra.dim
    full = identity(n)
    chain = [(full, list(range(n)))]
    while True:
        left = chain[-1][0] if derived else full
        rows = [dense_bracket(algebra, u, v) for u in left for v in chain[-1][0]]
        nxt = dense_rref(rows, n)
        if len(nxt[0]) == len(chain[-1][0]):
            return chain
        chain.append(nxt)
        if not nxt[0]:
            return chain


def infer_grading_dense(algebra: LieAlgebra) -> list[Matrix] | None:
    """The basis-aligned layers of ``infer_grading_basis_aligned``, with one
    dense rref of the span per basis vector chosen."""
    n = algebra.dim
    chain = series_dense(algebra, derived=False)
    if chain[-1][0]:
        return None
    layers = []
    for (step, step_pivots), (span, pivots) in zip(chain, chain[1:]):
        chosen: list[Vector] = []
        for k in range(n):
            if len(span) == len(step):
                break
            e = unit(n, k)
            if not dense_in_row_space(step, step_pivots, e) or dense_in_row_space(
                span, pivots, e
            ):
                continue
            chosen.append(e)
            span, pivots = dense_rref(span + [e], n)
        if len(span) != len(step):
            return None
        layers.append(dense_rref(chosen, n)[0])
    return layers


def _poly_eval_dense(a: Poly, m: Matrix) -> Matrix:
    n = len(m)
    acc = zeros(n, n)
    for c in reversed(a):
        acc = dense_mat_mul(acc, m)
        for d in range(n):
            acc[d][d] = acc[d][d] + c
    return acc


def _char_poly_dense(m: Matrix) -> Poly:
    """Faddeev-LeVerrier on dense matrices."""
    n = len(m)
    coeffs = [ZERO] * n + [ONE]
    mk = [list(row) for row in m]
    for k in range(1, n + 1):
        trace = ZERO
        for d in range(n):
            trace = trace + mk[d][d]
        coeffs[n - k] = -trace / scalar(k)
        if k == n:
            break
        shifted = [list(row) for row in mk]
        for d in range(n):
            shifted[d][d] = shifted[d][d] + coeffs[n - k]
        mk = dense_mat_mul(m, shifted)
    return coeffs


def jordan_chevalley_dense(m: Matrix) -> tuple[Matrix, Matrix]:
    """(S, N) by the same Newton iteration on dense matrices: the reference
    of the sparse ``jordan_chevalley``."""
    n = len(m)
    q = squarefree_part(_char_poly_dense(m))
    _, _, v = poly_xgcd(q, poly_derivative(q))
    a = [list(row) for row in m]
    for _ in range(math.ceil(math.log2(n)) + 1 if n > 1 else 1):
        qa = _poly_eval_dense(q, a)
        if is_zero_matrix(qa):
            break
        a = mat_sub(a, dense_mat_mul(qa, _poly_eval_dense(v, a)))
    assert is_zero_matrix(_poly_eval_dense(q, a)), "Newton iteration did not converge"
    return a, mat_sub(m, a)


def jordan_chevalley_on_dense(m: Matrix) -> tuple[Matrix, Matrix]:
    """The library's ``jordan_chevalley`` of a dense matrix, its parts as
    dense matrices."""
    semi, nil = jordan_chevalley(sparse_columns(m))
    return dense_columns(semi, len(m)), dense_columns(nil, len(m))


def ad_s_matrices_dense(data: SolvableInput) -> list[Matrix]:
    """The matrices of ad_s on each basis vector, dense: e_i's coordinates
    in the (V rows | n rows) basis from the dense inverse, its V-part v,
    and (ad_v)_s from ``jordan_chevalley_dense`` (zero when v is)."""
    g = data.algebra
    n = g.dim
    comp = dense_rows(data.complement.rows, n)
    coords = dense_inverse(comp + dense_rows(data.nilradical.rows, n))
    out = []
    for row in coords:
        v_part = [ZERO] * n
        for c, basis_row in zip(row, comp):
            v_part = [x + c * y for x, y in zip(v_part, basis_row)]
        if any(v_part):
            out.append(jordan_chevalley_dense(dense_ad(g, v_part))[0])
        else:
            out.append(zeros(n, n))
    return out


# -- dense references of sparse or split-based checks -------------------------


def jacobi_counterexample_dense(
    algebra: LieAlgebra,
) -> tuple[int, int, int, Vector] | None:
    """None if the Jacobi identity holds, else a violating triple.

    The returned vector is the nonzero cyclic sum
    [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]].
    """
    n = algebra.dim

    def bracket(u, v):
        return dense_bracket(algebra, u, v)

    for i in range(n):
        ei = unit(n, i)
        for j in range(i + 1, n):
            ej = unit(n, j)
            for k in range(j + 1, n):
                ek = unit(n, k)
                total = bracket(ei, bracket(ej, ek))
                for x, c in enumerate(bracket(ej, bracket(ek, ei))):
                    total[x] = total[x] + c
                for x, c in enumerate(bracket(ek, bracket(ei, ej))):
                    total[x] = total[x] + c
                if any(total):
                    return (i, j, k, total)
    return None


def kernel_containment_dense(
    dga: Dga, grading: Grading
) -> tuple[Vector, int] | None:
    """Check that degree-2 cocycles carry weight at most nu + 1.

    Returns None on pass, else a witness (cocycle, offending weight).  The
    grading must be natural and aligned with the input basis.
    """
    violation = verify_natural_grading(
        dga.algebra, lower_central_series(dga.algebra), grading
    )
    if violation is not None:
        raise PreconditionError(f"grading is not natural: {violation}")
    weights = basis_aligned_weights(grading)
    nu = grading.depth
    kernel = dense_kernel_basis(dga.d[2], dga.dim_at(2))
    for row in kernel:
        for weight in sorted(_vector_weights(dga, weights, 2, sparse(row))):
            if weight > nu + 1:
                return list(row), weight
    return None


# -- the dense splitting, the reference of decomp.split_complex ------------------


def conj_transpose(a: Matrix, ncols: int) -> Matrix:
    return [[row[j].conjugate() for row in a] for j in range(ncols)]


def image_basis(a: Matrix, ncols: int) -> Matrix:
    """Canonical rref basis of the column space of ``a``."""
    return dense_rref(transpose(a, ncols), len(a))[0]


def _mul(a: Matrix, b: Matrix, nrows: int, inner: int, ncols: int) -> Matrix:
    if nrows == 0 or ncols == 0 or inner == 0:
        return zeros(nrows, ncols)
    return dense_mat_mul(a, b)


def dstar_matrices(dga: Dga) -> list[Matrix]:
    """The adjoint of d in each degree p >= 1, for the metric split."""
    return [zeros(0, dga.dim_at(0))] + [
        conj_transpose(dga.d[p - 1], dga.dim_at(p - 1))
        for p in range(1, len(dga.monomials))
    ]


def dense_laplacian(dga: Dga, dstar: list[Matrix], p: int) -> Matrix:
    """d d* + d* d in degree p, from dense products."""
    dims = dga.dims()
    top = len(dims) - 1
    above = dims[p + 1] if p < top else 0
    below = dims[p - 1] if p >= 1 else 0
    up = _mul(dstar[p + 1] if p < top else [], dga.d[p], dims[p], above, dims[p])
    down = _mul(dga.d[p - 1] if p >= 1 else [], dstar[p], dims[p], below, dims[p])
    return mat_add(up, down)


@dataclass
class DenseSplit:
    """One degree of the dense reference split."""

    harmonic: Matrix
    exact: Matrix
    complement: Matrix
    proj_exact: Matrix      # dim x dim projection onto the exact part
    harmonic_coords: Matrix  # b_p x dim: coordinates in the harmonic basis


@dataclass
class DenseDecomposition:
    splits: list[DenseSplit]
    delta: list[Matrix]     # delta_p as a dim_(p-1) x dim_p matrix


def extend_basis_reference(base: Matrix, inside: Matrix, dim: int) -> Matrix:
    """Greedily extend ``base`` to span ``inside`` using rows of ``inside``,
    with a full rref of the rows kept so far after each row chosen: the
    reference of ``decomp._extend_basis``, which reduces each row against
    echelon rows kept as it goes."""
    rows = [list(r) for r in base]
    reduced, pivots = dense_rref(rows, dim)
    chosen = []
    for row in inside:
        if dense_in_row_space(reduced, pivots, row):
            continue
        chosen.append(list(row))
        reduced, pivots = dense_rref(reduced + [list(row)], dim)
    return chosen


def split_complex_dense(
    dga: Dga, strategy: str = "metric", top: int | None = None
) -> DenseDecomposition:
    """The splitting from dense d, d*, Laplacians and the exact projection,
    with delta solved for every column of that projection."""
    dims = dga.dims()
    n = len(dims) - 1
    last = n if top is None else min(top, n)
    dstar = dstar_matrices(dga) if strategy == "metric" else None
    splits = []
    for p in range(last + 1):
        dim_p = dims[p]
        exact = image_basis(dga.d[p - 1], dims[p - 1]) if p >= 1 else []
        if strategy == "metric":
            harmonic = dense_kernel_basis(dense_laplacian(dga, dstar, p), dim_p)
            complement = image_basis(dstar[p + 1], dims[p + 1]) if p + 1 <= n else []
        else:
            kernel = dense_kernel_basis(dga.d[p], dim_p)
            _, pivots = dense_rref(dga.d[p], dim_p)
            complement = [
                [ONE if i == c else ZERO for i in range(dim_p)] for c in pivots
            ]
            harmonic = extend_basis_reference(exact, kernel, dim_p)
        stacked = [list(r) for r in harmonic + exact + complement]
        inv = dense_inverse(transpose(stacked, dim_p))
        b, e = len(harmonic), len(exact)
        cols_e = transpose(exact, dim_p)
        splits.append(
            DenseSplit(
                harmonic=harmonic,
                exact=exact,
                complement=complement,
                proj_exact=_mul(cols_e, inv[b : b + e], dim_p, e, dim_p),
                harmonic_coords=inv[:b],
            )
        )
    delta = [zeros(0, dims[0])]
    for p in range(1, last + 1):
        comp = splits[p - 1].complement
        if not comp or dims[p] == 0:
            delta.append(zeros(dims[p - 1], dims[p]))
            continue
        comp_cols = transpose(comp, dims[p - 1])
        d_comp = _mul(dga.d[p - 1], comp_cols, dims[p], dims[p - 1], len(comp))
        beta = splits[p].proj_exact
        rhs = [[beta[i][j] for i in range(dims[p])] for j in range(dims[p])]
        ys = dense_solve_many(d_comp, rhs, len(comp))
        y_cols = transpose(ys, len(comp))
        delta.append(_mul(comp_cols, y_cols, dims[p - 1], len(comp), dims[p]))
    return DenseDecomposition(splits, delta)


def is_unimodular_dense(algebra: LieAlgebra) -> bool:
    """True iff every ad_X is traceless."""
    for i in range(algebra.dim):
        ad = dense_ad(algebra, unit(algebra.dim, i))
        trace = ZERO
        for d in range(algebra.dim):
            trace = trace + ad[d][d]
        if trace:
            return False
    return True


# -- Scalar references of the integer series stages ----------------------------


def square_slice(tdgla: TensorDgla, slices: dict[int, Slice], r: int) -> Slice:
    """[phi, phi]_r = sum over s + t = r of [phi_s, phi_t], in one kernel
    call (the bracket of degree-one elements is symmetric, so each unordered
    pair counts twice).  phi_{r/2} is bracketed with a copy of itself, so
    ``bracket_slices`` sums no square and reads both orientations of every
    index pair, apart from the series' squares."""
    return bracket_slices(
        tdgla,
        [
            (1 if 2 * s == r else 2, slices.get(s, {}), dict(slices.get(r - s, {})))
            for s in range(1, r // 2 + 1)
        ],
    )


def gauge_identity_check_reference(series: KuranishiSeries) -> str | None:
    """Verify the two exact polynomial identities of a terminated series.

    First, delta kills the whole series coefficientwise.  Second, the
    series inverts the normal-form map:  phi + (1/2) delta [phi, phi]
    equals the linear part phi_1, that is phi_r + (1/2) delta [phi, phi]_r
    = 0 for every r >= 2.  [phi, phi] is bracketed afresh here, over every
    ordered pair s + t = r, independent of the series' own bracket sums; the
    right-hand slice is a copy, so no pair is a square and every index pair
    is read in both orientations, as ``gauge_identity_check`` reads them.
    """
    if not series.terminated:
        raise PreconditionError("gauge identities require a terminated series")
    dec = series.decomposition
    tdgla = series.tdgla
    slices = series.slices
    delta1_cols = dec.delta_cols(1)
    for terms in slices.values():
        if any(tdgla.apply_matrix(delta1_cols, v) for v in terms.values()):
            return "delta(phi) is not identically zero"
    half_delta2 = [[(i, HALF * c) for i, c in col] for col in dec.delta_cols(2)]
    for r in range(2, 2 * max(slices, default=0) + 1):
        square = bracket_slices(
            tdgla, [(1, slices.get(s, {}), dict(slices.get(r - s, {}))) for s in range(1, r)]
        )
        lhs = {e: dict(v) for e, v in slices.get(r, {}).items()}
        for e, v in square.items():
            vec_add_into(lhs.setdefault(e, {}), tdgla.apply_matrix(half_delta2, v))
        if any(lhs.values()):
            return "phi + (1/2) delta[phi, phi] differs from the linear part"
    return None


def embedding_check(sub: Dga, ambient: Dga, target: LieAlgebra) -> tuple[int, str | None]:
    """``linear_embedding_check`` on C*(sub) and C*(ambient) tensor ``target``."""
    return linear_embedding_check(TensorDgla(sub, target), TensorDgla(ambient, target))


def linear_embedding_check_reference(
    sub: Dga, ambient: Dga, target: LieAlgebra
) -> tuple[int, str | None]:
    """The embedding check point by point: the selection's and the
    ambient's residuals at e_k and at e_k + e_l (k < l), in k-major order,
    with the same result and witness text as ``linear_embedding_check``."""
    sub_dgla, amb_dgla = TensorDgla(sub, target), TensorDgla(ambient, target)
    ta = target.dim
    lift = {
        p: [ambient.position[m][1] * ta + a for m in sub.monomials[p] for a in range(ta)]
        for p in (1, 2)
    }
    n = sub_dgla.dim(1)
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    for compared, pair in enumerate(pairs, 1):
        omega = dict.fromkeys(pair, ONE)
        res_sub = mc_residual(sub_dgla, omega)
        res_amb = mc_residual(amb_dgla, {lift[1][i]: c for i, c in omega.items()})
        if {lift[2][i]: c for i, c in res_sub.items()} != res_amb:
            point = " + ".join(sub_dgla.basis_label(1, i) for i in omega)
            return compared, (
                f"residuals disagree at {point}: selection gives "
                f"{sub_dgla.element_str(2, res_sub)}, ambient gives "
                f"{amb_dgla.element_str(2, res_amb)}"
            )
    return len(pairs), None


# -- the germ file as nested dicts -------------------------------------------------


def show_reference(variables: tuple[str, ...], terms: list[tuple[ExponentVector, str]]) -> str:
    """The printed form of a polynomial from its (exponents, coefficient
    text) pairs, highest term first: ``t1^2 - 1/2*t2*t3 + (1+i)*t4``."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        factors = [
            f"{name}^{e}" if e > 1 else name
            for name, e in zip(variables, exps)
            if e
        ]
        body = "*".join(factors)
        if not factors:
            parts.append(c)
        elif c == "1":
            parts.append(body)
        elif c == "-1":
            parts.append(f"-{body}")
        elif "+" in c[1:] or "-" in c[1:]:
            parts.append(f"({c})*{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def polynomial_records(poly: MultiPoly) -> list[dict]:
    """A germ file's records of ``poly``, in grlex order."""
    return [
        {"exponents": list(exps), "coefficient": str(coeff)}
        for exps, coeff in sorted(poly.terms.items(), key=lambda kv: grlex_key(kv[0]))
    ]


def germ_to_dict_reference(series: KuranishiSeries, system, **fields) -> dict:
    """What ``formats.germ_to_dict`` writes, with ``phi`` and the
    polynomials as lists of dicts; ``fields`` are its keyword arguments."""
    from germkit.formats import SCHEMA_VERSION, matrix_strings

    tdgla = series.tdgla
    ta = tdgla.target.dim
    phi = [
        {
            "degree": r,
            "terms": [
                {
                    "exponents": list(exps),
                    "entries": [
                        {
                            "monomial_index": idx // ta,
                            "target": tdgla.target.labels[idx % ta],
                            "value": str(vec[idx]),
                        }
                        for idx in sorted(vec)
                    ],
                }
                for exps, vec in sorted(series.slices[r].items())
            ],
        }
        for r in sorted(series.slices)
    ]
    dec = series.decomposition
    one_forms, two_forms = (
        matrix_strings(dec.harmonic_basis(p), dec.dga.dim_at(p))
        if p < len(dec.splits)
        else []
        for p in (1, 2)
    )
    # Counted from the terms, not read from the series.
    degrees = homogeneous_degrees(system.polynomials)
    pretty = []
    for poly in system.polynomials:
        grlex = sorted(poly.terms.items(), key=lambda kv: grlex_key(kv[0]))
        pretty.append(show_reference(poly.variables, [(e, str(c)) for e, c in grlex[::-1]]))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "germ",
        "base_algebra": fields["base"],
        "target_algebra": fields["target"],
        "strategy": fields["strategy"],
        "grading": fields["grading_labels"],
        "subdga_monomials": fields["subdga_monomials"],
        "cap": series.cap,
        "terminated": series.terminated,
        "last_nonzero_degree": series.last_nonzero,
        "variables": list(series.variables),
        "zeta": [
            {
                "variable": series.variables[i],
                "harmonic_one_form": h,
                "target": tdgla.target.labels[a],
            }
            for i, (h, a) in enumerate(series.zeta_info)
        ],
        "harmonic_one_forms": one_forms,
        "harmonic_two_forms": two_forms,
        "phi": phi,
        "obstructions": {
            "coordinates": list(system.coordinates),
            "polynomials": [polynomial_records(p) for p in system.polynomials],
            "pretty": pretty,
            "homogeneous_degrees": degrees,
            "max_degree": max((d[-1] for d in degrees if d), default=0),
            "nu": system.nu,
            "terminated": system.terminated,
            "valid_modulo": system.valid_modulo,
            "smooth": system.is_smooth,
            "degree_bound": fields["degree_bound"],
        },
    }


def inferred_grading(algebra: LieAlgebra) -> Grading | None:
    """The basis-aligned natural grading the CLI infers, or None."""
    return obtain_grading(None, algebra, lower_central_series(algebra))[0]


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """[g, g], the second term of ``liealg.derived_series``."""
    full = Subspace.full(algebra.dim)
    return span_of_brackets(algebra, full, full)


def unchecked_algebra(labels, brackets) -> LieAlgebra:
    """A LieAlgebra built without the Jacobi check, for the failure paths
    that a checked algebra never reaches."""
    check = LieAlgebra.jacobi_counterexample
    LieAlgebra.jacobi_counterexample = lambda self: None
    try:
        return LieAlgebra(labels, brackets)
    finally:
        LieAlgebra.jacobi_counterexample = check


# -- fixture registry ------------------------------------------------------------


FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# Each algebra file under fixtures/, parsed once, by file stem: the only
# definition of the fixture algebras, with their nilradical, complement and
# characters where the file has them.
PARSED_FIXTURES: dict[str, ParsedAlgebra] = {
    path.stem: load_algebra_file(str(path))
    for path in sorted(FIXTURE_DIR.glob("*.json"))
    if path.stem != "diag_weight_characters"
}
FIXTURE_ALGEBRAS = {name: parsed.algebra for name, parsed in PARSED_FIXTURES.items()}

GRADED_NILPOTENT = {
    name: FIXTURE_ALGEBRAS[name] for name in ("abelian3", "h3", "h5", "filiform4", "q_plus_h3")
}

UNIMODULAR = {
    **GRADED_NILPOTENT,
    **{name: FIXTURE_ALGEBRAS[name] for name in ("solv_heisenberg", "sol3", "sl2")},
}


def abelian(n: int) -> LieAlgebra:
    """The abelian algebra Q^n on e1..en; only abelian3 has a file."""
    return LieAlgebra([f"e{i + 1}" for i in range(n)], {})


# The fixture algebras and the abelian ones of dimension 1 and 2, by name.
BUILTIN_ALGEBRAS = {"abelian1": abelian(1), "abelian2": abelian(2), **FIXTURE_ALGEBRAS}


def solvable_input(parsed: ParsedAlgebra) -> SolvableInput:
    """The solvable data of an algebra file with a nilradical and complement."""
    return SolvableInput(parsed.algebra, parsed.nilradical, parsed.complement)


def homogeneous_degrees(polynomials: Sequence[MultiPoly]) -> list[list[int]]:
    """Each polynomial's homogeneous degrees, ascending, counted from its terms."""
    return [sorted({sum(e) for e in poly.terms}) for poly in polynomials]


def non_unimodular2() -> LieAlgebra:
    return LieAlgebra(("T", "X"), {(0, 1): {1: scalar(1)}})


def book3() -> LieAlgebra:
    """T x| Q^2 with [T, X] = X, [T, Y] = 2 Y: solvable and not unimodular."""
    return LieAlgebra(("T", "X", "Y"), {(0, 1): {1: ONE}, (0, 2): {2: scalar(2)}})


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


def h5_i_scaled() -> LieAlgebra:
    """h(5) over Q(i): [X1, Y1] = i Z and [X2, Y2] = (1 - i/2) Z."""
    return LieAlgebra(
        ["X1", "Y1", "X2", "Y2", "Z"],
        {(0, 1): {4: I}, (2, 3): {4: ONE - I * scalar("1/2")}},
    )


GENERATED = {
    **{f"h{2 * k + 1}": heisenberg(k) for k in range(1, 4)},
    **{f"L{n}": filiform(n) for n in range(3, 8)},
}


def germbench_inputs():
    """germbench/inputs.py, imported from its file (it is not a package)."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "germbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("germbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    return FIXTURE_DIR
