"""Exterior-algebra cochain complexes of Lie algebras.

The complex on the dual of an n-dimensional algebra has the monomial basis
{x_I : I subset of {1..n}} graded by |I|, listed in lexicographic order
inside each degree.  The differential acts on degree-one generators by

    d x^k = - sum_{i<j} c_ij^k  x^i wedge x^j

and extends as an odd derivation; equivalently (d w)(X, Y) = -w([X, Y]) in
degree one.  This sign convention is fixed globally: frozen expected values
throughout the test suite are computed under it.

The differential is held as sparse columns: d_p is one list of (row, value)
pairs per degree-p monomial, the form ``linalg.apply`` reads.  The d o d
check (``linalg.apply`` of d_(p+1) to each column of d_p), the Betti ranks
(``linalg.sparse_rank``), the split and ``verify_subdga`` work on these
columns.  Dense rows of d_p (``Dga.d``) are built per degree when first
read; the program never reads them, and they are kept for the benchmark's
counters and its ``rref`` probe.

A monomial sub-DGA is a per-degree selection of monomials that contains the
unit and is closed under both d and wedge.  ``verify_subdga`` checks a
selection against its parent once; the sub-DGA is then a ``Dga`` of its
own on the selected monomials.  Character data (exponent vectors
on a finitely generated abelian group, with optional torsion) selects the
monomials whose exponent sums vanish, which is how invariant sub-DGAs of
diagonalizable actions enter the pipeline.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import linalg
from .errors import PreconditionError
from .liealg import LieAlgebra
from .linalg import Row, SparseColumns
from .scalars import ONE, Scalar, ZERO, scalar

Monomial = tuple[int, ...]


def sort_with_sign(indices: tuple[int, ...]) -> tuple[int, Monomial] | None:
    """Sort an index sequence, tracking permutation parity.

    Returns None when an index repeats (the wedge vanishes).
    """
    if len(set(indices)) != len(indices):
        return None
    inversions = 0
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            if indices[a] > indices[b]:
                inversions += 1
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


def wedge_monomials(left: Monomial, right: Monomial) -> tuple[int, Monomial] | None:
    return sort_with_sign(left + right)


class Dga:
    """A monomial cochain complex with wedge product.

    Covers both the full exterior complex of an algebra and any monomial
    sub-DGA of it (same generator differentials, restricted basis).
    Construction fails if the differential leaves the chosen span or if
    d composed with itself is nonzero; the error names the first nonzero
    entry of d_(p+1) d_p in row-major order, in the lowest failing degree.
    """

    __slots__ = ("algebra", "monomials", "position", "columns", "d", "_gen_diff")

    def __init__(
        self,
        algebra: LieAlgebra,
        monomials: list[list[Monomial]] | None = None,
    ):
        self.algebra = algebra
        n = algebra.dim
        if monomials is None:
            monomials = [
                list(itertools.combinations(range(n), p)) for p in range(n + 1)
            ]
        if len(monomials) != n + 1:
            raise ValueError("monomial table must cover degrees 0..dim")
        self.monomials: tuple[tuple[Monomial, ...], ...] = tuple(
            tuple(sorted(set(level))) for level in monomials
        )
        for p, level in enumerate(self.monomials):
            for mono in level:
                if len(mono) != p or list(mono) != sorted(set(mono)):
                    raise ValueError(f"bad degree-{p} monomial {mono}")
                if mono and not (0 <= mono[0] and mono[-1] < n):
                    raise ValueError(f"monomial {mono} out of range")
        self.position: dict[Monomial, tuple[int, int]] = {}
        for p, level in enumerate(self.monomials):
            for idx, mono in enumerate(level):
                self.position[mono] = (p, idx)

        self._gen_diff: list[dict[Monomial, Scalar]] = [
            {} for _ in range(n)
        ]
        for i, j, comps in algebra.nonzero_brackets():
            for k, c in comps.items():
                acc = self._gen_diff[k]
                acc[(i, j)] = acc.get((i, j), ZERO) - c

        self.columns: list[SparseColumns] = []
        for p, level in enumerate(self.monomials):
            columns = []
            for mono in level:
                column = []
                for target, coeff in self._diff_monomial(mono).items():
                    spot = self.position.get(target)
                    if spot is None or spot[0] != p + 1:
                        raise PreconditionError(
                            f"differential leaves the span: d({self.monomial_label(mono)}) "
                            f"has a component on {self.monomial_label(target)} "
                            "outside the complex"
                        )
                    column.append((spot[1], coeff))
                column.sort()
                columns.append(column)
            self.columns.append(columns)
        self.d = DenseDifferential(self)

        for p in range(n - 1):
            failures = []
            for c, column in enumerate(self.columns[p]):
                square = linalg.apply(self.columns[p + 1], column)
                failures.extend((r, c, value) for r, value in square.items())
            if failures:
                r, c, value = min(failures, key=lambda f: f[:2])
                raise PreconditionError(
                    "d o d != 0: degree "
                    f"{p} entry (row {self.monomial_label(self.monomials[p + 2][r])}, "
                    f"column {self.monomial_label(self.monomials[p][c])}) "
                    f"= {value}; the structure constants violate the "
                    "Jacobi identity"
                )

    # -- structure ---------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return max(p for p, level in enumerate(self.monomials) if level)

    def dim_at(self, p: int) -> int:
        if 0 <= p < len(self.monomials):
            return len(self.monomials[p])
        return 0

    def dims(self) -> list[int]:
        return [len(level) for level in self.monomials]

    def betti(self) -> list[int]:
        """b_p = dim_p - rank d_p - rank d_(p-1), in every degree."""
        dims = self.dims()
        ranks = [linalg.sparse_rank(columns) for columns in self.columns]
        return [
            dims[p] - ranks[p] - (ranks[p - 1] if p else 0)
            for p in range(len(dims))
        ]

    def _diff_monomial(self, mono: Monomial) -> dict[Monomial, Scalar]:
        """d(x_mono) in the ambient free exterior algebra."""
        out: dict[Monomial, Scalar] = {}
        for t, gen in enumerate(mono):
            for pair, coeff in self._gen_diff[gen].items():
                seq = mono[:t] + pair + mono[t + 1 :]
                sorted_ = sort_with_sign(seq)
                if sorted_ is None:
                    continue
                sign, target = sorted_
                total = out.get(target, ZERO) + scalar(sign * (-1) ** t) * coeff
                if total:
                    out[target] = total
                else:
                    out.pop(target, None)
        return out

    def monomial_label(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        return "∧".join(self.algebra.labels[i] for i in mono)

    def cochain_label(self, degree: int, coeffs: Row) -> str:
        """A cochain given by its nonzero coefficients, term by term in
        monomial order."""
        parts = []
        for idx, c in sorted(coeffs.items()):
            mono = self.monomial_label(self.monomials[degree][idx])
            if c == ONE:
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"


class DenseDifferential(Sequence):
    """Read-only dense rows of each d_p, built from the columns on first read."""

    def __init__(self, dga: Dga):
        self._dga, self._built = dga, {}

    def __len__(self) -> int:
        return len(self._dga.columns)

    def __getitem__(self, p: int) -> list[list[Scalar]]:
        p = range(len(self))[p]
        if p not in self._built:
            dga = self._dga
            ncols = dga.dim_at(p)
            self._built[p] = matrix = [[ZERO] * ncols for _ in range(dga.dim_at(p + 1))]
            for col, column in enumerate(dga.columns[p]):
                for row, value in column:
                    matrix[row][col] = value
        return self._built[p]


def pd_type_check(dga: Dga) -> str | None:
    """None when the complex has Poincare-duality type, else the violation.

    Conditions: degree 0 is spanned by the unit, the top nonzero degree is
    one-dimensional, every intermediate wedge pairing into the top degree is
    nondegenerate, and d vanishes on degree 0 and on degree top-1.

    The full exterior complex meets all but the last by construction, and
    d(x_1..^x_i..x_n) is +-tr(ad e_i) times the volume, so there the check
    is unimodularity.  Sub-DGAs take the general check.
    """
    n = dga.algebra.dim
    if dga.dims() == [math.comb(n, p) for p in range(n + 1)]:
        if dga.algebra.is_unimodular():
            return None
        return f"d does not vanish on degree {n - 1} (top - 1)"
    return _pd_type_by_pairing(dga)


def _pd_type_by_pairing(dga: Dga) -> str | None:
    """pd_type_check's conditions, each checked on the complex itself."""
    if dga.monomials[0] != ((),):
        return "degree 0 is not spanned by the unit"
    top = dga.top_degree
    if top == 0:
        return "no positive top degree"
    if dga.dim_at(top) != 1:
        return f"top degree {top} has dimension {dga.dim_at(top)}, not 1"
    if any(dga.columns[0]):
        return "d does not vanish on degree 0"
    if any(dga.columns[top - 1]):
        return f"d does not vanish on degree {top - 1} (top - 1)"
    top_mono = dga.monomials[top][0]
    for i in range(1, top):
        rows = dga.monomials[i]
        cols = dga.monomials[top - i]
        if len(rows) != len(cols):
            return (
                f"pairing of degrees {i} and {top - i} is not square "
                f"({len(rows)} vs {len(cols)})"
            )
        pairing = []
        for right in cols:
            column = []
            for r, left in enumerate(rows):
                merged = wedge_monomials(left, right)
                if merged is not None and merged[1] == top_mono:
                    column.append((r, scalar(merged[0])))
            pairing.append(column)
        if linalg.sparse_rank(pairing) != len(cols):
            return f"pairing of degrees {i} and {top - i} is degenerate"
    return None


# -- monomial sub-DGAs -----------------------------------------------------


def verify_subdga(
    parent: Dga, selected: Sequence[Sequence[Monomial]]
) -> str | None:
    """None if the per-degree selection is a genuine sub-DGA of ``parent``,
    else the violation."""
    chosen = {mono for level in selected for mono in level}
    if () not in chosen:
        return "selection does not contain the degree-0 unit"
    for mono in sorted(chosen):
        p, idx = parent.position[mono]
        for row, _ in parent.columns[p][idx]:
            target = parent.monomials[p + 1][row]
            if target not in chosen:
                return (
                    f"not closed under d: d({parent.monomial_label(mono)}) "
                    f"has a component on {parent.monomial_label(target)}"
                )
    # Wedge closure is symmetric, and a monomial wedged with itself is zero
    # or the unit, so unordered pairs suffice; the first violation in
    # lexicographic order has left < right.
    for left, right in itertools.combinations(sorted(chosen), 2):
        merged = wedge_monomials(left, right)
        if merged is not None and merged[1] not in chosen:
            return (
                f"not closed under wedge: {parent.monomial_label(left)} "
                f"wedge {parent.monomial_label(right)} leaves the selection"
            )
    return None


@dataclass(frozen=True)
class TorsionComponent:
    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("torsion modulus must be at least 2")


@dataclass(frozen=True)
class CharacterData:
    """Exponent vectors of basis characters on a f.g. abelian value group.

    A monomial x_I is invariant exactly when the exponents over I sum to
    zero in every free coordinate and to zero modulo each torsion modulus.
    """

    rank: int
    exponents: tuple[tuple[int, ...], ...]
    torsion: tuple[TorsionComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for vec in self.exponents:
            if len(vec) != self.rank:
                raise ValueError(
                    f"exponent vector {vec} does not have rank {self.rank}"
                )
        for comp in self.torsion:
            if len(comp.residues) != len(self.exponents):
                raise ValueError("torsion residues must cover every basis index")

    def selects(self, mono: Monomial) -> bool:
        for coord in range(self.rank):
            if sum(self.exponents[i][coord] for i in mono) != 0:
                return False
        for comp in self.torsion:
            if sum(comp.residues[i] for i in mono) % comp.modulus != 0:
                return False
        return True


def subdga_from_characters(dga: Dga, characters: CharacterData) -> Dga:
    """The complex on the character-invariant monomials of ``dga``.

    Raises PreconditionError when the exponent data is incompatible with the
    differential or the product (the selection would not be a sub-DGA).
    """
    if len(characters.exponents) != dga.algebra.dim:
        raise PreconditionError(
            f"need one exponent vector per basis index "
            f"({dga.algebra.dim}), got {len(characters.exponents)}"
        )
    selected = [
        [mono for mono in level if characters.selects(mono)]
        for level in dga.monomials
    ]
    violation = verify_subdga(dga, selected)
    if violation is not None:
        raise PreconditionError(
            f"character data does not define a sub-DGA: {violation}"
        )
    return Dga(dga.algebra, selected)
