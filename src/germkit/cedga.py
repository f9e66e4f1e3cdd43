"""Exterior-algebra cochain complexes of Lie algebras.

The complex on the dual of an n-dimensional algebra has the monomial basis
{x_I : I subset of {1..n}} graded by |I|, listed in lexicographic order
inside each degree.  The differential acts on degree-one generators by

    d x^k = - sum_{i<j} c_ij^k  x^i wedge x^j

and extends as an odd derivation; equivalently (d w)(X, Y) = -w([X, Y]) in
degree one.  This sign convention is fixed globally: frozen expected values
throughout the test suite are computed under it.

The differential is held as sparse columns: d_p is one list of (row, value)
pairs per degree-p monomial, the form ``linalg.apply`` reads.  The full
complex builds them on index bitmasks.  For the generator k at position t
of x_I, each term -c_ij^k x_i x_j of d x_k whose bits miss rest = I - {k}
lands on rest | {i, j} with sign (-1)^t times (-1)^(the number of indices
of rest strictly between i and j), the parity of moving x_i and x_j into
place.  Terms that land on one monomial are added and zeros dropped.  The
d o d check (``linalg.apply`` of d_(p+1) to each column of d_p), the Betti
ranks (``linalg.sparse_rank``), the split and ``verify_subdga`` work on
these columns.  Dense rows of d (``Dga.d``) are built afresh on each read
for the benchmark's counters, its ``rref`` probe and the tests' dense
references; the program never reads them.  A complex keeps each degree's
monomials once, as a sorted tuple, and no map from monomial to index: an
index is the monomial's place in that tuple, found by ``Dga.index``'s
bisection.

A monomial sub-DGA is a per-degree selection of monomials that contains the
unit and is closed under both d and wedge.  ``verify_subdga`` is the one
check of a selection against its parent; ``Dga.restrict`` then re-indexes
the parent's columns onto it, so d is derived from the structure constants
once, for the full complex.  Character data is a weight table per
coordinate of a finitely generated abelian group, the form of
``Grading.weights``, with a modulus each (0 for a free coordinate); it
selects the monomials whose weight vanishes in every coordinate, which is
how invariant sub-DGAs of diagonalizable actions enter the pipeline.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Sequence

from . import linalg
from .errors import PreconditionError
from .liealg import Frozen, LieAlgebra
from .linalg import Row, SparseColumns
from .scalars import ONE, Scalar, ZERO, scalar

Monomial = tuple[int, ...]


def sort_with_sign(indices: tuple[int, ...]) -> tuple[int, Monomial] | None:
    """Sort an index sequence, tracking permutation parity.

    Returns None when an index repeats (the wedge vanishes).  The sign is
    the parity of the inversions: walking from the right, each index is
    inserted into the sorted indices after it, past the smaller ones.
    """
    if len(indices) == 2:
        # The product of two degree-one monomials: one comparison.
        i, j = indices
        if i < j:
            return 1, indices
        return (-1, (j, i)) if i > j else None
    ordered: list[int] = []
    inversions = 0
    for index in reversed(indices):
        spot = bisect_left(ordered, index)
        if spot < len(ordered) and ordered[spot] == index:
            return None
        inversions += spot
        ordered.insert(spot, index)
    return (-1 if inversions % 2 else 1), tuple(ordered)


def wedge_monomials(left: Monomial, right: Monomial) -> tuple[int, Monomial] | None:
    return sort_with_sign(left + right)


Column = list[tuple[int, Scalar]]


class Dga:
    """A monomial cochain complex with wedge product.

    ``Dga(algebra)`` is the full exterior complex of an algebra, and
    ``restrict`` the complex on a monomial sub-DGA of it.  Making either
    checks d o d = 0; the error names the first nonzero entry of
    d_(p+1) d_p in row-major order, in the lowest failing degree.
    """

    __slots__ = ("algebra", "monomials", "columns")

    def __init__(self, algebra: LieAlgebra):
        n = algebra.dim
        # d x_k as (bits of i and j, bits strictly between them, -c_ij^k,
        # c_ij^k) for each nonzero c_ij^k, i < j.
        gen_diff: list[list[tuple[int, int, Scalar, Scalar]]] = [[] for _ in range(n)]
        for i, j, comps in algebra.nonzero_brackets():
            for k, c in comps.items():
                gen_diff[k].append((1 << i | 1 << j, (1 << j) - (2 << i), -c, c))
        # (bit of k, the bits below it, d x_k) for each k with d x_k != 0.
        active = [(1 << k, (1 << k) - 1, pairs) for k, pairs in enumerate(gen_diff) if pairs]
        monomials = [list(itertools.combinations(range(n), p)) for p in range(n + 1)]
        bits = [1 << i for i in range(n)]
        # One degree of build state at a time: degree p's masks, and an
        # index of degree p + 1's masks that ``column`` reads as ``row``.
        masks = [0]

        def column(mask: int) -> Column:
            terms: dict[int, Scalar] = {}
            for bit, below, pairs in active:
                if mask & bit:
                    rest, t = mask ^ bit, (mask & below).bit_count()
                    for pair, between, value, negated in pairs:
                        if not rest & pair:
                            target = rest | pair
                            term = negated if (t + (rest & between).bit_count()) & 1 else value
                            if target in terms:
                                terms[target] += term
                            else:
                                terms[target] = term
            return sorted([(row[target], value) for target, value in terms.items() if value])

        columns = []
        for p in range(n + 1):
            upper = list(map(sum, itertools.combinations(bits, p + 1)))
            row = {mask: idx for idx, mask in enumerate(upper)}
            columns.append(list(map(column, masks)))
            masks = upper
        self._set(algebra, monomials, columns)

    def restrict(self, selected: Sequence[Sequence[Monomial]]) -> Dga:
        """The complex on ``selected``, a per-degree selection that
        ``verify_subdga`` has passed: this complex's columns, re-indexed.
        Both bases are in lexicographic order, so each column stays sorted."""
        levels = [sorted(level) for level in selected]

        def column(p: int, mono: Monomial) -> Column:
            return [
                (bisect_left(levels[p + 1], self.monomials[p + 1][row]), value)
                for row, value in self.columns[p][self.index(mono)]
            ]

        columns = [[column(p, mono) for mono in level] for p, level in enumerate(levels)]
        sub = Dga.__new__(Dga)
        sub._set(self.algebra, levels, columns)
        return sub

    def _set(
        self,
        algebra: LieAlgebra,
        monomials: list[list[Monomial]],
        columns: list[SparseColumns],
    ) -> None:
        """Lay out the basis with d as ``columns`` and check d o d = 0."""
        self.algebra = algebra
        self.monomials: tuple[tuple[Monomial, ...], ...] = tuple(map(tuple, monomials))
        self.columns: list[SparseColumns] = columns
        for p in range(len(columns) - 2):
            failures = [
                (r, c, value)
                for c, col in enumerate(columns[p])
                if col
                for r, value in linalg.apply(columns[p + 1], col).items()
            ]
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

    def index(self, mono: Monomial) -> int:
        """The place of ``mono`` in ``monomials[len(mono)]``; KeyError when
        the complex does not hold it."""
        level = self.monomials[len(mono)]
        idx = bisect_left(level, mono)
        if idx == len(level) or level[idx] != mono:
            raise KeyError(mono)
        return idx

    @property
    def d(self) -> list[list[list[Scalar]]]:
        """Dense rows of each d_p (none for the top degree), built afresh on
        every read.  The program reads only ``columns``; the benchmark's
        counters and rref microbenchmark (germbench/spans.py,
        germbench/probes.py) and the tests' dense references read this."""
        dims = [*self.dims(), 0]
        dense = [[[ZERO] * dims[p] for _ in range(dims[p + 1])] for p in range(len(dims) - 1)]
        for matrix, columns in zip(dense, self.columns):
            for col, column in enumerate(columns):
                for row, value in column:
                    matrix[row][col] = value
        return dense

    def betti(self) -> list[int]:
        """b_p = dim_p - rank d_p - rank d_(p-1), in every degree.  On a full
        complex with d = 0 on degree n - 1 (a unimodular algebra), the wedge
        pairing into degree n makes d_p the transpose of d_(n-1-p) up to sign,
        so only the lower half is ranked: rank d_p = rank d_(n-1-p)."""
        dims, n = self.dims(), self.algebra.dim
        dual = sum(dims) == 1 << n and not any(self.columns[n - 1])
        ranks: list[int] = []
        for p, cols in enumerate(self.columns):
            mirror = n - 1 - p
            ranks.append(ranks[mirror] if dual and 0 <= mirror < p else linalg.sparse_rank(cols))
        return [
            dims[p] - ranks[p] - (ranks[p - 1] if p else 0)
            for p in range(len(dims))
        ]

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
        p = len(mono)
        for row, _ in parent.columns[p][parent.index(mono)]:
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


def monomial_weight(weights: tuple[int, ...], mono: Monomial) -> int:
    return sum(weights[i] for i in mono)


class CharacterData(Frozen):
    """Basis characters on a f.g. abelian value group, one weight table per
    coordinate: ``tables[c][k]`` is the weight of X_k in coordinate c, and
    ``moduli[c]`` that coordinate's modulus, 0 for a free one (Z/0 = Z).

    A monomial x_I is invariant exactly when its weight in every
    coordinate vanishes modulo the coordinate's modulus.
    """

    __slots__ = ("tables", "moduli")

    def __init__(self, tables: tuple[tuple[int, ...], ...], moduli: tuple[int, ...]):
        self._assign(tables=tables, moduli=moduli)

    def selects(self, mono: Monomial) -> bool:
        for table, modulus in zip(self.tables, self.moduli):
            weight = monomial_weight(table, mono)
            if weight % modulus if modulus else weight:
                return False
        return True


def subdga_from_characters(dga: Dga, characters: CharacterData) -> Dga:
    """The complex on the character-invariant monomials of ``dga``.

    Raises PreconditionError when the character data is incompatible with
    the differential or the product (the selection would not be a sub-DGA).
    """
    selected = [
        [mono for mono in level if characters.selects(mono)]
        for level in dga.monomials
    ]
    violation = verify_subdga(dga, selected)
    if violation is not None:
        raise PreconditionError(
            f"character data does not define a sub-DGA: {violation}"
        )
    return dga.restrict(selected)
