"""Lie algebras presented by structure constants over Q(i), on sparse rows.

The caller gives the brackets of pairs i < j; one antisymmetric table of
every nonzero [X_i, X_j] serves the bracket, ad, the structure columns,
Jacobi and unimodularity.  The Jacobi identity is checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import PreconditionError
from .linalg import Row, SparseColumns
from .scalars import ONE, Scalar, ZERO


class LieAlgebra:
    """Finite-dimensional Lie algebra on a labelled basis."""

    __slots__ = ("labels", "_table")

    def __init__(
        self,
        labels: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, Scalar]],
    ):
        self.labels: tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if n == 0:
            raise ValueError("a Lie algebra needs at least one basis vector")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate basis labels")
        # (i, j) -> the nonzero entries (k, c) of [X_i, X_j], k ascending.
        table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i}, {j}) out of range or not i<j")
            entries = tuple(
                (k, c) for k, c in sorted(comps.items()) if 0 <= k < n and c
            )
            if any(not (0 <= k < n) for k in comps):
                raise ValueError(f"bracket ({i},{j}) targets an unknown index")
            if entries:
                table[(i, j)] = entries
                table[(j, i)] = tuple((k, -c) for k, c in entries)
        self._table = table
        bad = self.jacobi_counterexample()
        if bad is not None:
            i, j, k, total = bad
            raise PreconditionError(
                "Jacobi identity fails on basis triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]}); "
                f"cyclic sum = {self.vector_str(total)}"
            )

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, u: Row, v: Row) -> Row:
        """Bilinear extension of the basis bracket to sparse vectors."""
        table = self._table
        out: Row = {}
        for i, a in u.items():
            for j, b in v.items():
                entries = table.get((i, j))
                if entries:
                    ab = a * b
                    for k, c in entries:
                        out[k] = out.get(k, ZERO) + ab * c
        return {k: x for k, x in out.items() if x}

    def ad(self, v: Row) -> SparseColumns:
        """ad_v : w -> [v, w] as sparse columns in the given basis."""
        return [sorted(self.bracket(v, {j: ONE}).items()) for j in range(self.dim)]

    def structure_columns(self) -> SparseColumns:
        """The bracket table as sparse columns: column i * dim + j lists the
        nonzero (k, c) of [X_i, X_j], k ascending."""
        table, n = self._table, self.dim
        return [list(table.get((i, j), ())) for i in range(n) for j in range(n)]

    def basis_vector(self, i: int) -> Row:
        return {i: ONE}

    def vector_str(self, v: Row) -> str:
        parts = [f"{c}*{self.labels[i]}" for i, c in sorted(v.items())]
        return " + ".join(parts) if parts else "0"

    def nonzero_brackets(self) -> list[tuple[int, int, dict[int, Scalar]]]:
        return [
            (i, j, dict(entries))
            for (i, j), entries in sorted(self._table.items())
            if i < j
        ]

    # -- checks ---------------------------------------------------------------

    def jacobi_counterexample(self) -> tuple[int, int, int, Row] | None:
        """None if the Jacobi identity holds, else a violating triple.

        Triples i < j < k are tried in lexicographic order, composing the
        bracket table.  The returned vector is the nonzero cyclic sum
        [X_i,[X_j,X_k]] + [X_j,[X_k,X_i]] + [X_k,[X_i,X_j]].
        """
        table = self._table
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total: Row = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in table.get((b, c), ()):
                            for t, y in table.get((a, m), ()):
                                total[t] = total.get(t, ZERO) + x * y
                    total = {t: x for t, x in sorted(total.items()) if x}
                    if total:
                        return i, j, k, total
        return None

    def is_unimodular(self) -> bool:
        """True iff every ad_X is traceless: tr ad X_i sums the
        X_j-coefficients of [X_i, X_j] over j."""
        traces: dict[int, Scalar] = {}
        for (i, j), entries in self._table.items():
            for k, c in entries:
                if k == j:
                    traces[i] = traces.get(i, ZERO) + c
        return not any(traces.values())

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q(i)^n held as the reduced echelon rows ``linalg.echelon``
    gives, with their pivot columns.

    Equality of subspaces is literal equality of the stored rows.
    """

    ambient_dim: int
    rows: tuple[Row, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Row]) -> "Subspace":
        reduced, pivots = linalg.echelon(vectors)
        return cls(ambient_dim, tuple(reduced), tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, ({i: ONE} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, v: Row) -> bool:
        return linalg.in_row_space(self.rows, self.pivots, v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient_dim, self.rows + other.rows)

    def intersection_dim(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.add(other).dim


def span_of_brackets(
    algebra: LieAlgebra, left: Subspace, right: Subspace
) -> Subspace:
    """Span of all [u, v] with u in ``left`` and v in ``right``."""
    return Subspace.from_vectors(
        algebra.dim, (algebra.bracket(u, v) for u in left.rows for v in right.rows)
    )


# -- series ---------------------------------------------------------------------


@dataclass(frozen=True)
class LowerCentralSeries:
    """Chain g = g^(1) >= g^(2) >= ... until stabilization.

    ``nu`` is the nilpotency class when the chain reaches zero, else None.
    """

    chain: tuple[Subspace, ...]
    nu: int | None

    @property
    def is_nilpotent(self) -> bool:
        return self.nu is not None

    def dims(self) -> list[int]:
        return [s.dim for s in self.chain]


def lower_central_series(algebra: LieAlgebra) -> LowerCentralSeries:
    return restricted_lower_central_series(algebra, Subspace.full(algebra.dim))


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    chain = [Subspace.full(algebra.dim)]
    while True:
        nxt = span_of_brackets(algebra, chain[-1], chain[-1])
        if nxt.dim == chain[-1].dim:
            return chain
        chain.append(nxt)
        if nxt.is_zero():
            return chain


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].is_zero()


def restricted_lower_central_series(
    algebra: LieAlgebra, sub: Subspace
) -> LowerCentralSeries:
    """Lower central series of a subalgebra, bracketed inside the ambient."""
    chain = [sub]
    while True:
        nxt = span_of_brackets(algebra, sub, chain[-1])
        if nxt.dim == chain[-1].dim:
            # stabilized without reaching zero (only possible when nonzero)
            return LowerCentralSeries(tuple(chain), None)
        chain.append(nxt)
        if nxt.is_zero():
            return LowerCentralSeries(tuple(chain), len(chain) - 1)


# -- gradings --------------------------------------------------------------------


@dataclass(frozen=True)
class Grading:
    """Layers a^(1), ..., a^(nu) splitting the lower central series."""

    layers: tuple[Subspace, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def verify_natural_grading(
    algebra: LieAlgebra, lcs: LowerCentralSeries, grading: Grading
) -> str | None:
    """None if the grading is natural, else a violation message.

    Checks, against the lower central series ``lcs``: the algebra is
    nilpotent of class nu = number of layers, layer i complements g^(i+1)
    inside g^(i), and every [layer_i, layer_j] lands in layer_{i+j} (the
    zero space when i+j exceeds nu).
    """
    if lcs.nu is None:
        return "algebra is not nilpotent"
    nu = lcs.nu
    if grading.depth != nu:
        raise PreconditionError(
            f"grading has {grading.depth} layers but the nilpotency class is {nu}"
        )
    chain = list(lcs.chain) + [Subspace.zero(algebra.dim)]
    for i, layer in enumerate(grading.layers, start=1):
        step, nxt = chain[i - 1], chain[i]
        if not step.contains_subspace(layer):
            return f"layer {i} is not contained in term {i} of the series"
        if layer.intersection_dim(nxt) != 0:
            return f"layer {i} meets term {i + 1} of the series nontrivially"
        if layer.dim + nxt.dim != step.dim:
            return f"layer {i} does not complement term {i + 1} (dimension)"
    zero = Subspace.zero(algebra.dim)
    for i, li in enumerate(grading.layers, start=1):
        for j, lj in enumerate(grading.layers[i - 1 :], start=i):
            target = grading.layers[i + j - 1] if i + j <= nu else zero
            generated = span_of_brackets(algebra, li, lj)
            if not target.contains_subspace(generated):
                return (
                    f"[layer {i}, layer {j}] is not contained in "
                    f"layer {i + j}" + ("" if i + j <= nu else " (= 0)")
                )
    return None


def infer_grading_basis_aligned(
    algebra: LieAlgebra, lcs: LowerCentralSeries
) -> Grading | None:
    """Layers of input basis vectors complementing each step of the lower
    central series ``lcs``, greedy, smallest basis indices first.

    A candidate only: ``verify_natural_grading`` checks the bracket.  None
    does not prove that no natural grading exists.
    """
    if lcs.nu is None:
        return None
    chain = list(lcs.chain) + [Subspace.zero(algebra.dim)]
    layers = []
    for i in range(1, lcs.nu + 1):
        step, nxt = chain[i - 1], chain[i]
        chosen: list[Row] = []
        # The span of g^(i+1) and the vectors chosen, as echelon rows by pivot.
        span = dict(zip(nxt.pivots, nxt.rows))
        for k in range(algebra.dim):
            if len(span) == step.dim:
                break
            e = algebra.basis_vector(k)
            if step.contains(e) and linalg.insert(span, e):
                chosen.append(e)
        if len(span) != step.dim:
            return None
        layers.append(Subspace.from_vectors(algebra.dim, chosen))
    return Grading(tuple(layers))


def basis_aligned_weights(grading: Grading) -> list[int]:
    """Per-basis-index weights; the weight machinery downstream needs each
    basis vector to be a row of exactly one layer, and no other rows."""
    n = grading.layers[0].ambient_dim if grading.layers else 0
    weights: dict[int, int] = {}
    for w, layer in enumerate(grading.layers, start=1):
        for row, pivot in zip(layer.rows, layer.pivots):
            if len(row) == 1:  # the echelon row {pivot: 1}
                weights[pivot] = w
    if not n or len(weights) != n or sum(g.dim for g in grading.layers) != n:
        raise PreconditionError(
            "grading layers must be spanned by input basis vectors to "
            "drive the weight machinery"
        )
    return [weights[i] for i in range(n)]
