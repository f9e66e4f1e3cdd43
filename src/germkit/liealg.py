"""Lie algebras presented by structure constants over Q(i), on sparse rows.

The caller gives the brackets of pairs i < j; one antisymmetric table of
every nonzero [X_i, X_j] serves the bracket, ad, the structure columns,
Jacobi and unimodularity.  The Jacobi identity is checked at construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

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


class Frozen:
    """Base of the read-only records: ``__init__`` fills the ``__slots__``
    through ``_assign``, and any later assignment raises AttributeError."""

    __slots__ = ()

    def _assign(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def _equal_fields(self: Frozen, other: object) -> bool:
    """``__eq__`` of the records that are compared: same class, equal fields."""
    return type(other) is type(self) and all(
        getattr(self, name) == getattr(other, name) for name in self.__slots__
    )


# -- subspaces ----------------------------------------------------------------


class Subspace(Frozen):
    """Subspace of Q(i)^n held as the reduced echelon rows ``linalg.echelon``
    gives, with their pivot columns.

    Equality of subspaces is literal equality of the stored rows.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[Row, ...], pivots: tuple[int, ...]):
        self._assign(ambient_dim=ambient_dim, rows=rows, pivots=pivots)

    __eq__ = _equal_fields

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Row]) -> "Subspace":
        reduced, pivots = linalg.echelon(vectors)
        return cls(ambient_dim, tuple(reduced), tuple(pivots))

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


class LowerCentralSeries(Frozen):
    """Chain g = g^(1) >= g^(2) >= ... until stabilization.

    ``nu`` is the nilpotency class when the chain reaches zero, else None.
    """

    __slots__ = ("chain", "nu")

    def __init__(self, chain: tuple[Subspace, ...], nu: int | None):
        self._assign(chain=chain, nu=nu)

    __eq__ = _equal_fields

    @property
    def is_nilpotent(self) -> bool:
        return self.nu is not None

    def dims(self) -> list[int]:
        return [s.dim for s in self.chain]


def lower_central_series(algebra: LieAlgebra) -> LowerCentralSeries:
    return restricted_lower_central_series(algebra, Subspace.full(algebra.dim))


def _descend(start: Subspace, step: Callable[[Subspace], Subspace]) -> tuple[list[Subspace], bool]:
    """The chain start >= step(start) >= ... up to its first zero term
    (True) or to where the dimension stops falling (False)."""
    chain = [start]
    while True:
        nxt = step(chain[-1])
        if nxt.dim == chain[-1].dim:
            return chain, False
        chain.append(nxt)
        if nxt.is_zero():
            return chain, True


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    return _descend(Subspace.full(algebra.dim), lambda s: span_of_brackets(algebra, s, s))[0]


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].is_zero()


def restricted_lower_central_series(
    algebra: LieAlgebra, sub: Subspace
) -> LowerCentralSeries:
    """Lower central series of a subalgebra, bracketed inside the ambient."""
    chain, nilpotent = _descend(sub, lambda s: span_of_brackets(algebra, sub, s))
    return LowerCentralSeries(tuple(chain), len(chain) - 1 if nilpotent else None)


# -- gradings --------------------------------------------------------------------


class Grading(Frozen):
    """A grading by layers of basis vectors: ``weights[k]`` is the layer
    of X_k, from 1 to ``depth``, the number of layers."""

    __slots__ = ("weights", "depth")

    def __init__(self, weights: tuple[int, ...], depth: int):
        self._assign(weights=weights, depth=depth)

    __eq__ = _equal_fields

    @classmethod
    def from_layers(cls, layers: Sequence[Subspace]) -> "Grading":
        """The grading whose layer w is ``layers[w - 1]``; each basis vector
        must be a row of exactly one layer, and no other rows."""
        n = layers[0].ambient_dim if layers else 0
        weights: dict[int, int] = {}
        for w, layer in enumerate(layers, start=1):
            for row, pivot in zip(layer.rows, layer.pivots):
                if len(row) == 1:  # the echelon row {pivot: 1}
                    weights[pivot] = w
        if not n or len(weights) != n or sum(layer.dim for layer in layers) != n:
            raise PreconditionError(
                "grading layers must be spanned by input basis vectors to "
                "drive the weight machinery"
            )
        return cls(tuple(weights[k] for k in range(n)), len(layers))


def verify_natural_grading(
    algebra: LieAlgebra, lcs: LowerCentralSeries, grading: Grading
) -> str | None:
    """None if the grading is natural, else a violation message.

    Checks, against the lower central series ``lcs``: the algebra is
    nilpotent of class nu = number of layers, layer i complements g^(i+1)
    inside g^(i), and every [layer_i, layer_j] lands in layer_{i+j} (the
    zero space when i+j exceeds nu): each component of [X_a, X_b] has
    weight w_a + w_b.
    """
    if lcs.nu is None:
        return "algebra is not nilpotent"
    nu = lcs.nu
    if grading.depth != nu:
        raise PreconditionError(
            f"grading has {grading.depth} layers but the nilpotency class is {nu}"
        )
    n, weights = algebra.dim, grading.weights
    for i, (step, nxt) in enumerate(zip(lcs.chain, lcs.chain[1:]), start=1):
        layer = Subspace.from_vectors(n, ({k: ONE} for k in range(n) if weights[k] == i))
        if not step.contains_subspace(layer):
            return f"layer {i} is not contained in term {i} of the series"
        if layer.intersection_dim(nxt) != 0:
            return f"layer {i} meets term {i + 1} of the series nontrivially"
        if layer.dim + nxt.dim != step.dim:
            return f"layer {i} does not complement term {i + 1} (dimension)"
    failing = [
        tuple(sorted((weights[a], weights[b])))
        for a, b, comps in algebra.nonzero_brackets()
        if any(weights[k] != weights[a] + weights[b] for k in comps)
    ]
    if not failing:
        return None
    i, j = min(failing)
    return (
        f"[layer {i}, layer {j}] is not contained in "
        f"layer {i + j}" + ("" if i + j <= nu else " (= 0)")
    )


def infer_grading_basis_aligned(
    algebra: LieAlgebra, lcs: LowerCentralSeries
) -> Grading | None:
    """The level grading: X_k has weight i when it lies in g^(i) but not in
    g^(i+1), the number of terms of ``lcs`` that contain it.

    A candidate only: ``verify_natural_grading`` checks it.  None, or a
    failing candidate, does not prove that no natural grading exists.
    """
    if lcs.nu is None:
        return None
    weights = tuple(
        sum(term.contains({k: ONE}) for term in lcs.chain) for k in range(algebra.dim)
    )
    return Grading(weights, lcs.nu)
