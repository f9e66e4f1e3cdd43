"""Per-degree splittings of a monomial cochain complex.

Two strategies produce the same shape of data:

* ``metric``: declare the monomial basis orthonormal for the Hermitian form
  <u, v> = sum u_i conj(v_i).  Then the adjoint of d is its conjugate
  transpose, the Laplacian is d d* + d* d, harmonic means ker(Laplacian),
  the exact part is im(d) and the chosen complement of the cocycles is
  im(d*).  Every degree splits as harmonic + exact + complement.

* ``pivot``: a metric-free generic splitting.  The complement of the
  cocycles is spanned by the standard basis vectors sitting on the pivot
  columns of d (lexicographically smallest choice); harmonic representatives
  extend the exact part greedily inside the cocycles.

Both yield the homotopy ``delta = d^{-1} o beta`` (invert d from the chosen
complement onto the exact part, after projecting), the only operator the
deformation recursion consumes.  When a coordinate-aligned grading is
supplied, the differential must preserve weights; the construction then
produces weight-homogeneous bases automatically and verifies that it did.

The splitting of degree p reads d only on degrees p - 1 and p, so a split
truncated at ``top`` gives the same data in degrees 0..top as the full one.
The germ needs H^1, H^2 and delta on degree 2 (Goldman-Millson), which is
why the germ path splits only up to GERM_TOP.  Reading a germ file back,
mc-check needs only delta on degree 1, so it splits up to READBACK_TOP
and only its grading check reads d in degree 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cedga import Dga, Monomial
from .errors import InternalCheckError, PreconditionError
from .liealg import Grading, basis_aligned_weights
from .linalg import Matrix, SparseColumns, Vector
from .scalars import ONE, ZERO

Strategy = str  # "metric" | "pivot"
STRATEGIES = ("metric", "pivot")

# Highest degree the germ path splits: the series and its obstructions read
# only H^1, H^2 and delta on degrees 1 and 2.
GERM_TOP = 2
# Highest degree a germ file read back is split to: mc-check reads only the
# gauge condition delta(phi) = 0 on degree 1.
READBACK_TOP = 1


def _mul(a: Matrix, b: Matrix, nrows: int, inner: int, ncols: int) -> Matrix:
    if nrows == 0 or ncols == 0 or inner == 0:
        return linalg.zeros(nrows, ncols)
    return linalg.mat_mul(a, b)


def monomial_weight(weights: list[int], mono: Monomial) -> int:
    return sum(weights[i] for i in mono)


@dataclass
class DegreeSplit:
    """Bases and projections for one degree of the complex."""

    harmonic: Matrix        # rows spanning the harmonic representatives
    exact: Matrix           # rows spanning im(d)
    complement: Matrix      # rows spanning the chosen complement of ker(d)
    proj_harmonic: Matrix   # dim x dim projection onto the harmonic part
    proj_exact: Matrix      # dim x dim projection onto the exact part
    harmonic_coords: Matrix  # b_p x dim: coordinates in the harmonic basis


class Decomposition:
    """Splitting of degrees 0..top plus the homotopy operator delta there."""

    __slots__ = ("dga", "grading", "weights", "splits", "delta", "_delta_cols")

    def __init__(
        self,
        dga: Dga,
        grading: Grading | None,
        weights: list[int] | None,
        splits: list[DegreeSplit],
        delta: list[Matrix],
    ):
        self.dga = dga
        self.grading = grading
        self.weights = weights
        self.splits = splits
        self.delta = delta
        self._delta_cols: dict[int, SparseColumns] = {}

    def betti(self) -> list[int]:
        return [len(split.harmonic) for split in self.splits]

    def harmonic_basis(self, p: int) -> Matrix:
        return self.splits[p].harmonic

    def harmonic_coords(self, p: int) -> Matrix:
        return self.splits[p].harmonic_coords

    def delta_cols(self, p: int) -> SparseColumns:
        """Sparse columns of delta: C^p -> C^(p-1), converted on the first
        read and shared by every later one; none above the top degree."""
        if p >= len(self.delta):
            return []
        cols = self._delta_cols.get(p)
        if cols is None:
            cols = self._delta_cols[p] = linalg.sparse_columns(
                self.delta[p], self.dga.dim_at(p)
            )
        return cols


def _laplacian(dga: Dga, dstar: list[Matrix], p: int) -> Matrix:
    """d d* + d* d in degree p."""
    dims = dga.dims()
    top = len(dims) - 1
    above = dims[p + 1] if p < top else 0
    below = dims[p - 1] if p >= 1 else 0
    up = _mul(dstar[p + 1] if p < top else [], dga.d[p], dims[p], above, dims[p])
    down = _mul(dga.d[p - 1] if p >= 1 else [], dstar[p], dims[p], below, dims[p])
    return linalg.mat_add(up, down)


def split_complex(
    dga: Dga,
    strategy: Strategy = "metric",
    grading: Grading | None = None,
    top: int | None = None,
) -> Decomposition:
    """Split degrees 0..top (every degree when None); see the module docstring.

    A truncated split forms d* only up to degree top + 1 and delta only up
    to degree top.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    dims = dga.dims()
    n = len(dims) - 1
    last = n if top is None else min(top, n)

    weights = None if grading is None else graded_weights(dga, grading, last)

    dstar: list[Matrix] | None = None
    if strategy == "metric":
        dstar = [linalg.zeros(0, dims[0])]
        for p in range(1, min(last + 1, n) + 1):
            dstar.append(linalg.conj_transpose(dga.d[p - 1], dims[p - 1]))

    splits: list[DegreeSplit] = []
    for p in range(last + 1):
        dim_p = dims[p]
        exact = (
            linalg.image_basis(dga.d[p - 1], dims[p - 1]) if p >= 1 else []
        )
        if strategy == "metric":
            assert dstar is not None
            harmonic = linalg.kernel_basis(_laplacian(dga, dstar, p), dim_p)
            complement = (
                linalg.image_basis(dstar[p + 1], dims[p + 1]) if p + 1 <= n else []
            )
        else:
            kernel = linalg.kernel_basis(dga.d[p], dim_p)
            _, pivots = linalg.rref(dga.d[p], dim_p)
            complement = []
            for c in pivots:
                e = [ZERO] * dim_p
                e[c] = ONE
                complement.append(e)
            harmonic = _extend_basis(exact, kernel, dim_p)
        if len(harmonic) + len(exact) + len(complement) != dim_p:
            raise InternalCheckError(
                f"three-way splitting of degree {p} does not fill the space"
            )
        splits.append(_assemble_split(harmonic, exact, complement, dim_p))

    delta = _build_delta(dga, splits, dims)
    dec = Decomposition(dga, grading, weights, splits, delta)
    _verify_decomposition(dec, dims)
    return dec


def _extend_basis(base: Matrix, inside: Matrix, dim: int) -> Matrix:
    """Greedily extend ``base`` to span ``inside`` using rows of ``inside``."""
    rows = [list(r) for r in base]
    reduced, pivots = linalg.rref(rows, dim)
    chosen = []
    for row in inside:
        if linalg.in_row_space(reduced, pivots, row):
            continue
        chosen.append(list(row))
        reduced, pivots = linalg.rref(reduced + [list(row)], dim)
    return chosen


def _assemble_split(
    harmonic: Matrix, exact: Matrix, complement: Matrix, dim: int
) -> DegreeSplit:
    stacked = [list(r) for r in harmonic + exact + complement]
    basis_cols = linalg.transpose(stacked, dim)  # columns are basis vectors
    try:
        inv = linalg.inverse(basis_cols)
    except ValueError:
        raise InternalCheckError("splitting pieces are not independent") from None
    b = len(harmonic)
    e = len(exact)
    coords_h = inv[:b]
    coords_e = inv[b : b + e]
    cols_h = linalg.transpose([list(r) for r in harmonic], dim)
    cols_e = linalg.transpose([list(r) for r in exact], dim)
    proj_h = _mul(cols_h, coords_h, dim, b, dim)
    proj_e = _mul(cols_e, coords_e, dim, e, dim)
    return DegreeSplit(
        harmonic=[list(r) for r in harmonic],
        exact=[list(r) for r in exact],
        complement=[list(r) for r in complement],
        proj_harmonic=proj_h,
        proj_exact=proj_e,
        harmonic_coords=coords_h,
    )


def _build_delta(
    dga: Dga, splits: list[DegreeSplit], dims: list[int]
) -> list[Matrix]:
    delta: list[Matrix] = [linalg.zeros(0, dims[0])]
    for p in range(1, len(splits)):
        comp = splits[p - 1].complement
        if not comp or dims[p] == 0:
            delta.append(linalg.zeros(dims[p - 1], dims[p]))
            continue
        comp_cols = linalg.transpose([list(r) for r in comp], dims[p - 1])
        d_comp = _mul(dga.d[p - 1], comp_cols, dims[p], dims[p - 1], len(comp))
        beta = splits[p].proj_exact
        rhs = [[beta[i][j] for i in range(dims[p])] for j in range(dims[p])]
        ys = linalg.solve_many(d_comp, rhs, len(comp))
        if ys is None:
            raise InternalCheckError(
                f"exact part of degree {p} is not in the image of d"
            )
        y_cols = linalg.transpose(ys, len(comp))  # len(comp) x dim_p
        delta.append(_mul(comp_cols, y_cols, dims[p - 1], len(comp), dims[p]))
    return delta


def graded_weights(dga: Dga, grading: Grading, last: int) -> list[int]:
    """The basis weights of ``grading``, after checking that d preserves
    them on degrees 0..last, the part a split of degrees <= last reads.

    On a full complex d is the derivation extending its degree-one values,
    so a violation anywhere already shows in degree one; on a selection of
    monomials it may first show in a higher degree.
    """
    weights = basis_aligned_weights(grading)
    for p in range(min(last + 1, len(dga.columns) - 1)):
        for mono, column in zip(dga.monomials[p], dga.columns[p]):
            w = monomial_weight(weights, mono)
            for row, _ in column:
                target = dga.monomials[p + 1][row]
                tw = monomial_weight(weights, target)
                if tw != w:
                    raise PreconditionError(
                        "differential is not weight-homogeneous: "
                        f"d({dga.monomial_label(mono)}) of weight {w} has a "
                        f"component on {dga.monomial_label(target)} of "
                        f"weight {tw}; the grading does not send each "
                        "dual layer into the matching degree-2 weight space"
                    )
    return weights


def _vector_weights(dga: Dga, weights: list[int], p: int, v: Vector) -> set[int]:
    return {
        monomial_weight(weights, dga.monomials[p][i]) for i, c in enumerate(v) if c
    }


def _verify_decomposition(dec: Decomposition, dims: list[int]) -> None:
    """Exact checks on every degree the decomposition splits."""
    dga = dec.dga
    last = len(dec.splits) - 1
    for p in range(1, last + 1):
        d_delta = _mul(dga.d[p - 1], dec.delta[p], dims[p], dims[p - 1], dims[p])
        if not linalg.mat_eq(d_delta, dec.splits[p].proj_exact):
            raise InternalCheckError(f"d o delta != beta in degree {p}")
        if p >= 2:
            dd = _mul(
                dec.delta[p - 1], dec.delta[p], dims[p - 2], dims[p - 1], dims[p]
            )
            if not linalg.is_zero_matrix(dd):
                raise InternalCheckError(f"delta o delta != 0 in degree {p}")
        for row in dec.splits[p].harmonic + dec.splits[p].complement:
            if any(linalg.mat_vec(dec.delta[p], list(row))):
                raise InternalCheckError(
                    f"delta does not vanish off the exact part in degree {p}"
                )
    for p in range(last):
        hd = _mul(
            dec.splits[p + 1].proj_harmonic,
            dga.d[p],
            dims[p + 1],
            dims[p + 1],
            dims[p],
        )
        if not linalg.is_zero_matrix(hd):
            raise InternalCheckError(f"H o d != 0 in degree {p}")
    if dec.weights is not None:
        for p, split in enumerate(dec.splits):
            for row in split.harmonic + split.exact + split.complement:
                if len(_vector_weights(dga, dec.weights, p, list(row))) > 1:
                    raise InternalCheckError(
                        f"splitting basis of degree {p} mixes weights"
                    )


def kernel_containment_check(dec: Decomposition) -> tuple[Vector, int] | None:
    """Check that degree-2 cocycles carry weight at most nu + 1.

    The harmonic and exact rows of degree 2 together span the cocycles, and
    the split has verified each row weight-homogeneous, so the weights of
    these rows are the weights the cocycles carry.  ``dec`` must carry a
    grading and reach degree 2 when the complex has one; with none there
    are no cocycles.  Returns None on pass, else a witness (cocycle,
    offending weight).
    """
    if not dec.dga.dim_at(2):
        return None
    nu = dec.grading.depth
    split = dec.splits[2]
    for row in split.harmonic + split.exact:
        (weight,) = _vector_weights(dec.dga, dec.weights, 2, row)
        if weight > nu + 1:
            return list(row), weight
    return None


def degree2_weight_table(dga: Dga, weights: list[int]) -> dict[int, list[Monomial]]:
    """Degree-2 monomials bucketed by weight (for reports and tests)."""
    table: dict[int, list[Monomial]] = {}
    for mono in dga.monomials[2] if dga.dim_at(2) else ():
        table.setdefault(monomial_weight(weights, mono), []).append(mono)
    return dict(sorted(table.items()))
