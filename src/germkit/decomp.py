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

The split reads d only through the sparse columns ``Dga.columns`` and
works on sparse rows (``linalg.Row``) from there to the ``Decomposition``;
every elimination is ``linalg.echelon``.  The exact part of degree p is
the row space of the columns of d_(p-1); the complement and the pivot
kernel come from the nonzero rows of d_p.  The metric harmonic part is the
kernel of the Laplacian, which is the common kernel of the rows of d_p and
of the conjugated columns of d_(p-1), since the form is positive definite.
The exact part and the metric harmonic and complement parts are the
canonical rref bases of their spaces.  The coordinates of each e_j in the
harmonic and exact bases come from one elimination of the stacked basis.
delta_p is held as sparse columns, C^p -> C^(p-1), built once: d maps the
complement of degree p - 1 one-to-one onto the exact part of degree p, so
inverting that square map in exact coordinates lifts each exact row,
and column j is the combination of the lifts that the exact coordinates of
e_j give.

The splitting of degree p reads d only on degrees p - 1 and p, so a split
truncated at ``top`` gives the same data in degrees 0..top as the full one.
The germ needs H^1, H^2 and delta on degree 2 (Goldman-Millson), which is
why the germ path splits only up to GERM_TOP.  Reading a germ file back,
mc-check needs only delta on degree 1, so it splits up to READBACK_TOP
and only its grading check reads d in degree 2.  That delta is zero in
every complex: d(1) = 0 and degree 0 of a selection is the unit or empty,
so the exact part of degree 1 is zero and every column of delta_1 is
empty.  mc-check's gauge condition delta(phi) = 0 and the first gauge
identity therefore hold for every input; they stay as checks of the
contract.
"""

from __future__ import annotations

from . import linalg
from .cedga import Dga, Monomial, monomial_weight
from .errors import InternalCheckError, PreconditionError
from .liealg import Grading
from .linalg import Entries, Row, SparseColumns
from .scalars import ONE

Strategy = str  # "metric" | "pivot"
STRATEGIES = ("metric", "pivot")

# Highest degree the germ path splits: the series and its obstructions read
# only H^1, H^2 and delta on degrees 1 and 2.
GERM_TOP = 2
# Highest degree a germ file read back is split to: mc-check reads only the
# gauge condition delta(phi) = 0 on degree 1.
READBACK_TOP = 1


class DegreeSplit:
    """Bases for one degree of the complex, and coordinates in them: rows
    spanning the harmonic representatives, im(d) and the chosen complement
    of ker(d), and for each j the coordinates of e_j in the harmonic and in
    the exact basis."""

    __slots__ = ("harmonic", "exact", "complement", "harmonic_coords", "exact_coords")

    def __init__(
        self, harmonic: list[Row], exact: list[Row], complement: list[Row],
        harmonic_coords: SparseColumns, exact_coords: SparseColumns,
    ):
        self.harmonic, self.exact, self.complement = harmonic, exact, complement
        self.harmonic_coords, self.exact_coords = harmonic_coords, exact_coords


class Decomposition:
    """Splitting of degrees 0..top plus the homotopy operator delta there:
    ``delta[p]`` holds delta: C^p -> C^(p-1) as sparse columns."""

    __slots__ = ("dga", "grading", "splits", "delta")

    def __init__(
        self, dga: Dga, grading: Grading | None,
        splits: list[DegreeSplit], delta: list[SparseColumns],
    ):
        self.dga, self.grading, self.splits, self.delta = dga, grading, splits, delta

    def betti(self) -> list[int]:
        return [len(split.harmonic) for split in self.splits]

    def harmonic_basis(self, p: int) -> list[Row]:
        return self.splits[p].harmonic

    def harmonic_coords(self, p: int) -> SparseColumns:
        return self.splits[p].harmonic_coords

    def delta_cols(self, p: int) -> SparseColumns:
        """The columns of delta_p; none above the top degree."""
        return self.delta[p] if p < len(self.delta) else []


def _conj(vec: Entries) -> Entries:
    return [(i, x.conjugate()) for i, x in vec]


def _nonzero_rows(columns: SparseColumns, nrows: int) -> SparseColumns:
    """The nonzero rows of the matrix held as ``columns``, in row order."""
    rows: SparseColumns = [[] for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, x in column:
            rows[i].append((j, x))
    return [row for row in rows if row]


def split_complex(
    dga: Dga,
    strategy: Strategy = "metric",
    grading: Grading | None = None,
    top: int | None = None,
) -> Decomposition:
    """Split degrees 0..top (every degree when None); see the module docstring.

    A truncated split reads d only up to degree top and builds delta only
    up to degree top.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    dims = dga.dims()
    n = len(dims) - 1
    last = n if top is None else min(top, n)

    if grading is not None:
        check_weight_homogeneous(dga, grading.weights, last)

    splits: list[DegreeSplit] = []
    for p in range(last + 1):
        dim_p = dims[p]
        below = dga.columns[p - 1] if p >= 1 else []
        rows = _nonzero_rows(dga.columns[p], dga.dim_at(p + 1))
        exact = linalg.echelon(below)[0]
        if strategy == "metric":
            # ker(d* d + d d*) = ker(d_p) cut with ker(d_(p-1)*).
            harmonic = linalg.kernel_basis(rows + [_conj(col) for col in below], dim_p)
            complement = linalg.echelon(_conj(row) for row in rows)[0]
        else:
            reduced, pivots = linalg.echelon(rows)
            kernel = linalg.kernel_basis(reduced, dim_p)
            complement = [{c: ONE} for c in pivots]
            harmonic = _extend_basis(exact, kernel)
        if len(harmonic) + len(exact) + len(complement) != dim_p:
            raise InternalCheckError(
                f"three-way splitting of degree {p} does not fill the space"
            )
        splits.append(_assemble_split(harmonic, exact, complement, dim_p))

    dec = Decomposition(dga, grading, splits, _build_delta(dga, splits))
    _verify_decomposition(dec)
    return dec


def _extend_basis(base: list[Row], inside: list[Row]) -> list[Row]:
    """Greedily extend ``base`` to span ``inside`` using rows of ``inside``:
    a row is chosen when it is independent of ``base`` and the rows chosen
    before it."""
    kept: dict[int, Row] = {}
    for row in base:
        linalg.insert(kept, row)
    return [row for row in inside if linalg.insert(kept, row)]


def _assemble_split(
    harmonic: list[Row], exact: list[Row], complement: list[Row], dim: int
) -> DegreeSplit:
    try:
        # Row j: the coordinates of e_j in the stacked basis.
        coords = linalg.coordinates(harmonic + exact + complement, dim)
    except ValueError:
        raise InternalCheckError("splitting pieces are not independent") from None
    b = len(harmonic)
    e = len(exact)
    return DegreeSplit(
        harmonic=harmonic,
        exact=exact,
        complement=complement,
        harmonic_coords=[[(k, x) for k, x in row.items() if k < b] for row in coords],
        exact_coords=[
            [(k - b, x) for k, x in row.items() if b <= k < b + e] for row in coords
        ],
    )


def _build_delta(dga: Dga, splits: list[DegreeSplit]) -> list[SparseColumns]:
    """delta_p for p = 0..top: d maps the complement of degree p - 1
    one-to-one onto the exact part of degree p, so inverting that map
    in exact coordinates lifts each exact row; column j of delta_p is
    sum_k c_kj lift_k, with c_kj the exact coordinates of e_j."""
    delta: list[SparseColumns] = [[[] for _ in dga.columns[0]]]
    for p in range(1, len(splits)):
        comp = [row.items() for row in splits[p - 1].complement]
        coords = splits[p].exact_coords
        d_comp = [
            linalg.apply(coords, linalg.apply(dga.columns[p - 1], row).items())
            for row in comp
        ]
        try:
            lift_coords = linalg.coordinates(d_comp, len(splits[p].exact))
        except ValueError:
            raise InternalCheckError(
                f"exact part of degree {p} is not in the image of d"
            ) from None
        lifts = [list(linalg.apply(comp, row.items()).items()) for row in lift_coords]
        delta.append([sorted(linalg.apply(lifts, c).items()) for c in coords])
    return delta


def check_weight_homogeneous(dga: Dga, weights: tuple[int, ...], last: int) -> None:
    """Raise unless d preserves the basis ``weights`` on degrees 0..last,
    the part a split of degrees <= last reads.

    On a full complex d is the derivation extending its degree-one values,
    so a violation anywhere already shows in degree one; on a selection of
    monomials it may first show in a higher degree.
    """
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


def _vector_weights(dga: Dga, weights: tuple[int, ...], p: int, v: Row) -> set[int]:
    return {monomial_weight(weights, dga.monomials[p][i]) for i in v}


def _verify_decomposition(dec: Decomposition) -> None:
    """Exact checks on every degree the decomposition splits, column by
    column of d and delta."""
    dga = dec.dga
    last = len(dec.splits) - 1
    for p in range(1, last + 1):
        split, delta = dec.splits[p], dec.delta[p]
        exact = [row.items() for row in split.exact]
        # beta(e_j) = sum_k c_kj exact_k, with c_kj the exact coordinates of e_j.
        for column, coords in zip(delta, split.exact_coords):
            if linalg.apply(dga.columns[p - 1], column) != linalg.apply(exact, coords):
                raise InternalCheckError(f"d o delta != beta in degree {p}")
        if p >= 2 and any(linalg.apply(dec.delta[p - 1], column) for column in delta):
            raise InternalCheckError(f"delta o delta != 0 in degree {p}")
        for row in split.harmonic + split.complement:
            if linalg.apply(delta, row.items()):
                raise InternalCheckError(
                    f"delta does not vanish off the exact part in degree {p}"
                )
    # The harmonic rows are independent, so H o d = 0 exactly when the
    # harmonic coordinates of every column of d vanish.
    for p in range(last):
        coords = dec.splits[p + 1].harmonic_coords
        if any(linalg.apply(coords, column) for column in dga.columns[p]):
            raise InternalCheckError(f"H o d != 0 in degree {p}")
    if dec.grading is not None:
        for p, split in enumerate(dec.splits):
            for row in split.harmonic + split.exact + split.complement:
                if len(_vector_weights(dga, dec.grading.weights, p, row)) > 1:
                    raise InternalCheckError(
                        f"splitting basis of degree {p} mixes weights"
                    )


def kernel_containment_check(dec: Decomposition) -> tuple[Row, int] | None:
    """Check that degree-2 cocycles carry weight at most nu + 1.

    The harmonic and exact rows of degree 2 together span the cocycles, and
    the split has verified each row weight-homogeneous, so the weights of
    these rows are the weights the cocycles carry.  ``dec`` must carry a
    grading and reach degree 2 when the complex has one; with none there
    are no cocycles.  Returns None on pass, else a witness (cocycle as a
    sparse row, offending weight).
    """
    if not dec.dga.dim_at(2):
        return None
    nu = dec.grading.depth
    split = dec.splits[2]
    for row in split.harmonic + split.exact:
        (weight,) = _vector_weights(dec.dga, dec.grading.weights, 2, row)
        if weight > nu + 1:
            return dict(row), weight
    return None


def degree2_weight_table(dga: Dga, weights: tuple[int, ...]) -> dict[int, list[Monomial]]:
    """Degree-2 monomials bucketed by weight (for reports and tests)."""
    table: dict[int, list[Monomial]] = {}
    for mono in dga.monomials[2] if dga.dim_at(2) else ():
        table.setdefault(monomial_weight(weights, mono), []).append(mono)
    return dict(sorted(table.items()))
