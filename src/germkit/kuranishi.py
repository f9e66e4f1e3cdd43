"""Deformation functor machinery on a tensor DGLA.

Given a monomial complex C* and a coefficient Lie algebra a, the graded
space L^p = C^p tensor a carries the bracket

    [alpha (x) u, beta (x) v] = (alpha wedge beta) (x) [u, v]

and the differential d (x) id.  Degree-one elements w are flat exactly when
the Maurer-Cartan equation d w + (1/2)[w, w] = 0 holds.

With a splitting of C* fixed, the deformation series in the parameters
t = (t_1 .. t_m), m = dim H^1(C*) * dim a, is built degree by degree:

    phi_1 = sum t_i zeta_i            (zeta: basis of harmonic L^1)
    phi_r = -(1/2) sum_{s=1}^{r-1} delta [phi_s, phi_{r-s}]

The obstruction system is the harmonic projection of [phi, phi] written in
coordinates of (harmonic 2-forms) tensor a: finitely many polynomials with
no constant or linear part whose zero set presents the flat germ at the
origin on the harmonic slice.

Every degree-one bracket goes through one integer kernel, pack, sum and
reduce, on one layout, ``IntMaps``: a (real part, imaginary part) pair of
index-major maps {L^p index: {packed exponent: numerator}}, with one
denominator held beside it.  *Pack* (``_int_slice``) brings a slice's
numerators over one denominator and packs each exponent vector into an
int (one ``struct`` field a variable), so one add multiplies two monomials.
*Sum* (``_sum_pairs``) adds factor * [a, b] over a list of packed pairs
into one such pair over one shared denominator, monomial by monomial; a
pair with one packed map on both sides is a square, each unordered index
pair formed once and doubled, as the bracket is symmetric on L^1.
*Reduce* (``_reduce``) builds one Scalar per nonzero entry (``_entries``).
``bracket_slices`` is the three in a row, packing a slice on both sides
of a pair once; ``TensorDgla.bracket11`` is a one-pair call on a single
term each, so [w, w] in ``mc_residual`` and the embedding check is a
square.  Between sum and reduce, ``_apply_columns`` applies (matrix
tensor id) to the integer maps, with the matrix converted once per stage
to Gaussian-integer numerators over one denominator (``_int_columns``).

Outside that kernel, elements are sparse Scalar vectors (``linalg.Row``);
(matrix tensor id) in ``apply_matrix`` and the Maurer-Cartan residual are
one ``linalg.apply`` call each, and ``PolyCochain.eval`` sums on integers
(``multipoly.evaluate``).  The split that supplies delta and the harmonic
forms eliminates only through ``linalg.echelon`` and builds no dense matrix.

So the series and the gauge check stay on integers from the bracket to
their result.  The series sums each [phi, phi]_r once, s = r/2 as a
square, and reads it twice: its harmonic coordinates are reduced index by
index into the obstruction terms, and while r <= cap, -(1/2) delta_2 of it
is reduced into phi_r, which is packed once, when it is produced; each
monomial is unpacked once for both and its degree checked to be r.  The
gauge check brackets every ordered pair afresh, squaring none, applies
delta_1 and (1/2) delta_2 on integers and compares with the packed phi_r
by cross-multiplying denominators, building no Scalar.

Each of those sums writes only the 2-monomials that its consumer's linear
map reads.  (matrix tensor id) sends every entry on a 2-monomial whose
column is empty to zero, so ``TensorDgla.wedge_onto`` drops each product
of degree-one monomials that lands on a 2-monomial with an empty column in
every map it is given: the series keeps the 2-monomials that delta_2 or the
harmonic coordinates read, and the gauge check those that delta_2 reads.
A dropped entry would only have met empty columns, so phi, the obstruction
polynomials and the gauge comparison are the same integers.
``bracket_slices``, and with it ``bracket11``, ``mc_residual`` and the
embedding check, return every coordinate and keep the full table.

Termination bookkeeping: if phi_j = 0 for rho < j <= 2*rho then every later
degree vanishes too (each bracket pair has a factor of degree > rho), so the
series is certified finite as soon as the trailing window of zeros reaches
the last nonzero degree.  [phi, phi] is projected up to that degree 2*rho
even when it lies past the cap; a series that reaches the cap first is
flagged truncated, and its system is only valid modulo higher degree.

The inclusion of a sub-DGA commutes with the residual everywhere exactly
when d w and [w, w] agree as polynomials at the generic degree-one element
w = sum_k t_k e_k of the sub-DGA: ``linear_embedding_check`` compares N
columns of d and one ``bracket_slices`` call on each side, which is
equivalent to comparing the residuals at the N(N+1)/2 points e_k and
e_k + e_l, since the residual is quadratic and [e_k, e_k] = 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import lcm
from struct import Struct, calcsize
from sys import byteorder

from . import linalg
from .cedga import Dga, wedge_monomials
from .decomp import Decomposition
from .errors import InternalCheckError, PreconditionError
from .liealg import Frozen, LieAlgebra
from .linalg import Row, SparseColumns
from .multipoly import ExponentVector, MultiPoly, PointPowers, evaluate
from .scalars import ONE, Scalar, from_ints

# For each pair of degree-one monomials, (wedge sign, 2-monomial index) of
# their product, or None where it vanishes (or is left out).
WedgeTable = list[list[tuple[int, int] | None]]

HALF = Scalar(Fraction(1, 2))


class TensorDgla:
    """L^p = C^p tensor a with flat indexing (monomial, basis) -> int."""

    __slots__ = ("dga", "target", "_wedge11", "_int_bracket")

    def __init__(self, dga: Dga, target: LieAlgebra):
        self.dga = dga
        self.target = target
        ones = dga.monomials[1]
        # Every product of two degree-one monomials, for the kernel calls
        # that need every coordinate; ``wedge_onto`` prunes it.
        self._wedge11: WedgeTable = [
            [
                None if merged is None else (merged[0], dga.index(merged[1]))
                for merged in (wedge_monomials(left, right) for right in ones)
            ]
            for left in ones
        ]
        # The bracket table for the kernel, column s * dim a + t listing the
        # (k, numerator) of [x_s, x_t].
        self._int_bracket = _int_columns(target.structure_columns())

    # -- indexing -----------------------------------------------------------

    def dim(self, p: int) -> int:
        return self.dga.dim_at(p) * self.target.dim

    def flat(self, mono_idx: int, a_idx: int) -> int:
        return mono_idx * self.target.dim + a_idx

    def basis_label(self, p: int, idx: int) -> str:
        mono, a = divmod(idx, self.target.dim)
        return (
            f"{self.dga.monomial_label(self.dga.monomials[p][mono])}"
            f"⊗{self.target.labels[a]}"
        )

    def element_str(self, p: int, v: Row) -> str:
        parts = [
            f"({c})*{self.basis_label(p, i)}" for i, c in sorted(v.items())
        ]
        return " + ".join(parts) if parts else "0"

    def wedge_onto(self, *columns: SparseColumns) -> WedgeTable:
        """The wedge table with None at every product whose 2-monomial has
        an empty column in each of ``columns``: the bracket entries there
        meet only empty columns in every one of those linear maps."""
        read = {
            mono for cols in columns for mono, col in enumerate(cols) if col
        }
        return [
            [w if w is not None and w[1] in read else None for w in row]
            for row in self._wedge11
        ]

    # -- operations -----------------------------------------------------------

    def bracket11(self, u: Row, v: Row) -> Row:
        """[u, v] for degree-one u, v: ``bracket_slices`` on one term each."""
        a = {(): u}
        return bracket_slices(self, [(1, a, a if v is u else {(): v})]).get((), {})

    def apply_matrix(self, matrix_cols: SparseColumns, u: Row) -> Row:
        """Apply (matrix tensor id) given sparse columns of the matrix."""
        return linalg.apply(matrix_cols, u.items(), stride=self.target.dim)


def mc_residual(tdgla: TensorDgla, omega: Row) -> Row:
    """d(omega) + (1/2)[omega, omega] for a degree-one element."""
    out = tdgla.apply_matrix(tdgla.dga.columns[1], omega)
    square = tdgla.bracket11(omega, omega)
    return linalg.apply([square.items()], [(0, HALF)], out)


# -- polynomial cochains ------------------------------------------------------


Slice = dict[ExponentVector, Row]


class PolyCochain:
    """L^1-valued polynomial in the deformation parameters.

    ``slices[r]`` is the homogeneous part of total degree r, mapping
    exponent vectors to sparse L^1 vectors.
    """

    __slots__ = ("variables", "slices")

    def __init__(self, variables: tuple[str, ...], slices: dict[int, Slice]):
        self.variables, self.slices = variables, slices

    def eval(self, at: PointPowers) -> Row:
        """Exact substitution at a prepared point, shared with the
        obstruction polynomials (``multipoly.evaluate``)."""
        terms = [(e, vec.items()) for part in self.slices.values() for e, vec in part.items()]
        return evaluate(at, len(self.variables), terms)


# Integer maps: a (real part, imaginary part) pair, each part mapping an
# L^p index to its numerators by packed exponent, over a denominator held
# beside the pair.
IntMaps = tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]
# A matrix for (matrix tensor id): ([(real part, 0), (imaginary part, 1)], D),
# a part listing for each column its (row, numerator) pairs.
IntColumns = tuple[list[tuple[list[list[tuple[int, int]]], int]], int]

# A part of integer maps grouped by monomial, in first-seen order:
# [(L^1 monomial, [(target index, numerators by packed exponent)])].
Grouped = list[tuple[int, list[tuple[int, dict[int, int]]]]]

NO_TERMS: tuple[IntMaps, int] = (({}, {}), 1)
Entry = tuple[int, int, ExponentVector, int, int]  # as ``_entries`` yields it


def _field_code(degree: int) -> str:
    """The smallest unsigned struct code whose fields hold ``degree``, hence
    every exponent of a monomial of total degree <= ``degree``."""
    bits = degree.bit_length()
    return next(c for c in "BHIQ" if bits <= 8 * calcsize(c))


def _int_columns(
    cols: Sequence[Iterable[tuple[int, Scalar]]], scale: Fraction = Fraction(1)
) -> IntColumns:
    """Sparse columns times ``scale`` as Gaussian-integer numerators over
    one denominator; a part is left out when it is zero throughout."""
    den = lcm(*(c._d for col in cols for _, c in col))
    num = scale.numerator
    parts = (
        [[(i, c._a * num * (den // c._d)) for i, c in col if c._a] for col in cols],
        [[(i, c._b * num * (den // c._d)) for i, c in col if c._b] for col in cols],
    )
    return (
        [(part, turns) for turns, part in enumerate(parts) if any(part)],
        den * scale.denominator,
    )


def _int_slice(terms: Slice, fmt: Struct) -> tuple[IntMaps, int]:
    """Pack: a slice as integer maps over one denominator D.

    An exponent vector is packed as the bytes of ``fmt``, one field a
    variable, so one int add multiplies two monomials.
    """
    den = lcm(*(c._d for vec in terms.values() for c in vec.values()))
    maps: IntMaps = ({}, {})
    re, im = maps
    for exps, vec in terms.items():
        packed = int.from_bytes(fmt.pack(*exps), byteorder)
        for i, c in vec.items():
            scale = den // c._d
            if c._a:
                re.setdefault(i, {})[packed] = c._a * scale
            if c._b:
                im.setdefault(i, {})[packed] = c._b * scale
    return maps, den


def _accumulate(
    acc: dict[int, dict[int, int]],
    sign: int,
    left: Grouped,
    right: Grouped | None,
    consts: list[list[tuple[int, int]]],
    wedge: WedgeTable,
    ta: int,
) -> None:
    """Add sign * [left, right] to the part ``acc``, with ``consts`` as the
    bracket table; with ``right`` None, each unordered pair of ``left``'s
    monomials once, the first-seen on the left (alpha wedge alpha = 0).

    The wedge sign and target are resolved once per monomial pair, the
    structure constants once per index pair, and an output index's map once
    per index pair and constant; each term pair costs one int add, one
    multiply and one dict update.
    """
    for n, (mu, us) in enumerate(left):
        wrow = wedge[mu]
        for mv, vs in left[n + 1 :] if right is None else right:
            merged = wrow[mv]
            if merged is None:
                continue
            wsign, target = merged
            base = target * ta
            factor = sign * wsign
            for au, terms_u in us:
                cbase = au * ta
                for av, terms_v in vs:
                    for k, x in consts[cbase + av]:
                        out = acc.get(base + k)
                        if out is None:
                            out = acc[base + k] = {}
                        get = out.get
                        x *= factor
                        for ea, xa in terms_u.items():
                            xa *= x
                            for eb, xb in terms_v.items():
                                key = ea + eb
                                out[key] = get(key, 0) + xa * xb


def _sum_pairs(
    tdgla: TensorDgla,
    wedge: WedgeTable,
    pairs: list[tuple[int, tuple[IntMaps, int], tuple[IntMaps, int]]],
    squares: bool = True,
) -> tuple[IntMaps, int]:
    """Sum: factor * [a, b] over the (int factor, packed a, packed b) in
    ``pairs``, as integer maps over one denominator, on the 2-monomials
    that the wedge table ``wedge`` keeps (``TensorDgla.wedge_onto``).

    Each pair's numerators are brought onto one denominator L * Dc, with L
    the lcm of Da * Db over the pairs, by scaling that pair's sign by
    L / (Da * Db).  Q(i) data splits into real and imaginary numerators,
    combined by bilinearity (each factor of i turns the product a quarter:
    re, im, -re, -im); an empty part, as every imaginary part of rational
    data is, adds nothing.  With ``squares``, a pair with one packed map on
    both sides is a square: [a, a] is symmetric, so ``_accumulate`` takes
    each unordered index pair of a part once, [re, im] stands for [im, re]
    too, and all count twice.
    """
    den = lcm(*(da * db for _, (_, da), (_, db) in pairs))
    parts_c, dc = tdgla._int_bracket
    ta = tdgla.target.dim
    acc: IntMaps = ({}, {})
    # Each part grouped by monomial once, however many pairs it is in.
    grouped: dict[int, Grouped] = {}
    for _, (maps_a, _), (maps_b, _) in pairs:
        for part in (*maps_a, *maps_b):
            if id(part) not in grouped:
                groups: dict[int, list[tuple[int, dict[int, int]]]] = {}
                for index, terms in part.items():
                    groups.setdefault(index // ta, []).append((index % ta, terms))
                grouped[id(part)] = list(groups.items())
    for factor, (maps_a, da), (maps_b, db) in pairs:
        square = squares and maps_a is maps_b
        factor *= (2 if square else 1) * den // (da * db)
        for ia, left in enumerate(maps_a):
            for ib, right in enumerate(maps_b):
                if not (left and right) or square and ib < ia:
                    continue
                lefts = grouped[id(left)]
                rights = None if square and ia == ib else grouped[id(right)]
                for consts, ic in parts_c:
                    turns = ia + ib + ic
                    sign = -factor if turns & 2 else factor
                    _accumulate(acc[turns & 1], sign, lefts, rights, consts, wedge, ta)
    return acc, den * dc


def _apply_columns(columns: IntColumns, maps: IntMaps, ta: int) -> IntMaps:
    """(matrix tensor id) on integer maps, by bilinearity over the real and
    imaginary parts as in ``_sum_pairs``.  The result's denominator is the
    input's times the columns'; an index (monomial, a) goes to (row, a).

    Each index's column is read once per part; an empty one skips all of
    that index's terms at once.
    """
    out: IntMaps = ({}, {})
    for ix, source in enumerate(maps):
        for cols, ic in columns[0]:
            turns = ix + ic
            sign = -1 if turns & 2 else 1
            acc = out[turns & 1]
            for index, terms in source.items():
                mono, a = divmod(index, ta)
                for i, c in cols[mono]:
                    target = acc.get(i * ta + a)
                    if target is None:
                        target = acc[i * ta + a] = {}
                    get = target.get
                    c *= sign
                    for e, x in terms.items():
                        target[e] = get(e, 0) + x * c
    return out


def _entries(
    maps: IntMaps, fmt: Struct, seen: dict, degree: int | None = None
) -> Iterator[Entry]:
    """(index, packed exponent, exponents, real and imaginary numerator) of
    each nonzero entry of integer maps, index by index; each exponent is
    unpacked by ``fmt`` once, into ``seen``, its total checked if ``degree``."""
    re, im = maps
    for index in re.keys() | im.keys():
        real, imag = re.get(index, {}), im.get(index, {})
        for packed in real.keys() | imag.keys():
            x, y = real.get(packed, 0), imag.get(packed, 0)
            if x or y:
                exps = seen.get(packed)
                if exps is None:
                    exps = seen[packed] = fmt.unpack(packed.to_bytes(fmt.size, byteorder))
                    if degree is not None and (d := sum(exps)) != degree:
                        raise InternalCheckError(f"[phi, phi]_{degree} has a degree-{d} term")
                yield index, packed, exps, x, y


def _reduce(entries: Iterable[Entry], den: int) -> Slice:
    """Reduce: ``_entries`` over ``den`` as a slice, one Scalar each."""
    out: Slice = {}
    # Output vectors by packed exponent, so each exponent is hashed once.
    rows: dict[int, Row] = {}
    for index, packed, exps, x, y in entries:
        vec = rows.get(packed)
        if vec is None:
            vec = rows[packed] = out[exps] = {}
        vec[index] = from_ints(x, y, den)
    return out


def bracket_slices(tdgla: TensorDgla, pairs: list[tuple[int, Slice, Slice]]) -> Slice:
    """Sum of factor * [a, b] over the (factor, a, b) in ``pairs``: int
    factors, homogeneous degree-one slices in one set of variables.

    Pack, sum and reduce in a row, with the smallest field type that holds
    the output's total degree.  Each slice is packed once, so one on both
    sides of a pair makes it a square.
    """
    pairs = [(f, a, b) for f, a, b in pairs if f and a and b]
    if not pairs:
        return {}
    code = _field_code(max(max(map(sum, a)) + max(map(sum, b)) for _, a, b in pairs))
    fmt = Struct(f"{len(next(iter(pairs[0][1])))}{code}")
    packs = {id(s): _int_slice(s, fmt) for _, a, b in pairs for s in (a, b)}
    packed = [(f, packs[id(a)], packs[id(b)]) for f, a, b in pairs]
    maps, den = _sum_pairs(tdgla, tdgla._wedge11, packed)
    return _reduce(_entries(maps, fmt, {}), den)


# -- the deformation series ----------------------------------------------------


class KuranishiSeries:
    """The solved series with its context and termination certificate.
    ``zeta_info`` holds (harmonic 1-form index, target index) per variable;
    ``obstruction_terms`` and ``obstruction_degrees`` are the harmonic
    coordinates of [phi, phi]: for each obstruction coordinate h * dim a + a,
    its terms by exponent vector and its degrees, ascending."""

    __slots__ = (
        "tdgla", "decomposition", "variables", "zeta_info", "slices", "cap", "terminated",
        "last_nonzero", "obstruction_terms", "obstruction_degrees",
    )

    def __init__(
        self, tdgla: TensorDgla, decomposition: Decomposition, variables: tuple[str, ...],
        zeta_info: list[tuple[int, int]], slices: dict[int, Slice], cap: int,
        terminated: bool, last_nonzero: int,
        obstruction_terms: list[dict[ExponentVector, Scalar]],
        obstruction_degrees: list[list[int]],
    ):
        self.tdgla, self.decomposition, self.variables = tdgla, decomposition, variables
        self.zeta_info, self.slices, self.cap = zeta_info, slices, cap
        self.terminated, self.last_nonzero = terminated, last_nonzero
        self.obstruction_terms, self.obstruction_degrees = obstruction_terms, obstruction_degrees


def _square(
    tdgla: TensorDgla, wedge: WedgeTable, packed: dict[int, tuple[IntMaps, int]], r: int
) -> tuple[IntMaps, int]:
    """[phi, phi]_r as integer sums over the unordered pairs s + t = r (the
    bracket of degree-one elements is symmetric, so s != t counts twice and
    s = t is a square), on the 2-monomials that ``wedge`` keeps."""
    return _sum_pairs(
        tdgla,
        wedge,
        [
            (1 if 2 * s == r else 2, packed.get(s, NO_TERMS), packed.get(r - s, NO_TERMS))
            for s in range(1, r // 2 + 1)
        ],
    )


def kuranishi_series(
    dec: Decomposition, tdgla: TensorDgla, cap: int | None = None
) -> KuranishiSeries:
    """Solve the recursion in ``tdgla``, C*(dec.dga) tensor the target, up
    to ``cap`` (default 2*nu, or 2*dim ungraded) and project [phi, phi]
    onto the harmonic 2-forms up to twice the last nonzero degree."""
    if cap is None:
        if dec.grading is not None:
            cap = 2 * dec.grading.depth
        else:
            cap = 2 * dec.dga.algebra.dim
    if cap < 2:
        raise PreconditionError("series cap must be at least 2")
    # Packed exponents reach degree 2 * rho <= 2 * cap, in fields of at most
    # 64 bits.
    if cap >= 1 << 63:
        raise PreconditionError(f"series cap must be below 2^63 = {1 << 63}")

    harm1 = dec.harmonic_basis(1)
    ta = tdgla.target.dim
    zeta: list[Row] = []
    zeta_info: list[tuple[int, int]] = []
    for h, row in enumerate(harm1):
        for a in range(ta):
            vec = {tdgla.flat(i, a): c for i, c in row.items()}
            zeta.append(vec)
            zeta_info.append((h, a))
    m = len(zeta)
    variables = tuple(f"t{i + 1}" for i in range(m))

    fmt = Struct(f"{m}{_field_code(2 * cap)}")
    slices: dict[int, Slice] = {}
    # Each phi_r packed once, when it is produced.
    packed: dict[int, tuple[IntMaps, int]] = {}
    zeros = (0,) * m  # each degree-one exponent vector is cut from it
    phi1: Slice = {zeros[:i] + (1,) + zeros[i + 1 :]: dict(z) for i, z in enumerate(zeta) if z}
    if phi1:
        slices[1] = phi1
        packed[1] = _int_slice(phi1, fmt)

    # Each [phi, phi]_r is summed once, onto the 2-monomials that delta_2 or
    # the harmonic coordinates read.  Its harmonic coordinates are the
    # obstruction terms of degree r: (harmonic_coords(2) tensor id) sends a
    # degree-2 vector straight to the coordinates h * ta + a (none when the
    # split stops below degree 2), reduced index by index into them.  While
    # r <= cap, -(1/2) delta_2 of it is phi_r, with -1/2 folded in.
    coords = dec.harmonic_coords(2) if len(dec.splits) > 2 else []
    coord_cols = _int_columns(coords)
    delta2 = _int_columns(dec.delta_cols(2), Fraction(-1, 2))
    wedge = tdgla.wedge_onto(dec.delta_cols(2), coords)
    b2 = dec.betti()[2] if coords else 0
    obstruction_terms: list[dict[ExponentVector, Scalar]] = [{} for _ in range(b2 * ta)]
    obstruction_degrees: list[list[int]] = [[] for _ in obstruction_terms]

    # The loop stops at r = 2 * rho; the series terminates if that is within
    # the cap.  An empty series has no degree to bracket.
    rho, r = 1, 2
    while m and r <= 2 * rho:
        sums, den = _square(tdgla, wedge, packed, r)
        seen: dict[int, ExponentVector] = {}
        scale = den * coord_cols[1]
        sizes = [*map(len, obstruction_terms)]
        for k, _, exps, x, y in _entries(_apply_columns(coord_cols, sums, ta), fmt, seen, r):
            obstruction_terms[k][exps] = from_ints(x, y, scale)
        for terms, size, degrees in zip(obstruction_terms, sizes, obstruction_degrees):
            if len(terms) > size:
                degrees.append(r)
        if r <= cap:
            phi_r = _reduce(
                _entries(_apply_columns(delta2, sums, ta), fmt, seen, r), den * delta2[1]
            )
            if phi_r:
                slices[r] = phi_r
                packed[r] = _int_slice(phi_r, fmt)
                rho = r
        r += 1

    return KuranishiSeries(
        tdgla=tdgla,
        decomposition=dec,
        variables=variables,
        zeta_info=zeta_info,
        slices=slices,
        cap=cap,
        terminated=2 * rho <= cap,
        last_nonzero=rho if m else 0,
        obstruction_terms=obstruction_terms,
        obstruction_degrees=obstruction_degrees,
    )


# -- obstruction systems ---------------------------------------------------------


class ObstructionSystem(Frozen):
    """Polynomials presenting the flat germ on the harmonic slice, with the
    degrees of each one's homogeneous components, ascending, as the series
    recorded them."""

    __slots__ = (
        "variables", "coordinates", "polynomials", "nu", "cap", "terminated", "degrees",
        "max_degree", "is_smooth",
    )

    def __init__(
        self, variables: tuple[str, ...], coordinates: tuple[str, ...],
        polynomials: tuple[MultiPoly, ...], nu: int | None, cap: int, terminated: bool,
        degrees: list[list[int]],
    ):
        self._assign(
            variables=variables, coordinates=coordinates, polynomials=polynomials, nu=nu,
            cap=cap, terminated=terminated, degrees=degrees,
            max_degree=max((d[-1] for d in degrees if d), default=0),
            is_smooth=not any(polynomials),
        )

    @property
    def valid_modulo(self) -> int | None:
        """Degree beyond which the system is unreliable, None if exact."""
        return None if self.terminated else self.cap + 1


def obstruction_system(series: KuranishiSeries) -> ObstructionSystem:
    """The series' harmonic coordinates of [phi, phi] as exact polynomials,
    labelled by harmonic 2-form and target basis vector."""
    dec = series.decomposition
    target = series.tdgla.target
    labels = tuple(
        f"h2[{k // target.dim}]⊗{target.labels[k % target.dim]}"
        for k in range(len(series.obstruction_terms))
    )
    polynomials = tuple(
        MultiPoly(series.variables, terms) for terms in series.obstruction_terms
    )
    nu = dec.grading.depth if dec.grading is not None else None
    return ObstructionSystem(
        variables=series.variables,
        coordinates=labels,
        polynomials=polynomials,
        nu=nu,
        cap=series.cap,
        terminated=series.terminated,
        degrees=series.obstruction_degrees,
    )


def verify_degree_bound(system: ObstructionSystem, nu: int) -> MultiPoly | None:
    """None when every polynomial has total degree <= nu + 1, else a witness."""
    if system.max_degree <= nu + 1:
        return None
    return next(p for p in system.polynomials if p.total_degree() > nu + 1)


def gauge_identity_check(series: KuranishiSeries) -> str | None:
    """Verify the two exact polynomial identities of a terminated series.

    First, delta kills the whole series coefficientwise.  Second, the
    series inverts the normal-form map:  phi + (1/2) delta [phi, phi]
    equals the linear part phi_1, that is phi_r + (1/2) delta [phi, phi]_r
    = 0 for every r >= 2.  [phi, phi] is bracketed afresh here from the
    series' phi slices alone, over every ordered pair s + t = r, onto the
    2-monomials that delta_2 reads; the series' own unordered sums are not
    reused.  No pair is a square: [phi_s, phi_s] reads every ordered index
    pair, so a wedge entry wrong in one orientation fails the check, even
    one that the series' squares never read.  Both identities are checked
    on the kernel's integer maps; no Scalar is built.
    """
    if not series.terminated:
        raise PreconditionError("gauge identities require a terminated series")
    dec = series.decomposition
    tdgla = series.tdgla
    ta = tdgla.target.dim
    top = 2 * max(series.slices, default=0)
    fmt = Struct(f"{len(series.variables)}{_field_code(top)}")
    # Each phi_s packed once, for the kernel, the linear maps and the
    # comparison.
    packed = {s: _int_slice(terms, fmt) for s, terms in series.slices.items()}
    delta1 = _int_columns(dec.delta_cols(1))
    for maps, _ in packed.values():
        image = _apply_columns(delta1, maps, ta)
        if any(any(terms.values()) for part in image for terms in part.values()):
            return "delta(phi) is not identically zero"
    half_delta2 = _int_columns(dec.delta_cols(2), Fraction(1, 2))
    wedge = tdgla.wedge_onto(dec.delta_cols(2))
    for r in range(2, top + 1):
        sums, den = _sum_pairs(
            tdgla,
            wedge,
            [(1, packed.get(s, NO_TERMS), packed.get(r - s, NO_TERMS)) for s in range(1, r)],
            squares=False,
        )
        # phi_r = N / D and (1/2) delta [phi, phi]_r = M / D': the sum
        # vanishes when D' * N + D * M does, entry by entry.
        image = _apply_columns(half_delta2, sums, ta)
        (phi_r, d_phi), scale = packed.get(r, NO_TERMS), den * half_delta2[1]
        for mine, theirs in zip(phi_r, image):
            for index in mine.keys() | theirs.keys():
                n, m = mine.get(index, {}), theirs.get(index, {})
                if any(scale * n.get(e, 0) + d_phi * m.get(e, 0) for e in n.keys() | m.keys()):
                    return "phi + (1/2) delta[phi, phi] differs from the linear part"
    return None


# -- sub-DGLA inclusion --------------------------------------------------------------


def linear_embedding_check(sub_dgla: TensorDgla, amb_dgla: TensorDgla) -> tuple[int, str | None]:
    """Whether the inclusion of ``sub`` into ``ambient`` commutes with the
    Maurer-Cartan residual R(w) = d w + (1/2)[w, w], decided exactly as one
    polynomial identity.

    ``sub_dgla`` and ``amb_dgla`` are C*(sub) and C*(ambient) tensor one
    target, built by the caller, which hands the same ones to the series.
    ``sub`` is a complex on monomials of ``ambient``, normally its
    restriction to a verified selection (``Dga.restrict``, as
    ``subdga_from_characters`` returns).
    Let e_k run over the degree-one basis of the selection, one monomial
    tensor one target basis vector, N of them, and let w = sum_k t_k e_k be
    the generic degree-one element.  R(w) is a polynomial in t: its t_k
    coefficient is d e_k and its t_k t_l coefficient (k < l) is [e_k, e_l],
    since [e_k, e_k] = 0 (alpha wedge alpha = 0) and the bracket of
    degree-one elements is symmetric.  The inclusion commutes with R at
    every w, over Q(i) as well, exactly when d w and [w, w] (one
    ``bracket_slices`` call) agree as polynomials on both sides, after the
    selection's indices are lifted to the ambient's.  That is the same
    statement as agreement at the N(N+1)/2 points e_k and e_k + e_l
    (k <= l): R(e_k) = d e_k and R(e_k + e_l) = d e_k + d e_l + [e_k, e_l].

    Returns (points, witness).  When the identity holds, points is
    N(N+1)/2 and the witness None.  Otherwise the points are searched in
    k-major order, and the result counts them up to the first one where
    the residuals differ and names it by its basis labels, with both
    residuals.
    """
    sub, ambient = sub_dgla.dga, amb_dgla.dga
    ta = sub_dgla.target.dim
    # The ambient index of each selection index, in degrees 1 and 2.
    lift = {
        p: [ambient.index(m) * ta + a for m in sub.monomials[p] for a in range(ta)]
        for p in (1, 2)
    }
    n = sub_dgla.dim(1)
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]

    def residual_terms(tdgla: TensorDgla, basis: Sequence[int]) -> Slice:
        """d w and [w, w] at w = sum_k t_k e_k, with e_k at L^1 index
        ``basis[k]``, as one slice by exponent vector."""
        omega = {u: {i: ONE} for u, i in zip(units, basis)}
        terms = {u: tdgla.apply_matrix(tdgla.dga.columns[1], e) for u, e in omega.items()}
        terms.update(bracket_slices(tdgla, [(1, omega, omega)]))
        return {u: vec for u, vec in terms.items() if vec}

    lifted = {
        u: {lift[2][i]: c for i, c in vec.items()}
        for u, vec in residual_terms(sub_dgla, range(n)).items()
    }
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    if lifted == residual_terms(amb_dgla, lift[1]):
        return len(pairs), None
    for compared, pair in enumerate(pairs, 1):
        omega = dict.fromkeys(pair, ONE)  # e_k when k == l
        res_sub = mc_residual(sub_dgla, omega)
        res_amb = mc_residual(amb_dgla, {lift[1][i]: c for i, c in omega.items()})
        if {lift[2][i]: c for i, c in res_sub.items()} != res_amb:
            point = " + ".join(sub_dgla.basis_label(1, i) for i in omega)
            return compared, (
                f"residuals disagree at {point}: selection gives "
                f"{sub_dgla.element_str(2, res_sub)}, ambient gives "
                f"{amb_dgla.element_str(2, res_amb)}"
            )
    raise InternalCheckError(
        "residual polynomials differ although they agree at every e_k and "
        "e_k + e_l: some [e_k, e_k] is nonzero"
    )
