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

Every degree-one bracket goes through one integer kernel in three steps.
*Pack* (``_int_slice``) groups a slice by L^1 index, brings its numerators
over one denominator and packs each exponent vector into an int, so one add
multiplies two monomials.  *Sum* (``_sum_pairs``) adds factor * [a, b] over
a list of packed pairs into one (real, imaginary) pair of integer maps over
one shared denominator, keyed by packed exponent * step + index.  *Reduce*
(``_reduce``) builds one Scalar per output entry.  ``bracket_slices`` is the
three in a row; ``TensorDgla.bracket11`` is a one-pair call on a single term
each.  Between sum and reduce, ``_apply_columns`` applies (matrix tensor id)
to the integer maps, with the matrix converted once per stage to
Gaussian-integer numerators over one denominator (``_int_columns``).

Outside that kernel, elements are sparse Scalar vectors (``SparseVec``) and
every linear map on them, (matrix tensor id) in ``apply_matrix``, the
Maurer-Cartan residual and ``PolyCochain.eval``, is one ``linalg.apply``
call; the split that supplies delta and the harmonic forms eliminates only
through ``linalg.echelon`` and builds no dense matrix.

So the series, the obstruction projection and the gauge check stay on
integers from the bracket to their result: each phi_r is packed once, when
it is produced; -(1/2) delta_2 of its integer bracket sum is reduced once
per entry of phi_r; the obstruction system projects the series' integer
sums on the harmonic 2-forms and reduces once per polynomial coefficient;
the gauge check brackets every ordered pair afresh, applies delta_1 and
(1/2) delta_2 on integers and compares with phi_r by cross-multiplying
denominators, building no Scalar.

Termination bookkeeping: if phi_j = 0 for rho < j <= 2*rho then every later
degree vanishes too (each bracket pair has a factor of degree > rho), so the
series is certified finite as soon as the trailing window of zeros reaches
the last nonzero degree.  Otherwise the result is flagged truncated and the
system is only valid modulo higher degree.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from sys import byteorder

from . import linalg
from .cedga import Dga
from .decomp import Decomposition
from .errors import InternalCheckError, PreconditionError
from .liealg import LieAlgebra
from .linalg import SparseColumns
from .multipoly import ExponentVector, MultiPoly, PointPowers, prepared
from .scalars import ONE, Scalar, from_ints, scalar

SparseVec = dict[int, Scalar]

HALF = Scalar(Fraction(1, 2))


class TensorDgla:
    """L^p = C^p tensor a with flat indexing (monomial, basis) -> int."""

    __slots__ = ("dga", "target", "_wedge11", "_int_bracket", "_step")

    def __init__(self, dga: Dga, target: LieAlgebra):
        self.dga = dga
        self.target = target
        ta = target.dim
        ones = self.dga.monomials[1]
        table: list[list[tuple[int, int] | None]] = []
        for left in ones:
            row: list[tuple[int, int] | None] = []
            for right in ones:
                if left == right:
                    row.append(None)
                    continue
                merged = tuple(sorted(left + right))
                spot = self.dga.position.get(merged)
                if spot is None or spot[0] != 2:
                    raise PreconditionError(
                        "degree-1 wedge leaves the complex; the selection "
                        "is not closed under products"
                    )
                sign = 1 if left < right else -1
                row.append((sign, spot[1]))
            table.append(row)
        self._wedge11 = table
        # The bracket table for the kernel, column s * ta + t listing the
        # (k, numerator) of [x_s, x_t].
        self._int_bracket = _int_columns(
            [column for s in range(ta) for column in target.ad({s: ONE})]
        )
        # Integer maps are keyed by packed exponent * step + index; every
        # index the kernel and the linear maps write (L^0, L^1, L^2 and the
        # obstruction coordinates) is below the step.
        self._step = max(self.dim(1), self.dim(2), 1)

    # -- indexing -----------------------------------------------------------

    def dim(self, p: int) -> int:
        return self.dga.dim_at(p) * self.target.dim

    def flat(self, mono_idx: int, a_idx: int) -> int:
        return mono_idx * self.target.dim + a_idx

    def unflat(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.target.dim)

    def basis_label(self, p: int, idx: int) -> str:
        mono, a = self.unflat(idx)
        return (
            f"{self.dga.monomial_label(self.dga.monomials[p][mono])}"
            f"⊗{self.target.labels[a]}"
        )

    def element_str(self, p: int, v: SparseVec) -> str:
        parts = [
            f"({c})*{self.basis_label(p, i)}" for i, c in sorted(v.items())
        ]
        return " + ".join(parts) if parts else "0"

    # -- operations -----------------------------------------------------------

    def bracket11(self, u: SparseVec, v: SparseVec) -> SparseVec:
        """[u, v] for degree-one u, v: ``bracket_slices`` on one term each."""
        return bracket_slices(self, [(1, {(): u}, {(): v})]).get((), {})

    def apply_matrix(self, matrix_cols: SparseColumns, u: SparseVec) -> SparseVec:
        """Apply (matrix tensor id) given sparse columns of the matrix."""
        return linalg.apply(matrix_cols, u.items(), stride=self.target.dim)


def mc_residual(tdgla: TensorDgla, omega: SparseVec) -> SparseVec:
    """d(omega) + (1/2)[omega, omega] for a degree-one element."""
    out = tdgla.apply_matrix(tdgla.dga.columns[1], omega)
    square = tdgla.bracket11(omega, omega)
    return linalg.apply([square.items()], [(0, HALF)], out)


# -- polynomial cochains ------------------------------------------------------


Slice = dict[ExponentVector, SparseVec]


@dataclass
class PolyCochain:
    """L^1-valued polynomial in the deformation parameters.

    ``slices[r]`` is the homogeneous part of total degree r, mapping
    exponent vectors to sparse L^1 vectors.
    """

    variables: tuple[str, ...]
    slices: dict[int, Slice] = field(default_factory=dict)

    def eval(self, point: "list[Scalar] | PointPowers") -> SparseVec:
        """Exact substitution at one Scalar per variable, or at a
        PointPowers shared with the obstruction polynomials."""
        monomial = prepared(point, len(self.variables)).monomial
        vecs, factors = [], []
        for terms in self.slices.values():
            for exps, vec in terms.items():
                factor = monomial(exps)
                if factor:
                    vecs.append(vec.items())
                    factors.append(factor)
        return linalg.apply(vecs, enumerate(factors))


# Integer maps: numerators keyed by packed exponent * step + index, as a
# (real part, imaginary part) pair over a denominator held beside them.
IntMaps = tuple[dict[int, int], dict[int, int]]
# A packed slice: ([(real part, 0), (imaginary part, 1)], D), a part mapping
# each L^1 index to its (packed exponent * step, numerator) pairs.
Packed = tuple[list[tuple[dict[int, list[tuple[int, int]]], int]], int]
# A matrix for (matrix tensor id): ([(real part, 0), (imaginary part, 1)], D),
# a part listing for each column its (row, numerator) pairs.
IntColumns = tuple[list[tuple[list[list[tuple[int, int]]], int]], int]

NO_TERMS: Packed = ([], 1)


def _array_code(degree: int) -> str:
    """The smallest unsigned array type whose fields hold ``degree``, hence
    every exponent of a monomial of total degree <= ``degree``."""
    bits = degree.bit_length()
    return next(c for c in "BHIQ" if bits <= 8 * array(c).itemsize)


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


def _int_slice(terms: Slice, code: str, step: int) -> Packed:
    """Pack: a slice as index-major integer parts over one denominator D.

    An exponent vector is packed as the bytes of an array of type ``code``,
    one field a variable, so one int add multiplies two monomials.
    """
    den = lcm(*(c._d for vec in terms.values() for c in vec.values()))
    re: dict[int, list[tuple[int, int]]] = {}
    im: dict[int, list[tuple[int, int]]] = {}
    for exps, vec in terms.items():
        packed = int.from_bytes(array(code, exps), byteorder) * step
        for i, c in vec.items():
            scale = den // c._d
            if c._a:
                re.setdefault(i, []).append((packed, c._a * scale))
            if c._b:
                im.setdefault(i, []).append((packed, c._b * scale))
    return [(part, turns) for turns, part in enumerate((re, im)) if part], den


def _flat(packed: Packed) -> IntMaps:
    """A packed slice's numerators as integer maps."""
    maps: IntMaps = ({}, {})
    for part, turns in packed[0]:
        maps[turns].update((e + i, x) for i, terms in part.items() for e, x in terms)
    return maps


def _accumulate(
    acc: dict[int, int],
    sign: int,
    left: dict[int, list[tuple[int, int]]],
    right: dict[int, list[tuple[int, int]]],
    consts: list[list[tuple[int, int]]],
    wedge: list[list[tuple[int, int] | None]],
    ta: int,
) -> None:
    """Add sign * [left, right] to acc, keyed by packed exponent * step +
    L^2 index, with ``consts`` as the bracket table.

    The wedge sign, the target monomial and the structure constants are
    resolved once per index pair and folded into the right-hand terms; each
    term pair then costs one int add, one multiply and one dict update.
    """
    get = acc.get
    for iu, terms_u in left.items():
        mu, au = divmod(iu, ta)
        wrow = wedge[mu]
        cbase = au * ta
        for iv, terms_v in right.items():
            mv, av = divmod(iv, ta)
            merged = wrow[mv]
            row = consts[cbase + av]
            if merged is None or not row:
                continue
            wsign, target = merged
            base = target * ta
            factor = sign * wsign
            right_terms = [
                (eb + base + k, xb * factor * x) for k, x in row for eb, xb in terms_v
            ]
            for ea, xa in terms_u:
                for eb, xb in right_terms:
                    key = ea + eb
                    acc[key] = get(key, 0) + xa * xb


def _sum_pairs(
    tdgla: TensorDgla, pairs: list[tuple[int, Packed, Packed]]
) -> tuple[IntMaps, int]:
    """Sum: factor * [a, b] over the (int factor, packed a, packed b) in
    ``pairs``, as integer maps over one denominator.

    Each pair's numerators are brought onto one denominator L * Dc, with L
    the lcm of Da * Db over the pairs, by scaling that pair's sign by
    L / (Da * Db).  Q(i) data splits into real and imaginary numerators,
    combined by bilinearity (each factor of i turns the product a quarter:
    re, im, -re, -im); rational data has no imaginary parts and runs one
    pass.
    """
    den = lcm(*(da * db for _, (_, da), (_, db) in pairs))
    parts_c, dc = tdgla._int_bracket
    ta = tdgla.target.dim
    acc: IntMaps = ({}, {})
    for factor, (parts_a, da), (parts_b, db) in pairs:
        factor *= den // (da * db)
        for left, ia in parts_a:
            for right, ib in parts_b:
                for consts, ic in parts_c:
                    turns = ia + ib + ic
                    sign = -factor if turns & 2 else factor
                    _accumulate(acc[turns & 1], sign, left, right, consts, tdgla._wedge11, ta)
    return acc, den * dc


def _apply_columns(columns: IntColumns, maps: IntMaps, step: int, ta: int) -> IntMaps:
    """(matrix tensor id) on integer maps, by bilinearity over the real and
    imaginary parts as in ``_sum_pairs``.  The result's denominator is the
    input's times the columns'; an index (monomial, a) goes to (row, a)."""
    out: IntMaps = ({}, {})
    for source, ix in zip(maps, (0, 1)):
        for cols, ic in columns[0]:
            turns = ix + ic
            sign = -1 if turns & 2 else 1
            acc = out[turns & 1]
            get = acc.get
            for key, x in source.items():
                spot = key % step
                mono, a = divmod(spot, ta)
                col = cols[mono]
                if not (col and x):
                    continue
                base = key - spot + a
                x *= sign
                for i, c in col:
                    k = base + i * ta
                    acc[k] = get(k, 0) + x * c
    return out


def _reduce(maps: IntMaps, den: int, code: str, nvars: int, step: int) -> Slice:
    """Reduce: integer maps over ``den`` as a slice, one Scalar per nonzero
    entry.  ``maps`` is used up."""
    re, im = maps
    # Give every purely imaginary entry a zero real part, so one walk over
    # re reaches every output entry.
    for key in im.keys() - re.keys():
        re[key] = 0
    nbytes = nvars * array(code).itemsize
    out: Slice = {}
    # Output vectors by packed exponent: each one is unpacked once.
    rows: dict[int, SparseVec] = {}
    for key, x in re.items():
        y = im.get(key, 0)
        if not (x or y):
            continue
        packed, spot = divmod(key, step)
        vec = rows.get(packed)
        if vec is None:
            exps = tuple(array(code, packed.to_bytes(nbytes, byteorder)))
            vec = rows[packed] = out[exps] = {}
        vec[spot] = from_ints(x, y, den)
    return out


def bracket_slices(tdgla: TensorDgla, pairs: list[tuple[int, Slice, Slice]]) -> Slice:
    """Sum of factor * [a, b] over the (factor, a, b) in ``pairs``: int
    factors, homogeneous degree-one slices in one set of variables.

    Pack, sum and reduce in a row, with the smallest array type that holds
    the output's total degree.
    """
    pairs = [(f, a, b) for f, a, b in pairs if f and a and b]
    if not pairs:
        return {}
    code = _array_code(max(max(map(sum, a)) + max(map(sum, b)) for _, a, b in pairs))
    step = tdgla._step
    maps, den = _sum_pairs(
        tdgla,
        [(f, _int_slice(a, code, step), _int_slice(b, code, step)) for f, a, b in pairs],
    )
    return _reduce(maps, den, code, len(next(iter(pairs[0][1]))), step)


# -- the deformation series ----------------------------------------------------


@dataclass
class KuranishiSeries:
    """The solved series with its context and termination certificate."""

    tdgla: TensorDgla
    decomposition: Decomposition
    variables: tuple[str, ...]
    zeta_info: list[tuple[int, int]]  # (harmonic 1-form index, target index)
    slices: dict[int, Slice]
    cap: int
    terminated: bool
    last_nonzero: int
    # [phi, phi]_r for each degree r the recursion reached, as integer maps
    # with their denominator (exponents packed with ``_series_code(cap)``);
    # the obstruction system takes these over (and empties the field)
    # instead of bracketing phi again.
    bracket_sums: dict[int, tuple[IntMaps, int]] = field(default_factory=dict)


def _square(tdgla: TensorDgla, packed: dict[int, Packed], r: int) -> tuple[IntMaps, int]:
    """[phi, phi]_r as integer sums over the unordered pairs s + t = r (the
    bracket of degree-one elements is symmetric, so s != t counts twice)."""
    return _sum_pairs(
        tdgla,
        [
            (1 if 2 * s == r else 2, packed.get(s, NO_TERMS), packed.get(r - s, NO_TERMS))
            for s in range(1, r // 2 + 1)
        ],
    )


def _series_code(cap: int) -> str:
    """The array type of a series' packed exponents.  It holds degree
    2 * cap: a capped series' obstruction system brackets up to twice its
    last degree."""
    return _array_code(2 * cap)


def kuranishi_series(
    dec: Decomposition, target: LieAlgebra, cap: int | None = None
) -> KuranishiSeries:
    """Solve the recursion up to ``cap`` (default 2*nu, or 2*dim ungraded)."""
    tdgla = TensorDgla(dec.dga, target)
    if cap is None:
        if dec.grading is not None:
            cap = 2 * dec.grading.depth
        else:
            cap = 2 * dec.dga.algebra.dim
    if cap < 2:
        raise PreconditionError("series cap must be at least 2")

    harm1 = dec.harmonic_basis(1)
    ta = target.dim
    zeta: list[SparseVec] = []
    zeta_info: list[tuple[int, int]] = []
    for h, row in enumerate(harm1):
        for a in range(ta):
            vec = {tdgla.flat(i, a): c for i, c in row.items()}
            zeta.append(vec)
            zeta_info.append((h, a))
    m = len(zeta)
    variables = tuple(f"t{i + 1}" for i in range(m))

    def unit_exp(i: int) -> ExponentVector:
        return tuple(1 if k == i else 0 for k in range(m))

    code, step = _series_code(cap), tdgla._step
    slices: dict[int, Slice] = {}
    # Each phi_r packed once, when it is produced.
    packed: dict[int, Packed] = {}
    phi1: Slice = {unit_exp(i): dict(z) for i, z in enumerate(zeta) if z}
    if phi1:
        slices[1] = phi1
        packed[1] = _int_slice(phi1, code, step)

    # phi_r = -(1/2) delta [phi, phi]_r, with -1/2 folded into the columns.
    delta2 = _int_columns(dec.delta_cols(2), Fraction(-1, 2))

    rho = 1
    terminated = m == 0  # an empty series is trivially finite
    bracket_sums: dict[int, tuple[IntMaps, int]] = {}
    if not terminated:
        for r in range(2, cap + 1):
            sums, den = bracket_sums[r] = _square(tdgla, packed, r)
            phi_r = _reduce(
                _apply_columns(delta2, sums, step, ta), den * delta2[1], code, m, step
            )
            if phi_r:
                slices[r] = phi_r
                packed[r] = _int_slice(phi_r, code, step)
                rho = r
            if r >= 2 * rho:
                terminated = True
                break

    return KuranishiSeries(
        tdgla=tdgla,
        decomposition=dec,
        variables=variables,
        zeta_info=zeta_info,
        slices=slices,
        cap=cap,
        terminated=terminated,
        last_nonzero=rho if m else 0,
        bracket_sums=bracket_sums,
    )


# -- obstruction systems ---------------------------------------------------------


@dataclass(frozen=True)
class ObstructionSystem:
    """Polynomials presenting the flat germ on the harmonic slice."""

    variables: tuple[str, ...]
    coordinates: tuple[str, ...]
    polynomials: tuple[MultiPoly, ...]
    nu: int | None
    cap: int
    terminated: bool

    @property
    def max_degree(self) -> int:
        degrees = [p.total_degree() for p in self.polynomials if not p.is_zero()]
        return max(degrees, default=0)

    @property
    def is_smooth(self) -> bool:
        return all(p.is_zero() for p in self.polynomials)

    @property
    def valid_modulo(self) -> int | None:
        """Degree beyond which the system is unreliable, None if exact."""
        return None if self.terminated else self.cap + 1

    def homogeneous_degrees(self) -> list[list[int]]:
        """The degrees of each polynomial's homogeneous components, ascending."""
        return [sorted({*map(sum, p.terms)}) for p in self.polynomials]


def obstruction_system(series: KuranishiSeries) -> ObstructionSystem:
    """Harmonic coordinates of [phi, phi] as exact polynomials.

    [phi, phi] is the series' own integer bracket sums, plus the degrees
    above the last one the recursion reached (a capped series), bracketed
    here.  The series' sums are dropped afterwards: nothing else reads them.
    """
    dec = series.decomposition
    tdgla = series.tdgla
    ta = tdgla.target.dim
    coords = dec.harmonic_coords(2) if len(dec.splits) > 2 else []
    b2 = dec.betti()[2] if coords else 0
    code, step = _series_code(series.cap), tdgla._step
    nvars = len(series.variables)

    square = series.bracket_sums
    series.bracket_sums = {}
    top = 2 * max(series.slices, default=0)
    if any(r not in square for r in range(2, top + 1)):
        packed = {r: _int_slice(terms, code, step) for r, terms in series.slices.items()}
        for r in range(2, top + 1):
            if r not in square:
                square[r] = _square(tdgla, packed, r)

    # (harmonic_coords(2) tensor id) sends a degree-2 vector straight to the
    # obstruction coordinates h * ta + a; each exponent vector occurs once.
    coord_cols = _int_columns(coords)
    polys: list[dict[ExponentVector, Scalar]] = [
        {} for _ in range(b2 * ta)
    ]
    for sums, den in square.values():
        projected = _apply_columns(coord_cols, sums, step, ta)
        for exps, vec in _reduce(projected, den * coord_cols[1], code, nvars, step).items():
            if sum(exps) < 2:
                raise InternalCheckError(
                    "obstruction polynomial has a constant or linear part"
                )
            for k, value in vec.items():
                polys[k][exps] = value

    labels = tuple(
        f"h2[{h}]⊗{tdgla.target.labels[a]}"
        for h in range(b2)
        for a in range(ta)
    )
    polynomials = tuple(MultiPoly.from_terms(series.variables, terms) for terms in polys)
    nu = dec.grading.depth if dec.grading is not None else None
    return ObstructionSystem(
        variables=series.variables,
        coordinates=labels,
        polynomials=polynomials,
        nu=nu,
        cap=series.cap,
        terminated=series.terminated,
    )


def verify_degree_bound(system: ObstructionSystem, nu: int) -> MultiPoly | None:
    """None when every polynomial has total degree <= nu + 1, else a witness."""
    for poly in system.polynomials:
        if not poly.is_zero() and poly.total_degree() > nu + 1:
            return poly
    return None


def gauge_identity_check(series: KuranishiSeries) -> str | None:
    """Verify the two exact polynomial identities of a terminated series.

    First, delta kills the whole series coefficientwise.  Second, the
    series inverts the normal-form map:  phi + (1/2) delta [phi, phi]
    equals the linear part phi_1, that is phi_r + (1/2) delta [phi, phi]_r
    = 0 for every r >= 2.  [phi, phi] is bracketed afresh here, over every
    ordered pair s + t = r, independent of the series' own bracket sums.
    Both identities are checked on the kernel's integer maps; no Scalar is
    built.
    """
    if not series.terminated:
        raise PreconditionError("gauge identities require a terminated series")
    dec = series.decomposition
    tdgla = series.tdgla
    ta, step = tdgla.target.dim, tdgla._step
    top = 2 * max(series.slices, default=0)
    code = _array_code(top)
    # Each phi_s packed once, index-major for the kernel and flat for the
    # linear maps and the comparison.
    packed = {s: _int_slice(terms, code, step) for s, terms in series.slices.items()}
    flat = {s: _flat(p) for s, p in packed.items()}
    delta1 = _int_columns(dec.delta_cols(1))
    for maps in flat.values():
        if any(any(part.values()) for part in _apply_columns(delta1, maps, step, ta)):
            return "delta(phi) is not identically zero"
    half_delta2 = _int_columns(dec.delta_cols(2), Fraction(1, 2))
    for r in range(2, top + 1):
        sums, den = _sum_pairs(
            tdgla,
            [(1, packed.get(s, NO_TERMS), packed.get(r - s, NO_TERMS)) for s in range(1, r)],
        )
        # phi_r = N / D and (1/2) delta [phi, phi]_r = M / D': the sum
        # vanishes when D' * N + D * M does, key by key.
        image = _apply_columns(half_delta2, sums, step, ta)
        scale, d_phi = den * half_delta2[1], packed.get(r, NO_TERMS)[1]
        for mine, theirs in zip(flat.get(r, ({}, {})), image):
            for key in mine.keys() | theirs.keys():
                if scale * mine.get(key, 0) + d_phi * theirs.get(key, 0):
                    return "phi + (1/2) delta[phi, phi] differs from the linear part"
    return None


# -- point checks -------------------------------------------------------------------


@dataclass
class SpotCheckResult:
    obstruction_values: list[Scalar]
    residual: SparseVec
    gauge: SparseVec

    @property
    def obstructions_vanish(self) -> bool:
        return all(not v for v in self.obstruction_values)

    @property
    def residual_is_zero(self) -> bool:
        return not self.residual

    @property
    def gauge_is_zero(self) -> bool:
        return not self.gauge

    @property
    def consistent(self) -> bool:
        """Vanishing obstructions must force an exactly flat point."""
        if self.obstructions_vanish:
            return self.residual_is_zero and self.gauge_is_zero
        return True


# -- sub-DGLA inclusion --------------------------------------------------------------


def linear_embedding_check(
    sub: Dga,
    ambient: Dga,
    target: LieAlgebra,
    samples: list[list[Scalar]],
) -> tuple[int, str] | None:
    """Compare flatness residuals computed in a sub-DGA and the ambient.

    ``sub`` is a complex on monomials of ``ambient`` (a verified selection,
    as ``subdga_from_characters`` returns); both are built by the caller.
    Each sample lists coordinates over the sub-DGA's degree-one basis
    (monomial-major, target-minor).  Returns None when the inclusion
    commutes with the residual on every sample, else (sample index, detail).
    """
    sub_dgla = TensorDgla(sub, target)
    amb_dgla = TensorDgla(ambient, target)
    ta = target.dim

    def include(p: int, v: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for idx, c in v.items():
            mono_idx, a = divmod(idx, ta)
            mono = sub.monomials[p][mono_idx]
            amb_idx = ambient.position[mono][1]
            out[amb_idx * ta + a] = c
        return out

    for k, coords in enumerate(samples):
        if len(coords) != sub_dgla.dim(1):
            raise ValueError(
                f"sample {k} has {len(coords)} coordinates, "
                f"expected {sub_dgla.dim(1)}"
            )
        omega_sub = {i: scalar(c) for i, c in enumerate(coords) if scalar(c)}
        res_sub = mc_residual(sub_dgla, omega_sub)
        omega_amb = include(1, omega_sub)
        res_amb = mc_residual(amb_dgla, omega_amb)
        if include(2, res_sub) != res_amb:
            return k, (
                "residuals disagree: selection gives "
                f"{sub_dgla.element_str(2, res_sub)}, ambient gives "
                f"{amb_dgla.element_str(2, res_amb)}"
            )
    return None


def random_rational_samples(
    count: int, dimension: int, seed: int = 0
) -> list[list[Scalar]]:
    """Deterministic pseudo-random rational sample points."""
    import random

    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        samples.append(
            [
                Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(dimension)
            ]
        )
    return samples
