"""Sparse multivariate polynomials with Scalar coefficients.

A polynomial is a map from exponent vectors to nonzero Scalars over a fixed
ordered tuple of variable names (deformation parameters ``t1..tm``).  The
canonical term order is graded lexicographic by variable index, which keeps
every serialization and printed report deterministic.

``MultiPoly`` holds, evaluates (on integers, in ``evaluate``), prints and
reads back the obstruction polynomials the deformation series produces.
It has one constructor, which trusts its terms: the engine assembles them
directly and ``from_records`` validates a file's records first.
``formats`` writes the records: ``printed_terms`` sorts the terms and
prints each coefficient once, for both the records and the printed form
that ``show_terms`` makes.  It has no ring arithmetic; the ring operations
the tests write their hand-expanded oracles in, and the checks on
hand-written terms, live in ``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import compress, count
from math import lcm
from typing import Iterable, Sequence

from .errors import ParseError
from .scalars import ParsedScalars, Scalar, ZERO, from_ints, scalar

ExponentVector = tuple[int, ...]


def grlex_key(exponents: ExponentVector) -> tuple[int, ExponentVector]:
    return (sum(exponents), exponents)


def is_exponent_list(value, n: int) -> bool:
    """True for a list of ``n`` nonnegative ints, as JSON gives them: int()
    would truncate 1.5 and read true as 1."""
    return (
        isinstance(value, list)
        and len(value) == n
        and {*map(type, value)} <= {int}
        and not (value and min(value) < 0)
    )


def _power(x: int, y: int, e: int) -> tuple[int, int]:
    """(x + y*i)^e, by repeated squaring."""
    re, im = 1, 0
    while e:
        if e & 1:
            re, im = re * x - im * y, re * y + im * x
        x, y, e = x * x - y * y, 2 * x * y, e >> 1
    return re, im


class PointPowers:
    """A point prepared once for evaluating many polynomials there: Gaussian
    integer numerators over one denominator ``den``, which coordinates are
    zero, and each power x_j^e the first time a term asks for it."""

    __slots__ = ("den", "zero", "_nums", "_powers")

    def __init__(self, point: Sequence):
        values = [scalar(p) for p in point]
        self.den = den = lcm(*(v._d for v in values))
        self.zero = tuple(not v for v in values)
        self._nums = [(v._a * den // v._d, v._b * den // v._d) for v in values]
        self._powers: list[dict[int, tuple[int, int]]] = [{} for _ in values]

    def __len__(self) -> int:
        return len(self._nums)

    def monomial(self, exps: ExponentVector) -> tuple[int, int, int] | None:
        """(re, im, |exps|) with (re + im*i) / den^|exps| the product of
        x_j^e_j; None when a zero coordinate has a nonzero exponent."""
        if any(compress(self.zero, exps)):
            return None
        re, im, degree = 1, 0, 0
        for j in compress(count(), exps):
            e, powers = exps[j], self._powers[j]
            degree += e
            x, y = powers.get(e) or powers.setdefault(e, _power(*self._nums[j], e))
            re, im = re * x - im * y, re * y + im * x
        return re, im, degree


def evaluate(point: "Sequence | PointPowers", nvars: int, terms: list) -> dict:
    """The sums of c * x^exps by key over the (exps, [(key, c), ...]) pairs
    in ``terms`` at ``point``, one Scalar per nonzero sum, run on integers
    over L * den^top (L: lcm of the c's denominators, top: highest degree)."""
    if len(point) != nvars:
        raise ValueError(f"point has {len(point)} coordinates for {nvars} variables")
    at = point if isinstance(point, PointPowers) else PointPowers(point)
    lcd = lcm(*(c._d for _, entries in terms for _, c in entries))
    found = [(x, entries) for exps, entries in terms if (x := at.monomial(exps))]
    top, sums = max((x[2] for x, _ in found), default=0), {}
    for (re, im, degree), entries in found:
        lift = at.den ** (top - degree)
        re, im = re * lift, im * lift
        for key, c in entries:
            s, (x, y) = lcd // c._d, sums.get(key, (0, 0))
            sums[key] = (x + s * (c._a * re - c._b * im), y + s * (c._a * im + c._b * re))
    den = lcd * at.den**top
    return {key: from_ints(x, y, den) for key, (x, y) in sums.items() if x or y}


class MultiPoly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[ExponentVector, Scalar]):
        """The polynomial with ``terms`` as they are: exponent tuples of the
        right length and nonzero coefficients, checked by the caller."""
        self.variables: tuple[str, ...] = tuple(variables)
        self.terms = terms

    # -- basic queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def printed_terms(self) -> list[tuple[ExponentVector, str]]:
        """The terms in grlex order, each coefficient as its text."""
        terms = self.terms
        return [(exps, str(terms[exps])) for exps in sorted(terms, key=grlex_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a key

    # -- evaluation -------------------------------------------------------------

    def eval(self, point: "Sequence[Scalar] | PointPowers") -> Scalar:
        """Exact substitution at one Scalar per variable, or at a
        PointPowers shared with other polynomials (``evaluate``)."""
        terms = [(e, ((0, c),)) for e, c in self.terms.items()]
        return evaluate(point, len(self.variables), terms).get(0, ZERO)

    # -- reading back ------------------------------------------------------------

    @classmethod
    def from_records(
        cls, variables: Sequence[str], records: Iterable[dict], scalars: ParsedScalars
    ) -> "MultiPoly":
        """The polynomial of a germ file's records, each record validated
        once.  A coefficient text is looked up in ``scalars``, the texts of
        the file being read, so each distinct one is parsed once."""
        terms: dict[ExponentVector, Scalar] = {}
        n = len(variables)
        for rec in records:
            try:
                exps, coeff = rec["exponents"], rec["coefficient"]
                if isinstance(coeff, bool):
                    raise TypeError("booleans are not scalars")
                coeff = scalars[coeff] if type(coeff) is str else scalar(coeff)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad polynomial record {rec!r}: {exc}") from None
            if not is_exponent_list(exps, n):
                raise ParseError(
                    f"bad polynomial record {rec!r}: exponents: expected {n} "
                    "nonnegative integers, one per variable"
                )
            exps = tuple(exps)
            if exps in terms:
                raise ParseError(f"duplicate exponent vector {exps}")
            terms[exps] = coeff
        return cls(variables, {e: c for e, c in terms.items() if c})

    def __str__(self) -> str:
        return show_terms(self.variables, self.printed_terms()[::-1])

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"


def show_terms(variables: tuple[str, ...], terms: list[tuple[ExponentVector, str]]) -> str:
    """The printed form of a polynomial from its (exponents, coefficient
    text) pairs, highest term first: ``t1^2 - 1/2*t2*t3 + (1+i)*t4``."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        factors = [
            f"{name}^{e}" if e > 1 else name
            for name, e in compress(zip(variables, exps), exps)
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
