"""Sparse multivariate polynomials with Scalar coefficients.

A polynomial is a map from exponent vectors to nonzero Scalars over a fixed
ordered tuple of variable names (deformation parameters ``t1..tm``).  The
canonical term order is graded lexicographic by variable index, which keeps
every serialization and printed report deterministic.

``MultiPoly`` holds, evaluates, prints and reads back the obstruction
polynomials the deformation series produces.  It has one constructor,
which trusts its terms: the engine assembles them directly and
``from_records`` validates a file's records first.  ``formats`` writes the
records: ``printed_terms`` sorts the terms and prints each coefficient
once, for both the records and the printed form that ``show_terms`` makes.
It has no ring arithmetic; the ring operations the tests write their
hand-expanded oracles in, and the checks on hand-written terms, live in
``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .errors import ParseError
from .scalars import ONE, ParsedScalars, Scalar, ZERO, scalar

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


class PointPowers:
    """A point prepared once for evaluating many polynomials there.

    Holds the coordinates as Scalars, which of them are zero, and each power
    x_j^e the first time a term asks for it, so every polynomial evaluated
    at the same point shares the powers.  ``MultiPoly.eval`` and
    ``PolyCochain.eval`` take one in place of a plain coordinate list.
    """

    __slots__ = ("values", "zero", "_indices", "_powers")

    def __init__(self, point: Sequence):
        self.values: list[Scalar] = [scalar(p) for p in point]
        self.zero: tuple[bool, ...] = tuple(not v for v in self.values)
        self._indices = range(len(self.values))
        self._powers: dict[tuple[int, int], Scalar] = {}

    def __len__(self) -> int:
        return len(self.values)

    def monomial(self, exps: ExponentVector) -> Scalar | None:
        """The product of x_j^e_j over the nonzero exponents; None when a
        zero coordinate has a nonzero exponent (the monomial vanishes)."""
        if any(compress(self.zero, exps)):
            return None
        powers = self._powers
        out = ONE
        for j in compress(self._indices, exps):
            key = (j, exps[j])
            power = powers.get(key)
            if power is None:
                power = powers[key] = self.values[j] ** exps[j]
            out = out * power
        return out


def prepared(point: "Sequence | PointPowers", nvars: int) -> PointPowers:
    """``point`` as a PointPowers, after checking it has ``nvars`` coordinates."""
    if len(point) != nvars:
        raise ValueError(
            f"point has {len(point)} coordinates for {nvars} variables"
        )
    return point if isinstance(point, PointPowers) else PointPowers(point)


class MultiPoly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[ExponentVector, Scalar]):
        """The polynomial with ``terms`` as they are: exponent tuples of the
        right length and nonzero coefficients, checked by the caller."""
        self.variables: tuple[str, ...] = tuple(variables)
        self.terms = terms

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

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
        PointPowers shared with other polynomials."""
        monomial = prepared(point, len(self.variables)).monomial
        total = ZERO
        for exps, coeff in self.terms.items():
            x = monomial(exps)
            if x is not None:
                total = total + coeff * x
        return total

    # -- reading back ------------------------------------------------------------

    @classmethod
    def from_records(
        cls, variables: Sequence[str], records: Iterable[dict], scalars: ParsedScalars
    ) -> "MultiPoly":
        """The polynomial of a germ file's records, each record validated
        once.  A coefficient text is looked up in ``scalars``, the texts of
        the file being read, so each distinct one is parsed once."""
        terms: dict[ExponentVector, Scalar] = {}
        seen: set[ExponentVector] = set()
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
            if exps in seen:
                raise ParseError(f"duplicate exponent vector {exps}")
            seen.add(exps)
            if coeff:
                terms[exps] = coeff
        return cls(variables, terms)

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
