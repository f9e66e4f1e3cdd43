"""Sparse multivariate polynomials with Scalar coefficients.

A polynomial is a map from exponent vectors to nonzero Scalars over a fixed
ordered tuple of variable names (deformation parameters ``t1..tm``).  The
canonical term order is graded lexicographic by variable index, which keeps
every serialization and printed report deterministic.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import ParseError
from .scalars import ONE, Scalar, ZERO, scalar

ExponentVector = tuple[int, ...]

_new = object.__new__


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

    def __init__(
        self,
        variables: Sequence[str],
        terms: dict[ExponentVector, Scalar] | None = None,
    ):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[ExponentVector, Scalar] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError(
                    f"exponent vector {exps} does not match "
                    f"{len(self.variables)} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        c = scalar(value)
        n = len(variables)
        return cls(variables, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "MultiPoly":
        n = len(variables)
        exps = tuple(1 if k == index else 0 for k in range(n))
        return cls(variables, {exps: scalar(1)})

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

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def coefficient(self, exponents: ExponentVector) -> Scalar:
        return self.terms.get(tuple(exponents), ZERO)

    def sorted_terms(self) -> list[tuple[ExponentVector, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __iter__(self) -> Iterator[tuple[ExponentVector, Scalar]]:
        return iter(self.sorted_terms())

    # -- arithmetic ----------------------------------------------------------

    def _align(self, other) -> "tuple[MultiPoly, MultiPoly]":
        """Coerce the pair onto a shared variable tuple.

        Constants (including plain Scalars/ints) adapt to the other side;
        genuinely different variable tuples are an error.
        """
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.variables, other)
        if self.variables == other.variables:
            return self, other
        if not self.variables or self.is_constant():
            return MultiPoly.constant(other.variables, self.constant_term()), other
        if not other.variables or other.is_constant():
            return self, MultiPoly.constant(self.variables, other.constant_term())
        raise ValueError(
            f"variable mismatch: {self.variables} vs {other.variables}"
        )

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def __add__(self, other) -> "MultiPoly":
        a, b = self._align(other)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            s = out.get(exps, ZERO) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly(a.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (Scalar, int)):
            c = scalar(other)
            if not c:
                return MultiPoly.zero(self.variables)
            return MultiPoly(
                self.variables, {e: k * c for e, k in self.terms.items()}
            )
        a, b = self._align(other)
        out: dict[ExponentVector, Scalar] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exps, ZERO) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        return MultiPoly(a.variables, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a key

    # -- evaluation and structure ---------------------------------------------

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

    def homogeneous_components(self) -> list[tuple[int, "MultiPoly"]]:
        """Split into (degree, component) pairs, ascending; they sum to self."""
        buckets: dict[int, dict[ExponentVector, Scalar]] = {}
        for exps, coeff in self.terms.items():
            buckets.setdefault(sum(exps), {})[exps] = coeff
        return [
            (deg, MultiPoly(self.variables, buckets[deg]))
            for deg in sorted(buckets)
        ]

    # -- serialization ---------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"exponents": list(exps), "coefficient": str(coeff)}
            for exps, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_records(
        cls, variables: Sequence[str], records: Iterable[dict]
    ) -> "MultiPoly":
        """The polynomial of ``to_records`` output, each record validated
        once; the terms are built in place, without ``__init__``'s checks."""
        terms: dict[ExponentVector, Scalar] = {}
        n = len(variables)
        for rec in records:
            try:
                exps = rec["exponents"]
                coeff = scalar(rec["coefficient"])
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
            if coeff:
                terms[exps] = coeff
        poly = _new(cls)
        poly.variables = tuple(variables)
        poly.terms = terms
        return poly

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(
            self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True
        ):
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.variables, exps)
                if e
            ]
            body = "*".join(factors)
            c = str(coeff)
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

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"
