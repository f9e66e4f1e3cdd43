"""Sparse multivariate polynomials with Scalar coefficients.

A polynomial is a map from exponent vectors to nonzero Scalars over a fixed
ordered tuple of variable names (deformation parameters ``t1..tm``).  The
canonical term order is graded lexicographic by variable index, which keeps
every serialization and printed report deterministic.

``MultiPoly`` holds, evaluates, prints and serialises the obstruction
polynomials the deformation series produces.  It has no ring arithmetic:
the engine assembles each polynomial's terms directly, and the ring
operations the tests write their hand-expanded oracles in live in
``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

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

    def sorted_terms(self) -> list[tuple[ExponentVector, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

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
        seen: set[ExponentVector] = set()
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
            if exps in seen:
                raise ParseError(f"duplicate exponent vector {exps}")
            seen.add(exps)
            if coeff:
                terms[exps] = coeff
        return cls.from_terms(variables, terms)

    @classmethod
    def from_terms(
        cls, variables: Sequence[str], terms: dict[ExponentVector, Scalar]
    ) -> "MultiPoly":
        """The polynomial with ``terms`` as they are: exponent tuples of the
        right length and nonzero coefficients, already checked by the
        caller, so ``__init__``'s checks are skipped."""
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
