"""Seeded inputs for the benchmark: algebra files and mc-check points.

The seed picks only the nonzero rational structure constants (isomorphic
rescalings of a fixed algebra), the weight multiplier ``m`` of the solvable
family, and the sample points.  Sizes never depend on the seed, so every
seed does the same amount of work up to coefficient heights.  ``rng=None``
gives the unit constants, used for the fixed-input microbenchmarks.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Torus weights of the solvable family, scaled by the seeded multiplier m.
SOLV_WEIGHTS = (1, 2, 4)


def rng_for(seed: int, name: str) -> random.Random:
    """One stream per (seed, input), so adding an input never shifts another."""
    return random.Random(f"{seed}:{name}")


def _coef(rng: random.Random | None) -> Fraction:
    if rng is None:
        return Fraction(1)
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))


def _bracket(left: str, right: str, coef: Fraction, basis: str) -> dict:
    return {
        "left": left,
        "right": right,
        "result": [{"coef": str(coef), "basis": basis}],
    }


def heisenberg(k: int, rng: random.Random | None) -> dict:
    """h(2k+1): [X_i, Y_i] = c_i Z, two-step nilpotent."""
    xs = [f"X{i}" for i in range(1, k + 1)]
    ys = [f"Y{i}" for i in range(1, k + 1)]
    return {
        "name": f"h{2 * k + 1}",
        "field": "Q",
        "basis": xs + ys + ["Z"],
        "brackets": [_bracket(x, y, _coef(rng), "Z") for x, y in zip(xs, ys)],
    }


def filiform(n: int, rng: random.Random | None) -> dict:
    """L_n: [e1, e_i] = c_i e_{i+1} for i = 2..n-1, (n-1)-step nilpotent."""
    return {
        "name": f"L{n}",
        "field": "Q",
        "basis": [f"e{i}" for i in range(1, n + 1)],
        "brackets": [
            _bracket("e1", f"e{i}", _coef(rng), f"e{i + 1}") for i in range(2, n)
        ],
    }


def solvable_heisenberg(k: int, rng: random.Random | None) -> dict:
    """T ⋉ h(2k+1), T acting diagonally with weights ±m·w_i on X_i, Y_i.

    Unimodular and solvable, not nilpotent.  The ``characters`` entry holds
    the same weights, so the selected sub-DGA does not depend on m.
    """
    m = 1 if rng is None else rng.randint(1, 4)
    weights = [m * w for w in SOLV_WEIGHTS[:k]]
    xs = [f"X{i}" for i in range(1, k + 1)]
    ys = [f"Y{i}" for i in range(1, k + 1)]
    basis = ["T"] + xs + ys + ["Z"]
    dim = len(basis)

    def unit(j: int) -> list[str]:
        return ["1" if q == j else "0" for q in range(dim)]

    brackets = (
        [_bracket("T", x, Fraction(w), x) for x, w in zip(xs, weights)]
        + [_bracket("T", y, Fraction(-w), y) for y, w in zip(ys, weights)]
        + [_bracket(x, y, _coef(rng), "Z") for x, y in zip(xs, ys)]
    )
    return {
        "name": f"solv_h{2 * k + 1}",
        "field": "Q",
        "basis": basis,
        "brackets": brackets,
        "nilradical": [unit(j) for j in range(1, dim)],
        "complement": [unit(0)],
        "characters": {
            "rank": 1,
            "exponents": [[0]] + [[w] for w in weights] + [[-w] for w in weights] + [[0]],
        },
    }


def _nonzero_value(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(1, 5))


def axis_point(variables: list[str], rng: random.Random) -> str:
    """One nonzero coordinate: phi = t*zeta there, so the point is flat."""
    return f"{rng.choice(variables)}={_nonzero_value(rng)}"


def generic_point(variables: list[str], rng: random.Random) -> str:
    """Every coordinate nonzero: the obstructions do not vanish."""
    return ",".join(f"{v}={_nonzero_value(rng)}" for v in variables)
