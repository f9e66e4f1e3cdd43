"""The CLI's target presets: sl(2) and gl(n) (``--target sl2``, ``--target gl:N``).

The fixture algebras are defined only by their files under ``fixtures/``;
``fixtures/sl2.json`` and ``fixtures/gl2.json`` hold the same labels and
brackets as these presets.  Structure constants are over Q, and each
algebra passes the Jacobi check at construction.
"""

from __future__ import annotations

from .liealg import LieAlgebra
from .scalars import ONE, Scalar, scalar


def sl2() -> LieAlgebra:
    """sl(2): [H, E] = 2E, [H, F] = -2F, [E, F] = H."""
    return LieAlgebra(
        ["H", "E", "F"],
        {(0, 1): {1: scalar(2)}, (0, 2): {2: scalar(-2)}, (1, 2): {0: ONE}},
    )


def gl(n: int) -> LieAlgebra:
    """gl(n) on the elementary-matrix basis Eij; from n = 10 on the labels
    read Ei_j, since E111 would name both E1_11 and E11_1."""
    sep = "_" if n >= 10 else ""
    labels = [f"E{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]

    def idx(i: int, j: int) -> int:
        return i * n + j

    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a, b = idx(i, j), idx(k, l)
                    if a >= b:
                        continue
                    comps: dict[int, Scalar] = {}
                    if j == k:
                        comps[idx(i, l)] = comps.get(idx(i, l), scalar(0)) + ONE
                    if l == i:
                        comps[idx(k, j)] = comps.get(idx(k, j), scalar(0)) - ONE
                    comps = {t: c for t, c in comps.items() if c}
                    if comps:
                        brackets[(a, b)] = comps
    return LieAlgebra(labels, brackets)
