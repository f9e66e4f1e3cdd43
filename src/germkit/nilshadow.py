"""Nilshadow construction for solvable Lie algebras.

Input: a solvable algebra g together with a nilpotent ideal n containing
[g, g] and a complementary subspace V on which the semisimple parts of the
adjoint maps annihilate each other.  From that data the semisimple-part map
ad_s is assembled (zero on n, (ad_A)_s on the V-component), and the
nilshadow is the same underlying space with the corrected bracket

    [X, Y]_new = [X, Y] - ad_s(X)(Y) + ad_s(Y)(X),

which is nilpotent whenever the input data satisfies the hypotheses.  The
nilradical and complement are caller-supplied and verified, never computed:
finding the nilradical of an arbitrary solvable algebra is a separate
problem and all inputs of interest arrive pre-split.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import PreconditionError
from .jordan import jordan_chevalley
from .liealg import (
    LieAlgebra,
    LowerCentralSeries,
    Subspace,
    derived_subalgebra,
    is_solvable,
    lower_central_series,
    restricted_lower_central_series,
)
from .linalg import Matrix, Vector
from .scalars import Scalar, ZERO


@dataclass(frozen=True)
class SolvableInput:
    """A solvable algebra with a declared nilradical and complement."""

    algebra: LieAlgebra
    nilradical: Subspace
    complement: Subspace


@dataclass(frozen=True)
class AdSMap:
    """Matrices of the semisimple-part map on each basis vector.

    The assignment is linear, the images commute pairwise, every matrix is
    a derivation of the algebra, and the map kills the nilradical; all of
    this is verified at construction time.
    """

    algebra: LieAlgebra
    matrices: tuple[Matrix, ...]

    def apply(self, v: Vector, w: Vector) -> Vector:
        """ad_s(v) applied to w."""
        n = self.algebra.dim
        out = [ZERO] * n
        for i, c in enumerate(v):
            if not c:
                continue
            col = linalg.mat_vec(self.matrices[i], w)
            for k in range(n):
                if col[k]:
                    out[k] = out[k] + c * col[k]
        return out


def validate_solvable_input(data: SolvableInput) -> None:
    """Raise PreconditionError naming the first violated hypothesis."""
    g = data.algebra
    n = g.dim
    nil, comp = data.nilradical, data.complement
    if nil.ambient_dim != n or comp.ambient_dim != n:
        raise PreconditionError("nilradical/complement ambient dimension mismatch")
    if nil.intersection_dim(comp) != 0 or nil.dim + comp.dim != n:
        raise PreconditionError(
            "complement does not split the algebra: V + n is not a direct sum"
        )
    if not is_solvable(g):
        raise PreconditionError("algebra is not solvable")
    derived = derived_subalgebra(g)
    if not nil.contains_subspace(derived):
        raise PreconditionError("nilradical does not contain [g, g]")
    for i in range(n):
        for row in nil.rows:
            if not nil.contains(g.bracket(g.basis_vector(i), list(row))):
                raise PreconditionError(
                    f"nilradical is not an ideal: [{g.labels[i]}, n] leaves n"
                )
    if restricted_lower_central_series(g, nil).nu is None:
        raise PreconditionError("declared nilradical is not nilpotent")
    for a_row in comp.rows:
        semi, _ = jordan_chevalley(g.ad_matrix(list(a_row)))
        for b_row in comp.rows:
            image = linalg.mat_vec(semi, list(b_row))
            if any(image):
                raise PreconditionError(
                    "semisimple part of ad_A does not kill V: "
                    f"(ad_A)_s(B) != 0 for A={g.vector_str(a_row)}, "
                    f"B={g.vector_str(b_row)}"
                )


def ad_s_map(data: SolvableInput) -> AdSMap:
    """Assemble and verify the semisimple-part map ad_s."""
    validate_solvable_input(data)
    g = data.algebra
    n = g.dim
    nil, comp = data.nilradical, data.complement

    # coordinates of each basis vector in the (V rows | n rows) basis
    basis_matrix = [list(r) for r in comp.rows] + [list(r) for r in nil.rows]
    columns = linalg.transpose(basis_matrix, n)
    v_parts: list[Vector] = []
    for i in range(n):
        coords = linalg.solve(columns, g.basis_vector(i), n)
        if coords is None:
            raise PreconditionError("complement and nilradical do not span")
        v_part = [ZERO] * n
        for j in range(comp.dim):
            if coords[j]:
                for k, c in enumerate(comp.rows[j]):
                    v_part[k] = v_part[k] + coords[j] * c
        v_parts.append(v_part)

    matrices = []
    for i in range(n):
        if any(v_parts[i]):
            semi, _ = jordan_chevalley(g.ad_matrix(v_parts[i]))
        else:
            semi = linalg.zeros(n, n)
        matrices.append(semi)

    _verify_ad_s(g, nil, v_parts, matrices)
    return AdSMap(g, tuple(matrices))


def _verify_ad_s(
    g: LieAlgebra,
    nil: Subspace,
    v_parts: list[Vector],
    matrices: list[Matrix],
) -> None:
    n = g.dim
    # linearity: the semisimple part of ad over a sum of V-components
    # must equal the sum of the parts
    for i in range(n):
        for j in range(i + 1, n):
            if not any(v_parts[i]) or not any(v_parts[j]):
                continue
            combined = [x + y for x, y in zip(v_parts[i], v_parts[j])]
            semi, _ = jordan_chevalley(g.ad_matrix(combined))
            if not linalg.mat_eq(semi, linalg.mat_add(matrices[i], matrices[j])):
                raise PreconditionError(
                    "ad_s is not linear on the given splitting "
                    f"(basis vectors {g.labels[i]}, {g.labels[j]})"
                )
    # the map must vanish on the nilradical
    for row in nil.rows:
        total = linalg.zeros(n, n)
        for i, c in enumerate(row):
            if c:
                total = linalg.mat_add(total, linalg.mat_scale(c, matrices[i]))
        if not linalg.is_zero_matrix(total):
            raise PreconditionError(
                f"ad_s does not vanish on the nilradical at {g.vector_str(row)}"
            )
    # pairwise commuting images
    for i in range(n):
        for j in range(i + 1, n):
            ab = linalg.mat_mul(matrices[i], matrices[j])
            ba = linalg.mat_mul(matrices[j], matrices[i])
            if not linalg.mat_eq(ab, ba):
                raise PreconditionError(
                    f"ad_s images of {g.labels[i]} and {g.labels[j]} do not commute"
                )
    # each image is a derivation of the bracket
    for i in range(n):
        m = matrices[i]
        if linalg.is_zero_matrix(m):
            continue
        for a in range(n):
            ea = g.basis_vector(a)
            for b in range(a + 1, n):
                eb = g.basis_vector(b)
                lhs = linalg.mat_vec(m, g.bracket(ea, eb))
                rhs = g.bracket(linalg.mat_vec(m, ea), eb)
                for k, c in enumerate(g.bracket(ea, linalg.mat_vec(m, eb))):
                    rhs[k] = rhs[k] + c
                if lhs != rhs:
                    raise PreconditionError(
                        f"ad_s({g.labels[i]}) is not a derivation "
                        f"(fails on [{g.labels[a]}, {g.labels[b]}])"
                    )


def nilshadow(data: SolvableInput) -> tuple[LieAlgebra, LowerCentralSeries]:
    """The nilpotent algebra on the same basis with the corrected bracket,
    with its lower central series (computed for the nilpotency check)."""
    ads = ad_s_map(data)
    g = data.algebra
    n = g.dim
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(n):
        ei = g.basis_vector(i)
        for j in range(i + 1, n):
            ej = g.basis_vector(j)
            vec = g.bracket(ei, ej)
            minus = ads.apply(ei, ej)
            plus = ads.apply(ej, ei)
            comps = {
                k: vec[k] - minus[k] + plus[k]
                for k in range(n)
                if vec[k] - minus[k] + plus[k]
            }
            if comps:
                brackets[(i, j)] = comps
    try:
        shadow = LieAlgebra(g.labels, brackets, validate=True)
    except PreconditionError as exc:
        raise PreconditionError(
            f"input data violates the nilshadow hypotheses: {exc}"
        ) from None
    lcs = lower_central_series(shadow)
    if lcs.nu is None:
        raise PreconditionError(
            "input data violates the nilshadow hypotheses: result is not nilpotent"
        )
    return shadow, lcs
