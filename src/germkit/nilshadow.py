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

from . import linalg
from .errors import PreconditionError
from .jordan import jordan_chevalley
from .liealg import (
    Frozen,
    LieAlgebra,
    LowerCentralSeries,
    Subspace,
    derived_series,
    lower_central_series,
    restricted_lower_central_series,
)
from .linalg import Row, SparseColumns
from .scalars import ONE, Scalar


class SolvableInput(Frozen):
    """A solvable algebra with a declared nilradical and complement, both
    subspaces of the algebra's own space."""

    __slots__ = ("algebra", "nilradical", "complement")

    def __init__(self, algebra: LieAlgebra, nilradical: Subspace, complement: Subspace):
        self._assign(algebra=algebra, nilradical=nilradical, complement=complement)


def _sum(*vectors: Row) -> Row:
    """The sum of sparse vectors, entries that cancel dropped."""
    columns = [v.items() for v in vectors]
    return linalg.apply(columns, [(k, ONE) for k in range(len(columns))])


def validate_solvable_input(data: SolvableInput) -> list[SparseColumns]:
    """Raise PreconditionError naming the first violated hypothesis.

    Returns the semisimple parts (ad_A)_s of the complement rows A, in row
    order, which the check computes.
    """
    g = data.algebra
    n = g.dim
    nil, comp = data.nilradical, data.complement
    if nil.intersection_dim(comp) != 0 or nil.dim + comp.dim != n:
        raise PreconditionError(
            "complement does not split the algebra: V + n is not a direct sum"
        )
    series = derived_series(g)
    if not series[-1].is_zero():
        raise PreconditionError("algebra is not solvable")
    if not nil.contains_subspace(series[1]):
        raise PreconditionError("nilradical does not contain [g, g]")
    for i in range(n):
        for row in nil.rows:
            if not nil.contains(g.bracket(g.basis_vector(i), row)):
                raise PreconditionError(
                    f"nilradical is not an ideal: [{g.labels[i]}, n] leaves n"
                )
    if restricted_lower_central_series(g, nil).nu is None:
        raise PreconditionError("declared nilradical is not nilpotent")
    semis = []
    for a_row in comp.rows:
        semi, _ = jordan_chevalley(g.ad(a_row))
        semis.append(semi)
        for b_row in comp.rows:
            if linalg.apply(semi, b_row.items()):
                raise PreconditionError(
                    "semisimple part of ad_A does not kill V: "
                    f"(ad_A)_s(B) != 0 for A={g.vector_str(a_row)}, "
                    f"B={g.vector_str(b_row)}"
                )
    return semis


def ad_s_map(data: SolvableInput) -> list[SparseColumns]:
    """The matrices of the semisimple-part map ad_s on each basis vector.

    The assignment is linear, the images commute pairwise, every matrix is
    a derivation of the algebra, and the map kills the nilradical; all of
    this is verified before they are returned.
    """
    semis = validate_solvable_input(data)
    g = data.algebra
    n = g.dim
    nil, comp = data.nilradical, data.complement

    # Row i: the coordinates of e_i in the (V rows | n rows) basis, a basis
    # since validation found V + n a direct sum of dimension n.
    coords = linalg.coordinates(comp.rows + nil.rows, n)
    comp_columns = [row.items() for row in comp.rows]
    v_parts: list[Row] = []
    matrices = []
    for row in coords:
        v_coords = [(j, c) for j, c in row.items() if j < comp.dim]
        v_part = linalg.apply(comp_columns, v_coords)
        v_parts.append(v_part)
        if len(v_coords) == 1:
            # (c ad_A)_s = c (ad_A)_s, and validation decomposed ad_A.
            j, c = v_coords[0]
            matrices.append(linalg.combine((c,), (semis[j],)))
        elif v_coords:
            matrices.append(jordan_chevalley(g.ad(v_part))[0])
        else:
            matrices.append([[] for _ in range(n)])

    _verify_ad_s(g, nil, v_parts, matrices)
    return matrices


def _verify_ad_s(
    g: LieAlgebra,
    nil: Subspace,
    v_parts: list[Row],
    matrices: list[SparseColumns],
) -> None:
    n = g.dim
    # linearity: the semisimple part of ad over a sum of V-components
    # must equal the sum of the parts
    for i in range(n):
        for j in range(i + 1, n):
            if not v_parts[i] or not v_parts[j]:
                continue
            semi, _ = jordan_chevalley(g.ad(_sum(v_parts[i], v_parts[j])))
            if semi != linalg.combine((ONE, ONE), (matrices[i], matrices[j])):
                raise PreconditionError(
                    "ad_s is not linear on the given splitting "
                    f"(basis vectors {g.labels[i]}, {g.labels[j]})"
                )
    # the map must vanish on the nilradical
    for row in nil.rows:
        if any(linalg.combine(list(row.values()), [matrices[i] for i in row])):
            raise PreconditionError(
                f"ad_s does not vanish on the nilradical at {g.vector_str(row)}"
            )
    # pairwise commuting images
    for i in range(n):
        for j in range(i + 1, n):
            ab = linalg.mat_mul(matrices[i], matrices[j])
            ba = linalg.mat_mul(matrices[j], matrices[i])
            if ab != ba:
                raise PreconditionError(
                    f"ad_s images of {g.labels[i]} and {g.labels[j]} do not commute"
                )
    # each image is a derivation of the bracket
    for i in range(n):
        m = matrices[i]
        if not any(m):
            continue
        for a in range(n):
            ea = g.basis_vector(a)
            for b in range(a + 1, n):
                eb = g.basis_vector(b)
                lhs = linalg.apply(m, g.bracket(ea, eb).items())
                rhs = _sum(g.bracket(dict(m[a]), eb), g.bracket(ea, dict(m[b])))
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
        for j in range(i + 1, n):
            # [X_i, X_j] - ad_s(X_i)(X_j) + ad_s(X_j)(X_i)
            comps = g.bracket(g.basis_vector(i), g.basis_vector(j))
            linalg.apply(ads[i], [(j, -ONE)], comps)
            linalg.apply(ads[j], [(i, ONE)], comps)
            if comps:
                brackets[(i, j)] = comps
    try:
        shadow = LieAlgebra(g.labels, brackets)
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
