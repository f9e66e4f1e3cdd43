"""germkit: exact computations with Lie algebra cochain complexes.

Structure constants in, obstruction polynomials out: Jacobi and grading
checks, Jordan-Chevalley decompositions, nilshadows of solvable algebras,
exterior cochain complexes with duality checks, per-degree splittings, and
the deformation series whose harmonic projection presents the flat germ at
the origin.  Everything runs over the Gaussian rationals with no floating
point.
"""

from .cedga import (
    CharacterData,
    Dga,
    TorsionComponent,
    pd_type_check,
    subdga_from_characters,
    verify_subdga,
    wedge_monomials,
)
from .decomp import Decomposition, kernel_containment_check, split_complex
from .errors import GermkitError, InternalCheckError, ParseError, PreconditionError
from .jordan import char_poly, jordan_chevalley, squarefree_part
from .kuranishi import (
    KuranishiSeries,
    ObstructionSystem,
    PolyCochain,
    TensorDgla,
    gauge_identity_check,
    kuranishi_series,
    linear_embedding_check,
    mc_residual,
    obstruction_system,
    verify_degree_bound,
)
from .liealg import (
    Grading,
    LieAlgebra,
    LowerCentralSeries,
    Subspace,
    basis_aligned_weights,
    derived_subalgebra,
    infer_grading_basis_aligned,
    is_solvable,
    lower_central_series,
    verify_natural_grading,
)
from .multipoly import MultiPoly
from .nilshadow import SolvableInput, ad_s_map, nilshadow
from .scalars import Scalar, parse_scalar, scalar

__version__ = "0.1.0"
