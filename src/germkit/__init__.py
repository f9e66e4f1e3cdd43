"""germkit: exact computations with Lie algebra cochain complexes.

Structure constants in, obstruction polynomials out: Jacobi and grading
checks, Jordan-Chevalley decompositions, nilshadows of solvable algebras,
exterior cochain complexes with duality checks, per-degree splittings, and
the deformation series whose harmonic projection presents the flat germ at
the origin.  Everything runs over the Gaussian rationals with no floating
point.

The command line (``germkit.cli``) is the interface; the package root
exports nothing, and callers import the module they use.
"""
