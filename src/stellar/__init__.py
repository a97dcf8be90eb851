"""Majorana constellations of permutation-symmetric multiqubit states.

A symmetric n-qubit pure state is equivalent to n points on the sphere
(its stars).  This package converts between the two pictures, evaluates
the barycentric and geometric entanglement measures, composes states by
merging constellations, and reduces permutation-symmetric unitary
dynamics to the (n+1)-dimensional symmetric block, tracking star
trajectories and velocities.
"""

from .composition import compose, make_rng, random_antipodal_state, random_qubit, random_state
from .dynamics import (
    BlockDecomposition,
    Trajectory,
    VelocityProfile,
    build_transition,
    e_b_profile,
    evolve,
    exponentiate,
    operator_symmetry_deficit,
    reduce_unitary,
    velocity_profile,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ExpressionError,
    ExpressionSemanticError,
    ExpressionSyntaxError,
    NumericError,
    ResourceError,
    StellarError,
    SymmetryViolationError,
)
from .hamiltonians import HamiltonianExpr, HermitianOperator, build_matrix, parse, pretty
from .measures import (
    Barycenter,
    GeometricResult,
    barycenter,
    e_b,
    e_g,
    e_g_dicke,
    husimi,
    rotate_state,
)
from .stars import (
    Constellation,
    MajoranaPolynomial,
    Star,
    constellation_from_json,
    constellation_to_csv,
    constellation_to_json,
    geodesic_distance,
    majorana_polynomial,
    plane_to_sphere,
    sphere_to_plane,
    stars_to_state,
    state_to_stars,
)
from .states import (
    FullState,
    QubitState,
    SymmetricState,
    SymmetryReport,
    bell_state,
    coherent_state,
    dicke_state,
    embed_full,
    fidelity,
    ghz_state,
    is_permutation_symmetric,
    jm_to_nk,
    nk_to_jm,
    overlap,
    project_sym,
    rec_family_state,
    state_from_json,
    state_to_json,
    symmetrization_constant,
    symmetrize,
    tetrahedron_state,
)

__version__ = "0.1.0"
