"""Multivariate moment functionals through interacting Fock representations.

The package builds degree-graded orthogonal decompositions of moment
functionals, extracts creation / preservation / annihilation block operators,
checks the commutation relations that characterize moment-born data, analyzes
rank deficiency through null-ideal generators, computes marginal recurrence
data, and reconstructs finitely supported measures from validated blocks.
"""

from .errors import (
    DepthExceededError,
    InconsistentMomentsError,
    InternalConsistencyError,
    MvopError,
    NotFinitelySupportedError,
    SpecFormatError,
    ValidationFailedError,
)
from .favard import (
    FockInput,
    ProductCheckResult,
    SelfAdjointnessReport,
    ValidationCheck,
    ValidationReport,
    diagonal_product_check,
    diagonal_table_from_grams,
    grams_from_diagonal_table,
    reconstruct_discrete,
    self_adjointness_bound,
    validate,
)
from .fock import (
    CommutationEntry,
    CommutationReport,
    FockData,
    adjointness_residuals,
    apply_coordinate,
    assemble_fock,
    azero_symmetry_residuals,
    check_commutation,
    creation_matrix,
    nonzero_spectrum,
    vacuum_moment,
)
from .gradation import DegreeBasis, GradationBasis, build_gradations, index_weight
from .marginal import MarginalSpec, jacobi_1d, marginal_functional
from .measures import (
    DiscreteMeasure,
    JacobiPair1D,
    MomentFunctional,
    as_float_functional,
    circle_functional,
    discrete_functional,
    gaussian_functional,
    jacobi_to_moments,
    product_functional,
    table_functional,
)
from .nullideal import (
    NullIdealBasis,
    RankSequence,
    base_generators,
    null_polynomials,
    rank_sequence,
    support_membership,
)
from .polynomial import (
    Polynomial,
    graded_lex_key,
    monomials_of_degree,
    monomials_up_to,
    space_dimension,
)
from .scalars import Tolerances

__version__ = "0.1.0"

__all__ = [
    "CommutationEntry",
    "CommutationReport",
    "DegreeBasis",
    "DepthExceededError",
    "DiscreteMeasure",
    "FockData",
    "FockInput",
    "GradationBasis",
    "InconsistentMomentsError",
    "InternalConsistencyError",
    "JacobiPair1D",
    "MarginalSpec",
    "MomentFunctional",
    "MvopError",
    "NotFinitelySupportedError",
    "NullIdealBasis",
    "Polynomial",
    "ProductCheckResult",
    "RankSequence",
    "SelfAdjointnessReport",
    "SpecFormatError",
    "Tolerances",
    "ValidationCheck",
    "ValidationFailedError",
    "ValidationReport",
    "adjointness_residuals",
    "apply_coordinate",
    "as_float_functional",
    "assemble_fock",
    "azero_symmetry_residuals",
    "base_generators",
    "build_gradations",
    "check_commutation",
    "circle_functional",
    "creation_matrix",
    "diagonal_product_check",
    "diagonal_table_from_grams",
    "discrete_functional",
    "gaussian_functional",
    "graded_lex_key",
    "grams_from_diagonal_table",
    "index_weight",
    "jacobi_1d",
    "jacobi_to_moments",
    "marginal_functional",
    "monomials_of_degree",
    "monomials_up_to",
    "nonzero_spectrum",
    "null_polynomials",
    "product_functional",
    "rank_sequence",
    "reconstruct_discrete",
    "self_adjointness_bound",
    "support_membership",
    "table_functional",
    "validate",
    "vacuum_moment",
]
