"""Exact linear algebra over finite fields for Schubert varieties.

The package builds finite fields, row-reduced subspaces, Grassmannian
enumeration, Schubert varieties attached to partial flags, the
semilinear group acting on them, and seeded verification campaigns that
pit structural criteria against brute-force oracles.
"""

from .errors import BudgetExceededError
from .field import (
    GF,
    field_from_order,
    make_field,
)
from .linalg import (
    Subspace,
    matmul,
    matrix_inverse,
    rref,
)
from .grassmann import (
    Flag,
    adapted_basis,
    enumerate_grassmannian,
    gaussian_binomial,
    random_flag,
    random_subspace,
    rank_subspace,
    standard_flag,
    unrank_subspace,
)
from .schubert import (
    SchubertVariety,
    alpha_nc,
    cell_count_polynomial,
    condition_word,
    dual_index_set,
    equal_fast,
    equal_oracle,
    equality_witness,
    polynomial_value,
)
from .group import (
    SemilinearMap,
    compose,
    enumerate_invertible,
    group_order,
    image_of_schubert,
    is_automorphism_fast,
    is_automorphism_oracle,
    random_semilinear,
)
from .verify import (
    CAMPAIGNS,
    CensusReport,
    VerificationReport,
    stabilizer_census,
    verify_alpha_uniqueness,
    verify_automorphism_criterion,
    verify_covariant_criterion,
    verify_dual_image,
    verify_flag_equality,
    verify_redundancy,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "GF",
    "field_from_order",
    "make_field",
    "Subspace",
    "matmul",
    "matrix_inverse",
    "rref",
    "Flag",
    "adapted_basis",
    "enumerate_grassmannian",
    "gaussian_binomial",
    "random_flag",
    "random_subspace",
    "rank_subspace",
    "standard_flag",
    "unrank_subspace",
    "SchubertVariety",
    "alpha_nc",
    "cell_count_polynomial",
    "condition_word",
    "dual_index_set",
    "equal_fast",
    "equal_oracle",
    "equality_witness",
    "polynomial_value",
    "SemilinearMap",
    "compose",
    "enumerate_invertible",
    "group_order",
    "image_of_schubert",
    "is_automorphism_fast",
    "is_automorphism_oracle",
    "random_semilinear",
    "CAMPAIGNS",
    "CensusReport",
    "VerificationReport",
    "stabilizer_census",
    "verify_alpha_uniqueness",
    "verify_automorphism_criterion",
    "verify_covariant_criterion",
    "verify_dual_image",
    "verify_flag_equality",
    "verify_redundancy",
    "__version__",
]
