"""summlab: a numerical laboratory for summability growth exponents.

Computes, bounds, and empirically estimates how fast restricted summing
quotients of multilinear maps and homogeneous polynomials grow with the
family length n on finite-dimensional normed spaces: weak l_q norms
with exact fast paths and certified search lower bounds, extremal
witness constructions with closed-form normalizations, piecewise bound
tables, and log-log slope regression at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    DegenerateInputError,
    DomainError,
    StructuralError,
    SummLabError,
    ValidityError,
)
from .search import DEFAULT_BUDGET, SearchBudget
from .spaces import (
    Family,
    SpaceDescriptor,
    Vector,
    dual,
    dual_exponent,
    lp,
    norming_functional,
    real_line,
    space_from_json,
    space_to_json,
    sup_slice,
)
from .weak_norms import (
    VectorFamily,
    WeakNormResult,
    weak_norm,
    weak_norm_search,
    weak_norm_vertex_oracle,
)
from .maps import (
    DenseTensor,
    DiagonalC0,
    HomogeneousPolynomial,
    MultilinearMap,
    OperatorNormResult,
    WitnessBody,
    eval_multilinear,
    eval_polynomial,
    mixed_power_sum,
    operator_norm,
    poly_power_sum,
)
from .witnesses import (
    cotype_witness,
    diagonal_product_map,
    identity_witness,
    real_even_witness,
    tensor_witness,
)
from .index_lab import (
    BoundEntry,
    ExactIndex,
    IndexEstimate,
    Provenance,
    QuotientSample,
    WEAK2_GROWTH_CONSTANT,
    bound_table,
    estimate_index,
    exact_index,
    index_shift,
    interpolation_growth_exponent,
    lower_bound_pol_cotype,
    lower_bound_pol_real_even,
    maximize_quotient,
    polynomial_quotient,
    seam_continuity_gaps,
    summing_quotient,
    upper_bound_mult,
    upper_bound_pol,
    weak2_growth_exponent,
)
from .oracles import (
    CheckReport,
    brute_force_mixed_sum,
    brute_force_weak_norm,
    hilbert_identity_check,
    identity_cap_check,
    identity_growth_check,
)
