"""Convolution algebras, Hilbert-module operators, factorization norms and
bisection duality for finite groupoids."""

from .algebra import (
    act_bisection,
    arrow_function,
    convolution_identity,
    convolve,
    delta,
    i_norm,
    i_norm_range,
    i_norm_source,
    module_action,
    star,
    vee,
)
from .duality import (
    DualityReport,
    ModuleMap,
    PairReport,
    ReconstructionError,
    SupportAnalysis,
    duality_report,
    range_evaluation_map,
    reconstruct_bisection,
    source_evaluation_map,
    support_analysis,
    verify_module_map_pair,
)
from .groupoid import (
    Bisection,
    FiniteGroupoid,
    ValidationReport,
    bisection_inverse,
    bisection_product,
    bisection_through,
    cyclic_table,
    enumerate_bisections,
    group_bundle,
    group_groupoid,
    identity_bisection,
    is_bisection,
    pair_groupoid,
    product_arrow_id,
    product_unit_id,
    product_with_pair_groupoid,
    source_permutation,
    transformation_groupoid,
    validate,
)
from .norms import (
    NormCertificate,
    fourier_norm_bounds,
    fourier_stieltjes_norm,
    schur_cb_norm,
)
from .numerics import hermitian_eigen, hermitian_sqrt
from .positivity import (
    BundleSection,
    GHilbertBundle,
    PdVerdict,
    coefficient,
    gns_bundle,
    gram_matrix,
    integral_form,
    is_positive_definite,
    off_diagonal_embed,
    pd_to_section,
    pd_verdict_integral,
    pd_verdict_pointset,
    quadratic_form,
    regular_coefficient,
    trivial_bundle,
)
from .regular import (
    adjoint_op,
    commutant,
    d_inner,
    extract_multiplier,
    intersect_spans,
    is_adjointable,
    left_delta_ops,
    left_op,
    operator_norm,
    operator_norm_bounds,
    operator_to_module_map,
    reduced_algebra_basis,
    reduced_norm,
    right_delta_ops,
    right_op,
    section_norm,
    span_basis,
    span_dim,
    unit_blocks,
    vn_basis,
)
from .sdp import DiagBoundSdp, SdpInfeasibleError, solve_diag_bound_sdp

__all__ = [name for name in dir() if not name.startswith("_")]
