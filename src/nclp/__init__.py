"""Trace-weighted matrix-block L^p spaces: norms of ell^1-valued sequences,
separating maps and their (w, B, J) factorizations, and certification of
the ell^1-extension norm."""

from .algebra import (
    AlgebraDescriptor,
    AlgebraError,
    DomainError,
    Element,
    NumericError,
    StructuralError,
    ToleranceConfig,
    DEFAULT_CONFIG,
    absolute,
    amplify,
    basis,
    block_entries,
    block_matrix,
    diagonal_algebra,
    direct_sum,
    identity,
    matrix_algebra,
    matrix_unit,
    opposite_element,
    polar_support,
    positive_sqrt,
    pseudo_inverse,
    spectral_projection,
    support_projection,
    zero_element,
)
from .lp import (
    conjugate_exponent,
    disjoint,
    duality_pair,
    hs_inner,
    is_positive,
    lp_norm,
)
from .sequences import (
    DinqVerdict,
    ElementSequence,
    NormInterval,
    column_row_norm,
    dinq_disjoint_test,
    l12_norm,
    l1_norm_bounds,
    l1_norm_positive,
    sequence,
    sum_elements,
)
from .maps import (
    LinearMap,
    adjoint_map,
    amplified_map,
    apply_map,
    choi_components,
    commutative_matrix,
    compose,
    convex_combination,
    depolarizing,
    identity_map,
    is_completely_positive,
    jordan_direct_sum,
    kraus_map,
    op_norm,
    positivity_tests,
    rotation_mixing,
    transpose_map,
    unitary_conjugation,
    yeadon_synthetic,
)
from .yeadon import (
    ExtractionFailure,
    SeparatingVerdict,
    StructuralReport,
    YeadonTriple,
    central_decompose,
    certify_separating,
    extract_yeadon,
    structural_checks,
    trace_density,
    verify_jordan,
)
from .certify import (
    IsometryClassification,
    L1Certificate,
    certify_l1_norm,
    classify_l2_isometry,
    constructive_witnesses,
    is_l2_isometry,
    l1_ratio_lower,
    regular_norm_commutative,
)
from .instances import (
    InstanceFile,
    ParseError,
    load_instance,
    make_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)

# the property suite and the structured samplers it draws from load on first
# use, so that ``import nclp`` (and the CLI) does not compile them: each name
# maps to the submodule that defines it, or that it is
_LAZY = {"suite": "suite", "synth": "synth", "PropertyRecord": "suite", "SuiteReport": "suite", "run_suite": "suite"}

__all__ = sorted({n for n in dir() if not n.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
