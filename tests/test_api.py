"""The public API: every name in ``nclp.__all__``.

A change to this list is a change to the public API; update the list here
and record the change in CHANGES.md.
"""

import os
import subprocess
import sys

import nclp

PUBLIC_API = [
    "AlgebraDescriptor",
    "AlgebraError",
    "DEFAULT_CONFIG",
    "DinqVerdict",
    "DomainError",
    "Element",
    "ElementSequence",
    "ExtractionFailure",
    "InstanceFile",
    "IsometryClassification",
    "L1Certificate",
    "LinearMap",
    "NormInterval",
    "NumericError",
    "ParseError",
    "PropertyRecord",
    "SeparatingVerdict",
    "StructuralError",
    "StructuralReport",
    "SuiteReport",
    "ToleranceConfig",
    "YeadonTriple",
    "absolute",
    "adjoint_map",
    "algebra",
    "amplified_map",
    "amplify",
    "apply_map",
    "basis",
    "block_entries",
    "block_matrix",
    "central_decompose",
    "certify",
    "certify_l1_norm",
    "certify_separating",
    "choi_components",
    "classify_l2_isometry",
    "column_row_norm",
    "commutative_matrix",
    "compose",
    "conjugate_exponent",
    "constructive_witnesses",
    "convex_combination",
    "depolarizing",
    "diagonal_algebra",
    "dinq_disjoint_test",
    "direct_sum",
    "disjoint",
    "duality_pair",
    "extract_yeadon",
    "hs_inner",
    "identity",
    "identity_map",
    "instances",
    "is_completely_positive",
    "is_l2_isometry",
    "is_positive",
    "jordan_direct_sum",
    "kraus_map",
    "l12_norm",
    "l1_norm_bounds",
    "l1_norm_positive",
    "l1_ratio_lower",
    "load_instance",
    "lp",
    "lp_norm",
    "make_instance",
    "maps",
    "matrix_algebra",
    "matrix_unit",
    "op_norm",
    "opposite_element",
    "parse_instance",
    "polar_support",
    "positive_sqrt",
    "positivity_tests",
    "pseudo_inverse",
    "regular_norm_commutative",
    "rotation_mixing",
    "run_suite",
    "sampling",
    "save_instance",
    "sequence",
    "sequences",
    "serialize_instance",
    "spectral_projection",
    "structural_checks",
    "suite",
    "sum_elements",
    "support_projection",
    "synth",
    "trace_density",
    "transpose_map",
    "unitary_conjugation",
    "verify_jordan",
    "yeadon",
    "yeadon_synthetic",
    "zero_element",
]


def test_public_api_is_pinned():
    assert sorted(nclp.__all__) == PUBLIC_API


def test_cli_import_leaves_the_suite_and_the_synthetic_samplers_unloaded():
    # nclp serves suite, synth and the suite's names on first use, so the
    # CLI (and every benchmark process) does not compile them at start-up
    probe = ("import sys, nclp.cli; "
             "assert not {'nclp.suite', 'nclp.synth'} & set(sys.modules); "
             "import nclp; "
             "assert nclp.run_suite is nclp.suite.run_suite and nclp.SuiteReport is nclp.suite.SuiteReport; "
             "assert nclp.PropertyRecord is nclp.suite.PropertyRecord and nclp.synth.__name__ == 'nclp.synth'")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nclp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
