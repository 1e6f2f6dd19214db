"""Unambiguous comparison of sharp, non-degenerate quantum measurements.

Two black boxes each implement a projective rank-one measurement.  Are they
the same measurement or different ones?  This package builds the operator
machinery that answers the question without ever risking a false "different":
moment operators of Haar-random bases, the outcome-class hypothesis operators
for the labeled (shared outcome labels, one use of each box) and unlabeled
(qubit boxes, two uses each) protocols, the no-error subspaces where the
equal-devices hypothesis is impossible, the optimal test states drawn from
them, and a deterministic shot-level simulator for the whole procedure.
"""
from ._version import __version__
from .comparison import (
    LABELED_CLASSES,
    UNLABELED_CLASSES,
    ClassOperators,
    LabeledAverages,
    Observable,
    Scenario,
    SuccessReport,
    TestState,
    analytic_success,
    conclusive_classes,
    fixed_pair_class_probability,
    kappa_state,
    labeled_class_operators,
    labeled_fixed_pair_success,
    labeled_outcome_distribution,
    labeled_outcome_probabilities,
    observable_pair_angle,
    optimal_success_over_subspace,
    optimal_test_state,
    outcome_class_index,
    pairwise_success_angle,
    singlet_pairing_state,
    unlabeled_operators,
    unlabeled_outcome_distribution,
    unlabeled_single_use_probability,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionMismatchError,
    InvalidObservableError,
    InvalidStateError,
    NotPositiveSemidefiniteError,
    QmeterError,
    UnambiguityError,
    UnsupportedDimensionError,
)
from .haar import haar_unitaries, haar_unitary, mc_agrees, mc_perp_moment, mc_twirl, twirl
from .simulate import (
    CampaignConfig,
    CampaignResult,
    ShotRecord,
    SweepPoint,
    TruthResult,
    Verdict,
    resolve_test_state,
    run_campaign,
    run_labeled_trial,
    run_unlabeled_trial,
    sweep_theta,
    sweep_to_csv,
)
from .symmetry import (
    SPLITS,
    antisymmetrizer,
    basis_family,
    pair_product,
    perm_operator,
    phi_minus,
    phi_plus,
    split_pairs,
    swap,
    sym_dim,
    symmetrizer,
)
from .tensors import (
    TOL_ABS,
    TOL_RANK,
    Operator,
    Vector,
    basis_ket,
    identity,
    kron,
    rank,
    support_projector,
    vkron,
    zero,
)
from .verify import CheckResult, all_passed, render_report, run_checks

__all__ = [
    "__version__",
    # tensors
    "Operator", "Vector", "identity", "zero", "kron", "vkron", "basis_ket",
    "support_projector", "rank", "TOL_ABS", "TOL_RANK",
    # symmetry
    "SPLITS", "sym_dim", "perm_operator", "swap", "symmetrizer",
    "antisymmetrizer", "split_pairs", "pair_product", "phi_plus", "phi_minus",
    "basis_family",
    # haar
    "twirl", "mc_twirl", "haar_unitary", "haar_unitaries", "mc_perp_moment",
    "mc_agrees",
    # comparison
    "Scenario", "Observable", "TestState", "ClassOperators", "LabeledAverages",
    "SuccessReport", "LABELED_CLASSES", "UNLABELED_CLASSES",
    "labeled_class_operators", "unlabeled_operators", "outcome_class_index",
    "labeled_outcome_probabilities", "labeled_outcome_distribution",
    "labeled_fixed_pair_success", "unlabeled_outcome_distribution",
    "unlabeled_single_use_probability", "singlet_pairing_state", "kappa_state",
    "optimal_test_state", "conclusive_classes", "analytic_success",
    "pairwise_success_angle", "observable_pair_angle",
    "fixed_pair_class_probability", "optimal_success_over_subspace",
    # simulate
    "Verdict", "ShotRecord", "CampaignConfig", "TruthResult", "CampaignResult",
    "resolve_test_state", "run_labeled_trial", "run_unlabeled_trial",
    "run_campaign", "SweepPoint", "sweep_theta", "sweep_to_csv",
    # verify
    "CheckResult", "run_checks", "all_passed", "render_report",
    # errors
    "QmeterError", "DimensionMismatchError", "NotPositiveSemidefiniteError",
    "InvalidObservableError", "InvalidStateError", "UnambiguityError",
    "UnsupportedDimensionError", "ConsistencyError", "ConfigError",
]
