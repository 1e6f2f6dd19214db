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
    Observable,
    Scenario,
    SuccessReport,
    TestState,
    analytic_success,
    class_probabilities,
    conclusive_classes,
    kappa_state,
    labeled_class_operators,
    optimal_test_state,
    outcome_class_index,
    outcome_table,
    pairwise_success_angle,
    unlabeled_operators,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionMismatchError,
    InvalidObservableError,
    InvalidStateError,
    NotPositiveSemidefiniteError,
    QmeterError,
    UnsupportedDimensionError,
)
from .haar import haar_unitaries, mc_agrees, mc_perp_moment, mc_twirl, twirl
from .simulate import (
    CampaignConfig,
    CampaignResult,
    ShotRecord,
    SweepPoint,
    TruthResult,
    Verdict,
    resolve_test_state,
    run_campaign,
    run_trial,
    sweep_theta,
    sweep_to_csv,
)
from .symmetry import antisymmetrizer, basis_family
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
)
from .verify import CheckResult, all_passed, render_report, run_checks

__all__ = [
    "__version__",
    # tensors
    "Operator", "Vector", "identity", "kron", "basis_ket", "support_projector", "rank",
    "TOL_ABS", "TOL_RANK",
    # symmetry (verify's oracles; the benchmark's workloads read these two)
    "antisymmetrizer", "basis_family",
    # haar
    "twirl", "mc_twirl", "haar_unitaries", "mc_perp_moment", "mc_agrees",
    # comparison
    "Scenario", "Observable", "TestState", "ClassOperators", "SuccessReport",
    "LABELED_CLASSES", "UNLABELED_CLASSES", "labeled_class_operators",
    "unlabeled_operators", "outcome_class_index", "outcome_table",
    "class_probabilities", "kappa_state",
    "optimal_test_state", "conclusive_classes", "analytic_success",
    "pairwise_success_angle",
    # simulate
    "Verdict", "ShotRecord", "CampaignConfig", "TruthResult", "CampaignResult",
    "resolve_test_state", "run_trial", "run_campaign", "SweepPoint",
    "sweep_theta", "sweep_to_csv",
    # verify
    "CheckResult", "run_checks", "all_passed", "render_report",
    # errors
    "QmeterError", "DimensionMismatchError", "NotPositiveSemidefiniteError",
    "InvalidObservableError", "InvalidStateError", "UnsupportedDimensionError",
    "ConsistencyError", "ConfigError",
]
