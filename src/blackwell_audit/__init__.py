"""Audit belief-updating rules against the Blackwell informativeness order.

The package decides whether a (prior-parametric) belief-updating rule can
strictly prefer less information, classifies its deviations from Bayesian
updating, and synthesizes independently verifiable counterexamples:
pairs of garbling-ordered experiments plus a decision problem under
which the rule's expected welfare drops when information improves.
"""

from .geometry import (
    Belief,
    EmptyInput,
    Face,
    Hyperplane,
    NoStrictSeparation,
    enumerate_faces,
    face_samples,
    on_segment,
    separating_hyperplane_sets,
    simplex_lattice,
    uniform_belief,
)
from .experiments import (
    BarycenterMismatch,
    DimensionMismatch,
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    PriorNotInterior,
    bayes,
    blackwell_dominates,
    experiment_from_posteriors,
    garble,
)
from .distortions import (
    BayesRule,
    CoarseRule,
    CoarseVerdict,
    Distortion,
    GretherRule,
    GridMiss,
    NonFiniteImage,
    ShrinkageRule,
    StubbornRule,
    StubbornVerdict,
    TabulatedRule,
    TrivialRule,
    WrongDimension,
    affine_chords,
    classify_batch,
    evaluate_batch,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    parse_rule,
    random_rule,
    rule_from_json,
    stubborn_example_a,
    stubborn_example_b,
)
from .decision import (
    DecisionProblem,
    Selector,
    SelectorPolicy,
    WelfareMode,
    expected_payoff,
    quadratic_loss_problem,
    welfare_batch,
)
from .auditor import (
    AuditReport,
    BudgetExhausted,
    ViolationCertificate,
    audit,
    hyperplane_problem,
    verify_certificate,
)

__version__ = "0.1.0"
