"""tabevade: mimicry evasion attacks on tabular classifiers.

A one-shot, gradient-free attack that perturbs the n most important
features of a sample toward the target class's mean, plus the evaluation
harness (grid search, max-success curves) and a problem-space back end
that realizes perturbations as invisible HTML additions.
"""
from .attack import (
    AttackConfig,
    AttackPlan,
    DirectionVector,
    build_plan,
    compute_direction,
    perturb,
    perturb_batch,
    select_features,
)
from .data import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    ScalerState,
    fit_scaler,
    inverse_transform,
    load_dataset,
    load_schema,
    save_schema,
    split,
    transform,
)
from .errors import TabevadeError
from .evaluation import (
    EvaluationReport,
    GridRecord,
    GridResult,
    GridSpec,
    epsilon_grid,
    evaluate_attack,
    grid_search,
    max_success_curve,
)
from .metrics import auprc, recall, success_rate
from .models import MODEL_KINDS, Model, fit, load_model, predict, predict_score, save_model
from .ranking import (
    RANKING_METHODS,
    FeatureRanking,
    ffs_rank,
    gini_gain,
    info_gain,
    info_gain_ratio,
    permutation_importance,
    rank_features,
    rfe_rank,
)
from .webfeatures import (
    ADDABLE_WEB_FEATURES,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    default_web_schema,
    extract_features,
)
from .webspace import InjectionPlan, inject, plan_injection, problem_space_attack

__version__ = "0.4.0"
