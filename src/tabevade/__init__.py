"""tabevade: mimicry evasion attacks on tabular classifiers.

A one-shot, gradient-free attack that perturbs the n most important
features of a sample toward the target class's mean, plus the evaluation
harness (grid search, max-success curves) and a problem-space back end
that realizes perturbations as invisible HTML additions.

Submodules load on first use: ``import tabevade`` loads none of them, and
``tabevade.load_dataset`` loads only ``tabevade.data`` and what it imports.
"""
import importlib

__version__ = "0.4.2"

# each public name the package exports, and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("AttackConfig", "AttackPlan", "DirectionVector", "build_plan", "compute_direction", "perturb",
                     "perturb_batch", "select_features"), "attack"),
    **dict.fromkeys(("Dataset", "FeatureSchema", "FeatureSpec", "ScalerState", "fit_scaler", "inverse_transform",
                     "load_dataset", "load_schema", "save_schema", "split", "transform"), "data"),
    "TabevadeError": "errors",
    **dict.fromkeys(("EvaluationReport", "GridRecord", "GridResult", "GridSpec", "epsilon_grid", "evaluate_attack",
                     "grid_search", "max_success_curve"), "evaluation"),
    **dict.fromkeys(("auprc", "recall", "success_rate"), "metrics"),
    **dict.fromkeys(("MODEL_KINDS", "Model", "fit", "load_model", "predict", "predict_score", "save_model"), "models"),
    **dict.fromkeys(("RANKING_METHODS", "FeatureRanking", "ffs_rank", "gini_gain", "info_gain", "info_gain_ratio",
                     "permutation_importance", "rank_features", "rfe_rank"), "ranking"),
    **dict.fromkeys(("ADDABLE_WEB_FEATURES", "WEB_FEATURE_NAMES", "WebFeatureVector", "WebPage",
                     "default_web_schema", "extract_features"), "webfeatures"),
    **dict.fromkeys(("InjectionPlan", "inject", "plan_injection", "problem_space_attack"), "webspace"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, from its submodule, which loads now if it has not; else a submodule by that name."""
    module = _EXPORTS.get(name)
    if module is None:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise  # the submodule exists, something it imports does not
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
