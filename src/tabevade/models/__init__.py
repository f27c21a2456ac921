"""Built-in defending classifiers behind one uniform contract.

Every model consumes the same min-max-scaled representation the attack's
transformer produces: ``fit`` learns a scaler on the training rows and both
prediction entry points scale raw inputs with it, so callers always pass
raw feature values.  ``predict`` thresholds ``predict_score`` at 0.5 with
ties going positive.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..data import Dataset, ScalerState, atomic_write_text, fit_scaler, transform
from ..errors import FitError, SchemaError, ShapeError
from . import boosting, forest, logistic, mlp, tree

_IMPLS = {
    "logistic_regression": (logistic.LogisticRegression, logistic.DEFAULTS),
    "decision_tree": (tree.DecisionTree, tree.DEFAULTS),
    "random_forest": (forest.RandomForest, forest.DEFAULTS),
    "gradient_boosted_trees": (boosting.GradientBoostedTrees, boosting.DEFAULTS),
    "mlp": (mlp.MLP, mlp.DEFAULTS),
}
MODEL_KINDS = tuple(_IMPLS)

# the least value of each whole-number hyperparameter; an integer max_features counts too
_COUNTS = {"epochs": 1, "batch_size": 1, "hidden": 1, "n_trees": 1, "min_leaf": 1, "max_features": 1, "max_depth": 0}


@dataclass(frozen=True)
class Model:
    kind: str
    scaler: ScalerState
    impl: object
    seed: int = 0

    @property
    def hyperparameters(self) -> dict:
        """The hyperparameters the fitted model holds, in its kind's ``DEFAULTS`` order."""
        return {name: getattr(self.impl, name) for name in _IMPLS[self.kind][1]}

    @property
    def n_features(self) -> int:
        return self.scaler.n_features


def fit(kind: str, train: Dataset, hyperparameters: Mapping | None = None, seed: int = 0) -> Model:
    if kind not in _IMPLS:
        raise FitError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    if train.n_rows == 0:
        raise FitError("cannot fit on an empty dataset")
    if np.unique(train.y).size < 2:
        raise FitError("training data holds a single class; nothing to learn")
    hp = _hyperparameters(kind, hyperparameters or {})
    scaler = fit_scaler(train)
    Xs = transform(train.X, scaler)
    rng = np.random.default_rng(seed)
    impl = _IMPLS[kind][0](**hp).fit(Xs, train.y, rng=rng)
    return Model(kind=kind, scaler=scaler, impl=impl, seed=seed)


def _hyperparameters(kind: str, given: Mapping) -> dict:
    """``given`` as the model would hold it (see :func:`_checked`); FitError on an unknown name."""
    unknown = set(given) - set(_IMPLS[kind][1])
    if unknown:
        raise FitError(f"unknown hyperparameters for {kind}: {sorted(unknown)}")
    return {name: _checked(kind, name, value) for name, value in given.items()}


def _checked(kind: str, name: str, value):
    """``value`` as the model holds it: a count as an int, a rate as a float; FitError if it is not one."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if name == "bootstrap":
        if isinstance(value, bool):
            return value
        need = "true or false"
    elif name == "max_features" and (value is None or value == "sqrt"):
        return value
    elif name in _COUNTS:
        whole = real and (isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value)))
        if whole and value >= _COUNTS[name]:
            return int(value)
        need = f"a whole number of at least {_COUNTS[name]}"
        if name == "max_features":
            need = f"null, 'sqrt' or {need}"
    else:  # a rate
        if real and abs(value) <= sys.float_info.max:  # also refuses nan, and ints no float holds
            return float(value)
        need = "a finite number"
    raise FitError(f"{kind} hyperparameter {name!r} must be {need}, got {value!r}")


def _scale_input(model: Model, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ShapeError("expected a sample matrix")
    if X.shape[1] != model.n_features:
        raise ShapeError(f"matrix has {X.shape[1]} columns, model expects {model.n_features}")
    return transform(X, model.scaler)


def predict_score(model: Model, X) -> np.ndarray:
    """Positive-class scores in [0, 1]."""
    Xs = _scale_input(model, X)
    if Xs.shape[0] == 0:
        return np.zeros(0)
    return np.clip(model.impl.predict_scores(Xs), 0.0, 1.0)


def labels(scores: np.ndarray) -> np.ndarray:
    """Hard labels of scores: 1 where the score reaches 0.5 (ties go positive)."""
    return (scores >= 0.5).astype(int)


def predict(model: Model, X) -> np.ndarray:
    """Hard labels of :func:`predict_score` (see :func:`labels`)."""
    return labels(predict_score(model, X))


def save_model(model: Model, path: Union[str, Path]) -> None:
    payload = {
        "kind": model.kind,
        "seed": model.seed,
        "hyperparameters": model.hyperparameters,
        "scaler": {"mins": list(map(float, model.scaler.mins)), "maxs": list(map(float, model.scaler.maxs))},
        "params": model.impl.to_dict(),
    }
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_model(path: Union[str, Path]) -> Model:
    """Read a model written by :func:`save_model`; any defect raises FitError naming the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise FitError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        kind = payload["kind"]
        if kind not in _IMPLS:
            raise FitError(f"unknown model kind {kind!r}")
        stated = _hyperparameters(kind, payload["hyperparameters"])
        params = payload["params"]
        if any("root" in tree for tree in params.get("trees", [params])):
            raise FitError("it holds nested trees saved before the flat tree layout; retrain the model")
        model = Model(
            kind=kind,
            scaler=ScalerState(
                mins=np.asarray(payload["scaler"]["mins"], dtype=float),
                maxs=np.asarray(payload["scaler"]["maxs"], dtype=float),
            ),
            impl=_IMPLS[kind][0].from_dict(params),
            seed=int(payload["seed"]),
        )
        _check_loaded(model, stated, params)
        return model
    except FitError as exc:
        raise FitError(f"model file {path}: {exc}") from exc
    except (AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError, SchemaError) as exc:
        raise FitError(f"model file {path} is malformed ({type(exc).__name__}: {exc})") from exc


def _check_loaded(model: Model, stated: dict, params: Mapping) -> None:
    """Refuse a loaded model whose fitted hyperparameters are not finite, fail :func:`_checked`
    as written in ``params``, or disagree with the checked top-level ones ``stated`` (a name left
    out means its default, as in :func:`fit`), or whose arrays do not fit the scaler's columns.
    The model keeps each fitted hyperparameter as :func:`_checked` converts it."""
    impl, f = model.impl, model.n_features
    defaults = _IMPLS[model.kind][1]
    for name, fitted in model.hyperparameters.items():
        if isinstance(fitted, float) and not math.isfinite(fitted):
            raise FitError(f"non-finite {name}")
        fitted = _checked(model.kind, name, params[name])
        setattr(impl, name, fitted)
        given = stated.get(name, defaults[name])
        if given != fitted:
            raise FitError(f"hyperparameter {name!r} is {given!r} at the top level "
                           f"but {fitted!r} in the fitted parameters")
    arrays = [("scaler mins", model.scaler.mins, (f,)), ("scaler maxs", model.scaler.maxs, (f,))]
    if model.kind == "logistic_regression":
        arrays += [("weights", impl.weights, (f,)), ("bias", impl.bias, ())]
    elif model.kind == "mlp":
        h = impl.hidden
        arrays += [("w1", impl.w1, (f, h)), ("b1", impl.b1, (h,)), ("w2", impl.w2, (h,)), ("b2", impl.b2, ())]
    elif model.kind == "gradient_boosted_trees":
        arrays += [("base_score", impl.base_score, ())]
    for name, value, shape in arrays:
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise FitError(f"{name} has shape {value.shape}, the scaler's {f} columns need {shape}")
        if not np.isfinite(value).all():
            raise FitError(f"non-finite {name}")
    # tree arrays were checked against the trees' own width on load
    trees = impl.trees if model.kind == "random_forest" else [impl]
    widths = {getattr(tree, "n_features", f) for tree in trees}  # a linear model or MLP has no tree width
    if widths != {f}:
        raise FitError(f"trees are fitted on {sorted(widths)} features, the scaler on {f}")
