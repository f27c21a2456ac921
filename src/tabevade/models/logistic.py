"""Logistic regression via full-batch gradient descent with L2 penalty."""
from __future__ import annotations

import numpy as np

DEFAULTS = {"epochs": 500, "l2": 1e-4, "learning_rate": 0.5}


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # numerically stable form


def descend(X: np.ndarray, y: np.ndarray, epochs: int, l2: float, learning_rate: float, counts=None):
    """Fit one logistic regression per design matrix of a (C, n, k) stack.

    All C fits share the labels ``y`` and run the same full-batch steps
    together; returns weights (C, k) and biases (C,).  Slice c gets the
    bits a fit on ``X[c]`` alone gets, provided every slice has the memory
    layout that lone matrix would have: the stacked products run the same
    BLAS kernel per slice.  With one column, ``X @ w`` is one multiply per
    row, so a broadcast product gives its bits without numpy's slow
    stacked-matmul loop for an inner dimension of 1.

    With ``counts`` (C, n), row r of slice c stands for ``counts[c, r]``
    training rows, ``y[c, r]`` (a (C, n) array) of them positive: the same
    descent on the same loss, its sums grouped by row, so the error is
    ``sigmoid(z) * counts - y`` and the sums divide by the slice's total
    count.  A row of count 0 adds nothing.  Without ``counts`` every row
    counts 1 and the labels ``y`` (n,) are shared: ``p * 1.0`` is ``p``, and
    the sums divide by n.
    """
    C, n, k = X.shape
    Xt = X.transpose(0, 2, 1)
    times = np.multiply if k == 1 else np.matmul
    Y, counts = y[..., None], (np.ones(n) if counts is None else counts)[..., None]
    total = counts.sum(axis=-2, keepdims=True)
    w = np.zeros((C, k, 1))
    b = np.zeros((C, 1, 1))
    for _ in range(epochs):
        err = sigmoid(times(X, w) + b) * counts - Y
        w -= learning_rate * (Xt @ err / total + l2 * w)
        b -= learning_rate * (err.sum(axis=1, keepdims=True) / total)
    return w[:, :, 0], b[:, 0, 0]


class LogisticRegression:
    def __init__(self, epochs=500, l2=1e-4, learning_rate=0.5):
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self.learning_rate = float(learning_rate)
        self.weights: np.ndarray | None = None
        self.bias = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None):
        X = np.asarray(X, dtype=float)
        w, b = descend(X[None], np.asarray(y, dtype=float), self.epochs, self.l2, self.learning_rate)
        self.weights = w[0]
        self.bias = float(b[0])
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(X, dtype=float) @ self.weights + self.bias)

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in DEFAULTS},
            "weights": list(map(float, self.weights)),
            "bias": self.bias,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogisticRegression":
        model = cls(**{name: payload[name] for name in DEFAULTS})
        model.weights = np.asarray(payload["weights"], dtype=float)
        model.bias = float(payload["bias"])
        return model
