"""Single-hidden-layer perceptron (ReLU units, sigmoid output, Adam)."""
from __future__ import annotations

import numpy as np

from .logistic import sigmoid

DEFAULTS = {"hidden": 64, "epochs": 200, "learning_rate": 1e-3, "batch_size": 128}


class MLP:
    def __init__(self, hidden=64, epochs=200, learning_rate=1e-3, batch_size=128):
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.w1 = self.b1 = self.w2 = None
        self.b2 = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, f = X.shape
        # w1, b1, w2 and b2 (and their gradients) are views into one flat
        # vector, so each step takes one Adam update over every parameter
        size = f * self.hidden + 2 * self.hidden + 1
        theta, grad = np.zeros(size), np.zeros(size)
        w1, b1, w2, b2 = self._unflatten(theta, f)
        grad_w1, grad_b1, grad_w2, grad_b2 = self._unflatten(grad, f)
        w1[...] = rng.normal(0.0, np.sqrt(2.0 / max(f, 1)), size=(f, self.hidden))
        w2[...] = rng.normal(0.0, np.sqrt(2.0 / self.hidden), size=self.hidden)
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                rows = order[start : start + self.batch_size]
                xb, yb = X[rows], y[rows]
                hidden_raw = xb @ w1 + b1
                hidden = np.maximum(hidden_raw, 0.0)
                p = sigmoid(hidden @ w2 + b2[0])
                # BCE gradient w.r.t. the raw output is (p - y) / batch
                delta_out = (p - yb) / rows.size
                grad_w2[...] = hidden.T @ delta_out
                grad_b2[0] = delta_out.sum()
                delta_hidden = np.outer(delta_out, w2) * (hidden_raw > 0.0)
                grad_w1[...] = xb.T @ delta_hidden
                grad_b1[...] = delta_hidden.sum(axis=0)
                step += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self.w1, self.b1, self.w2 = w1.copy(), b1.copy(), w2.copy()
        self.b2 = float(b2[0])
        return self

    def _unflatten(self, flat: np.ndarray, f: int) -> tuple[np.ndarray, ...]:
        """``(w1, b1, w2, b2)`` as views into ``flat``, with b2 of shape (1,)."""
        cut = np.cumsum([f * self.hidden, self.hidden, self.hidden])
        w1, b1, w2, b2 = np.split(flat, cut)
        return w1.reshape(f, self.hidden), b1, w2, b2

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        hidden = np.maximum(X @ self.w1 + self.b1, 0.0)
        return sigmoid(hidden @ self.w2 + self.b2)

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in DEFAULTS},
            "w1": [list(map(float, row)) for row in self.w1],
            "b1": list(map(float, self.b1)),
            "w2": list(map(float, self.w2)),
            "b2": self.b2,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MLP":
        model = cls(**{name: payload[name] for name in DEFAULTS})
        model.w1 = np.asarray(payload["w1"], dtype=float)
        model.b1 = np.asarray(payload["b1"], dtype=float)
        model.w2 = np.asarray(payload["w2"], dtype=float)
        model.b2 = float(payload["b2"])
        return model
