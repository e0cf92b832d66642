"""Regularized logistic regression with coefficient-magnitude feature elimination.

The loss is the mean negative log-likelihood plus (lam/2)*||coef||^2 with the
intercept unpenalized. Fitting starts from zero and runs damped Newton steps
with a backtracking line search until the gradient norm reaches tolerance, so
identical inputs produce bit-identical models. Elimination refits after
removing the feature with the smallest |coefficient| (standardized scale) one
at a time; ties keep the earlier catalog entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, EvaluationError

DEFAULT_LAMBDA = 1.0
DEFAULT_RFE_K = 10
GRAD_TOL = 1e-6
MAX_ITER = 10_000


@dataclass
class Standardizer:
    """Per-feature z-scoring statistics estimated on training rows only.

    Zero-variance features cannot be standardized and are dropped (recorded in
    `dropped`); `apply` returns only the kept columns.
    """

    feature_names: list[str]
    mean: np.ndarray
    sd: np.ndarray
    kept_mask: np.ndarray

    @property
    def kept_names(self) -> list[str]:
        return [n for n, keep in zip(self.feature_names, self.kept_mask) if keep]

    @property
    def dropped(self) -> list[str]:
        return [n for n, keep in zip(self.feature_names, self.kept_mask) if not keep]

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X[:, self.kept_mask] - self.mean[self.kept_mask]) / self.sd[self.kept_mask]


def fit_standardizer(X: np.ndarray, feature_names: list[str]) -> Standardizer:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise EvaluationError(f"need at least 2 training rows to standardize, got {X.shape[0]}")
    mean = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    kept = sd > 0
    return Standardizer(feature_names=list(feature_names), mean=mean, sd=sd, kept_mask=kept)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(coef: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray,
                       lam: float) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood + (lam/2)*||coef||^2 and its exact gradient."""
    return _loss_grad_proba(coef, intercept, np.asarray(X, dtype=np.float64),
                            np.asarray(y, dtype=np.float64), lam)[:3]


def _loss_grad_proba(coef: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray,
                     lam: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """`logistic_loss_grad` plus the fitted probabilities, which the Newton
    Hessian reuses; X and y must already be float64 arrays."""
    coef = np.asarray(coef, dtype=np.float64)
    n = X.shape[0]
    z = X @ coef + intercept
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * coef @ coef)
    p = _sigmoid(z)
    residual = p - y
    grad_coef = X.T @ residual / n + lam * coef
    grad_intercept = float(residual.mean())
    return loss, grad_coef, grad_intercept, p


def fit_logistic(X: np.ndarray, y: np.ndarray, lam: float = DEFAULT_LAMBDA,
                 tol: float = GRAD_TOL, max_iter: int = MAX_ITER
                 ) -> tuple[np.ndarray, float, dict]:
    """Minimize the regularized logistic loss; returns (coef, intercept, diagnostics).

    Deterministic: zero initialization, Newton direction with an Armijo
    backtracking line search, gradient-descent fallback if a Newton step is
    unusable. Convergence means gradient 2-norm <= tol.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n < 1:
        raise EvaluationError("cannot fit on an empty training set")
    coef = np.zeros(d)
    intercept = 0.0
    loss, grad_coef, grad_int, p = _loss_grad_proba(coef, intercept, X, y, lam)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = np.concatenate([grad_coef, [grad_int]])
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            converged = True
            iterations -= 1
            break

        w = p * (1.0 - p) / n
        Xw = X * w[:, None]
        H = np.empty((d + 1, d + 1))
        H[:d, :d] = X.T @ Xw
        H[:d, :d][np.diag_indices(d)] += lam
        H[:d, d] = Xw.sum(axis=0)
        H[d, :d] = H[:d, d]
        H[d, d] = w.sum()
        try:
            direction = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:  # pragma: no cover
            direction = -grad
        slope = float(grad @ direction)
        if slope >= 0:
            direction = -grad
            slope = float(grad @ direction)

        step = 1.0
        for _ in range(60):
            new_coef = coef + step * direction[:d]
            new_intercept = intercept + step * direction[d]
            new_loss, new_gc, new_gi, new_p = _loss_grad_proba(new_coef, new_intercept,
                                                               X, y, lam)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        coef, intercept = new_coef, new_intercept
        loss, grad_coef, grad_int, p = new_loss, new_gc, new_gi, new_p

    diagnostics = {
        "loss": loss,
        "iterations": iterations,
        "converged": converged,
        "grad_norm": float(np.linalg.norm(np.concatenate([grad_coef, [grad_int]]))),
    }
    return coef, float(intercept), diagnostics


@dataclass
class LogisticModel:
    """A fitted model: selection, coefficients, and the training standardizer."""

    feature_names: list[str]       # selected features, catalog order
    coef: np.ndarray               # one per selected feature, standardized scale
    intercept: float
    lam: float
    standardizer: Standardizer
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "catalog_version": _catalog_version(),
            "selected_features": list(self.feature_names),
            "coefficients": [float(v) for v in self.coef],
            "intercept": float(self.intercept),
            "lambda": float(self.lam),
            "standardizer": {
                "feature_names": list(self.standardizer.feature_names),
                "mean": [float(v) for v in self.standardizer.mean],
                "sd": [float(v) for v in self.standardizer.sd],
                "kept": [bool(v) for v in self.standardizer.kept_mask],
            },
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LogisticModel":
        std = doc["standardizer"]
        return cls(
            feature_names=list(doc["selected_features"]),
            coef=np.array(doc["coefficients"], dtype=np.float64),
            intercept=float(doc["intercept"]),
            lam=float(doc["lambda"]),
            standardizer=Standardizer(
                feature_names=list(std["feature_names"]),
                mean=np.array(std["mean"], dtype=np.float64),
                sd=np.array(std["sd"], dtype=np.float64),
                kept_mask=np.array(std["kept"], dtype=bool),
            ),
            diagnostics=dict(doc.get("diagnostics", {})),
        )


def _catalog_version() -> str:
    from .features import CATALOG_VERSION

    return CATALOG_VERSION


def save_model(model: LogisticModel, path: Path | str) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


def load_model(path: Path | str) -> LogisticModel:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    return LogisticModel.from_dict(json.loads(path.read_text()))


def rfe(X: np.ndarray, y: np.ndarray, feature_names: list[str],
        lam: float = DEFAULT_LAMBDA, k: int = DEFAULT_RFE_K
        ) -> tuple[list[str], np.ndarray, float, dict]:
    """Recursive feature elimination on standardized columns down to k features.

    Returns (selected names, coef, intercept, diagnostics of the final refit).
    With fewer than k features everything is selected (flagged in diagnostics).
    """
    X = np.asarray(X, dtype=np.float64)
    names = list(feature_names)
    active = list(range(X.shape[1]))
    selected_all = X.shape[1] <= k
    while len(active) > k:
        coef, _, _ = fit_logistic(X[:, active], y, lam=lam)
        magnitude = np.abs(coef)
        smallest = magnitude.min()
        ties = np.flatnonzero(magnitude == smallest)
        del active[int(ties[-1])]       # ties keep the earlier catalog entry
    coef, intercept, diagnostics = fit_logistic(X[:, active], y, lam=lam)
    diagnostics["selected_all"] = selected_all
    return [names[i] for i in active], coef, intercept, diagnostics


def train_model(X: np.ndarray, y: np.ndarray, feature_names: list[str],
                lam: float = DEFAULT_LAMBDA, k: int = DEFAULT_RFE_K) -> LogisticModel:
    """Standardize on the given training rows, eliminate to k features, refit."""
    standardizer = fit_standardizer(X, feature_names)
    Xs = standardizer.apply(X)
    selected, coef, intercept, diagnostics = rfe(Xs, y, standardizer.kept_names, lam=lam, k=k)
    if standardizer.dropped:
        diagnostics["dropped_features"] = standardizer.dropped
    sel_idx = [standardizer.kept_names.index(n) for n in selected]
    model = LogisticModel(feature_names=selected, coef=coef, intercept=intercept,
                          lam=lam, standardizer=standardizer, diagnostics=diagnostics)
    model.diagnostics["selected_columns"] = sel_idx
    return model


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Predicted probabilities for rows whose columns match the standardizer's
    feature_names; rows missing any selected feature come back as NaN."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(model.standardizer.feature_names):
        raise DataError(
            f"expected {len(model.standardizer.feature_names)} columns, got {X.shape[1]}")
    Xs = model.standardizer.apply(X)
    kept_names = model.standardizer.kept_names
    sel = np.array([kept_names.index(n) for n in model.feature_names], dtype=int)
    Xsel = Xs[:, sel] if len(sel) else np.empty((X.shape[0], 0))
    z = Xsel @ model.coef + model.intercept
    proba = _sigmoid(z)
    if len(sel):
        missing = ~np.all(np.isfinite(Xsel), axis=1)
        proba[missing] = np.nan
    return proba
