"""Regularized logistic regression with coefficient-magnitude feature elimination.

The loss is the mean negative log-likelihood plus (lam/2)*||coef||^2 with the
intercept unpenalized. Fitting starts from zero (or from a given start) and
runs damped Newton steps with a backtracking line search until the gradient
norm reaches tolerance, so identical inputs produce bit-identical models.

`fit_logistic`, `rfe` and `train_model` also take a stack of equal-shape
problems: X of shape (B, n, d) with one row of y per problem. The problems run
in lockstep: each Newton step, line-search trial, convergence test and
elimination is one set of numpy calls for every problem still running, and a
converged problem leaves the stack. At the size of one evaluation split (tens
to hundreds of rows, at most 73 columns) call overhead, not arithmetic, sets
most of the time of a single fit. Every problem's result is bit-identical to
fitting it alone: stacked matmul, solve and row reductions give each slice
exactly its 2-D result, and each expression keeps the 2-D operation order.
A 2-D X is a stack of one and gets the 2-D return values.

Elimination removes the feature with the smallest |coefficient| (standardized
scale) one at a time. Magnitudes within a relative TIE_RTOL of the smallest
count as tied, and ties keep the earlier catalog entry, so exactly duplicated
columns do not hinge on float noise. Each elimination refit starts from the
previous solution minus the dropped coefficient, which takes about half the
Newton steps of a zero start. The final refit of the selected features starts
from zero, so the returned model is bit-identical to a zero-start fit of that
selection; a warm final fit would move metrics by about 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import DataError, EvaluationError

GRAD_TOL = 1e-6
TIE_RTOL = 1e-7
MAX_ITER = 10_000
LINE_SEARCH_TRIALS = 60


@dataclass
class Standardizer:
    """Per-feature z-scoring statistics estimated on training rows only.

    Zero-variance features cannot be standardized and are dropped; `apply`
    returns only the kept columns, named by `kept_names`.
    """

    feature_names: list[str]
    mean: np.ndarray
    sd: np.ndarray
    kept_mask: np.ndarray

    @property
    def kept_names(self) -> list[str]:
        return [n for n, keep in zip(self.feature_names, self.kept_mask) if keep]

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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (B, m) arrays, by the same BLAS dot
    as the 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _full_gradient(grad_coef: np.ndarray, grad_intercept: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each problem's gradient with its intercept entry last, and its 2-norm."""
    grad = np.concatenate([grad_coef, grad_intercept[:, None]], axis=1)
    return grad, np.sqrt(_rowdot(grad, grad))


def _first(diagnostics: dict) -> dict:
    """The diagnostics of a stack of one, with its per-problem arrays as scalars."""
    return {key: value[0].item() if isinstance(value, np.ndarray) else value
            for key, value in diagnostics.items()}


def _loss_grad_proba(coef: np.ndarray, intercept: np.ndarray, X: np.ndarray, y: np.ndarray,
                     lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss, gradient and fitted probabilities (which the Newton Hessian reuses)
    of every problem in a stack: coef (B, d), intercept (B,), X (B, n, d) and
    y (B, n), all float64 arrays."""
    n = X.shape[1]
    z = (X @ coef[:, :, None])[:, :, 0] + intercept[:, None]
    loss = np.mean(np.logaddexp(0.0, z) - y * z, axis=1) + _rowdot(0.5 * lam * coef, coef)
    p = _sigmoid(z)
    residual = p - y
    grad_coef = (np.swapaxes(X, 1, 2) @ residual[:, :, None])[:, :, 0] / n + lam * coef
    grad_intercept = residual.mean(axis=1)
    return loss, grad_coef, grad_intercept, p


def _solve_or_descend(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    try:
        return -np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:
        return -grad


def _newton_direction(X: np.ndarray, p: np.ndarray, grad: np.ndarray,
                      lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Each problem's Newton direction and its slope grad @ direction; a problem
    whose Hessian is singular, or whose Newton direction is not a descent
    direction, descends along -grad instead."""
    n, d = X.shape[1:]
    w = p * (1.0 - p) / n
    Xw = X * w[:, :, None]
    H = np.empty((len(X), d + 1, d + 1))
    H[:, :d, :d] = np.swapaxes(X, 1, 2) @ Xw
    diagonal = np.arange(d)
    H[:, diagonal, diagonal] += lam
    H[:, :d, d] = Xw.sum(axis=1)
    H[:, d, :d] = H[:, :d, d]
    H[:, d, d] = w.sum(axis=1)
    try:
        direction = -np.linalg.solve(H, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:       # some Hessian is singular: solve one at a time
        direction = np.array([_solve_or_descend(h, g) for h, g in zip(H, grad)])
    slope = _rowdot(grad, direction)
    uphill = slope >= 0
    if uphill.any():
        direction[uphill] = -grad[uphill]
        slope[uphill] = _rowdot(grad[uphill], direction[uphill])
    return direction, slope


def _line_search(X: np.ndarray, y: np.ndarray, lam: float, coef: np.ndarray,
                 intercept: np.ndarray, loss: np.ndarray, direction: np.ndarray,
                 slope: np.ndarray) -> list[np.ndarray]:
    """Armijo backtracking for every problem: each halves its own step until its
    loss falls enough, and after LINE_SEARCH_TRIALS trials takes the last one.
    Returns the new coef, intercept, loss, gradient and probabilities."""
    d = coef.shape[1]
    step = np.ones(len(X))
    new = [np.empty_like(coef), np.empty_like(intercept), np.empty_like(loss),
           np.empty_like(coef), np.empty_like(intercept), np.empty(X.shape[:2])]
    rows = np.arange(len(X))
    for _ in range(LINE_SEARCH_TRIALS):
        at = slice(None) if len(rows) == len(X) else rows
        trial_coef = coef[at] + step[at, None] * direction[at, :d]
        trial_intercept = intercept[at] + step[at] * direction[at, d]
        trial = (trial_coef, trial_intercept,
                 *_loss_grad_proba(trial_coef, trial_intercept, X[at], y[at], lam))
        for out, value in zip(new, trial):
            out[at] = value
        accepted = trial[2] <= loss[at] + 1e-4 * step[at] * slope[at]
        rows = rows[~accepted]
        if not len(rows):
            break
        step[rows] *= 0.5
    return new


def fit_logistic(X: np.ndarray, y: np.ndarray, lam: float = RunConfig.lam,
                 tol: float = GRAD_TOL, max_iter: int = MAX_ITER, *,
                 start: tuple[np.ndarray, float] | None = None
                 ) -> tuple[np.ndarray, float, dict]:
    """Minimize the regularized logistic loss; returns (coef, intercept, diagnostics).

    Deterministic: zero initialization unless `start` gives a (coef, intercept)
    pair to begin from, Newton direction with an Armijo backtracking line
    search, gradient-descent fallback if a Newton step is unusable.
    Convergence means gradient 2-norm <= tol. A non-finite `lam` raises
    ValueError before the first step.

    A stack X of shape (B, n, d), with y of shape (B, n) and a start of (B, d)
    coefficients and B intercepts, fits its B problems in lockstep and returns
    (B, d) coefficients, B intercepts, and per-problem arrays of `loss`,
    `converged` and `grad_norm`. `iterations` is always an int: the Newton
    steps of the whole stack.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be a finite number, got {lam!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X, y = X[None], y[None]
    B, n, d = X.shape
    if n < 1:
        raise EvaluationError("cannot fit on an empty training set")
    if start is None:
        coef, intercept = np.zeros((B, d)), np.zeros(B)
    else:
        coef = np.array(start[0], dtype=np.float64)
        intercept = np.array(start[1], dtype=np.float64, ndmin=1)
        if coef.shape != ((d,) if single else (B, d)):
            raise ValueError(f"start has {coef.shape} coefficients for {d} features")
        if intercept.shape != (B,):
            raise ValueError(f"start has {intercept.shape} intercepts for {B} problems")
        coef = coef.reshape(B, d)
    loss, grad_coef, grad_int, p = _loss_grad_proba(coef, intercept, X, y, lam)

    fit_coef, fit_intercept = np.empty((B, d)), np.empty(B)
    fit_loss, fit_norm = np.empty(B), np.empty(B)
    steps = np.full(B, max_iter)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)         # problems still iterating; the state arrays hold their rows

    def settle(done: np.ndarray, norm: np.ndarray) -> None:
        finished = live[done]
        fit_coef[finished], fit_intercept[finished] = coef[done], intercept[done]
        fit_loss[finished], fit_norm[finished] = loss[done], norm[done]

    for iteration in range(1, max_iter + 1):
        grad, norm = _full_gradient(grad_coef, grad_int)
        done = norm <= tol
        if done.any():
            settle(done, norm)
            converged[live[done]] = True
            steps[live[done]] = iteration - 1
            keep = ~done
            live = live[keep]
            if not len(live):
                break
            X, y, coef, intercept, loss, p, grad = (
                a[keep] for a in (X, y, coef, intercept, loss, p, grad))
        direction, slope = _newton_direction(X, p, grad, lam)
        coef, intercept, loss, grad_coef, grad_int, p = _line_search(
            X, y, lam, coef, intercept, loss, direction, slope)
    else:                       # out of iterations: the live problems stop unconverged
        settle(np.ones(len(live), dtype=bool), _full_gradient(grad_coef, grad_int)[1])

    diagnostics = {"loss": fit_loss, "iterations": int(steps.sum()),
                   "converged": converged, "grad_norm": fit_norm}
    if single:
        return fit_coef[0], float(fit_intercept[0]), _first(diagnostics)
    return fit_coef, fit_intercept, diagnostics


@dataclass
class LogisticModel:
    """A fitted model: selection, coefficients, and the training standardizer."""

    feature_names: list[str]       # selected features, catalog order
    coef: np.ndarray               # one per selected feature, standardized scale
    intercept: float
    standardizer: Standardizer
    columns: np.ndarray            # each selected feature's column in standardizer.apply(X)
    diagnostics: dict = field(default_factory=dict)


def rfe(X: np.ndarray, y: np.ndarray, feature_names: list[str],
        lam: float = RunConfig.lam, k: int = RunConfig.rfe_k
        ) -> tuple[list[str], np.ndarray, float, dict]:
    """Recursive feature elimination on standardized columns down to k features.

    Returns (selected names, coef, intercept, diagnostics of the final refit).
    With fewer than k features everything is selected (flagged in diagnostics).

    A stack X of shape (B, n, d) with y of shape (B, n) eliminates for all B
    problems in lockstep, one stacked `fit_logistic` per round; each problem
    drops its own column, and names, coefficients and intercepts come back
    per problem as `fit_logistic` returns them for a stack.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X, y = X[None], y[None]
    B, _, d = X.shape
    # Fits see each problem's columns stored one after another, the layout of
    # the column selection X[:, active] in a 2-D fit.
    columns = np.ascontiguousarray(np.swapaxes(X, 1, 2))
    active = np.tile(np.arange(d), (B, 1))      # each problem's remaining columns
    start = None
    while active.shape[1] > k:
        coef, intercept, _ = fit_logistic(np.swapaxes(columns, 1, 2), y, lam=lam, start=start)
        magnitude = np.abs(coef)
        tied = magnitude <= magnitude.min(axis=1, keepdims=True) * (1 + TIE_RTOL)
        # each problem drops its last tied column: ties keep the earlier catalog entry
        drop = tied.shape[1] - 1 - np.argmax(tied[:, ::-1], axis=1)
        keep = np.ones(tied.shape, dtype=bool)
        keep[np.arange(B), drop] = False
        active = active[keep].reshape(B, -1)
        columns = columns[keep].reshape(B, -1, columns.shape[2])
        start = (coef[keep].reshape(B, -1), intercept)
    coef, intercept, diagnostics = fit_logistic(np.swapaxes(columns, 1, 2), y, lam=lam)
    diagnostics["selected_all"] = d <= k
    names = list(feature_names)
    selected = [[names[i] for i in row] for row in active]
    if single:
        return selected[0], coef[0], float(intercept[0]), _first(diagnostics)
    return selected, coef, intercept, diagnostics


def train_model(X: np.ndarray, y: np.ndarray, feature_names: list[str],
                lam: float = RunConfig.lam, k: int = RunConfig.rfe_k) -> LogisticModel:
    """Standardize on the given training rows, eliminate to k features, refit.

    A stack X of shape (B, n, d) with y of shape (B, n) returns a list of B
    models; problems whose standardizers keep the same columns share one
    stacked `rfe`. A model trained in a stack carries its own `loss`,
    `converged` and `grad_norm` but no Newton-step count.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    single = X.ndim == 2
    if single:
        X, y = X[None], y[None]
    standardizers = [fit_standardizer(x, feature_names) for x in X]
    groups: dict[bytes, list[int]] = {}
    for i, standardizer in enumerate(standardizers):
        groups.setdefault(standardizer.kept_mask.tobytes(), []).append(i)
    models: list[LogisticModel] = [None] * len(X)
    for members in groups.values():
        kept_names = standardizers[members[0]].kept_names
        Xs = np.stack([standardizers[i].apply(X[i]) for i in members])
        selected, coef, intercept, fit = rfe(Xs, y[members], kept_names, lam=lam, k=k)
        for j, i in enumerate(members):
            diagnostics = {"loss": float(fit["loss"][j]), "converged": bool(fit["converged"][j]),
                           "grad_norm": float(fit["grad_norm"][j]),
                           "selected_all": fit["selected_all"]}
            columns = np.array([kept_names.index(n) for n in selected[j]], dtype=int)
            models[i] = LogisticModel(feature_names=selected[j], coef=coef[j],
                                      intercept=float(intercept[j]),
                                      standardizer=standardizers[i], columns=columns,
                                      diagnostics=diagnostics)
    return models[0] if single else models


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Predicted probabilities for rows whose columns match the standardizer's
    feature_names; rows missing any selected feature come back as NaN."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(model.standardizer.feature_names):
        raise DataError(
            f"expected {len(model.standardizer.feature_names)} columns, got {X.shape[1]}")
    Xsel = model.standardizer.apply(X)[:, model.columns]
    proba = _sigmoid(Xsel @ model.coef + model.intercept)
    proba[~np.all(np.isfinite(Xsel), axis=1)] = np.nan
    return proba
