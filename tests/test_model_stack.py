"""A stack of equal-shape problems fits exactly as its problems do one at a time.

`fit_logistic`, `rfe` and `train_model` take X of shape (B, n, d) and run the
B problems in lockstep. Every per-problem result must be bit-identical to the
2-D call on that problem alone and to the plain 2-D Newton loop of
`oracles.newton_fit_reference`: coefficients, intercepts, selections and
diagnostics, and the stack's Newton-step total must be the sum of the
problems' own counts.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.tracing import _count_fit
from ppgtriage import model
from ppgtriage.model import TIE_RTOL, fit_logistic, fit_standardizer, rfe, train_model

from .oracles import newton_fit_reference, rfe_reference


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_bit_identical(got, want):
    """Two (coef, intercept, diagnostics) results agree bit for bit."""
    (coef, intercept, diag), (want_coef, want_intercept, want_diag) = got, want
    assert _bits(coef) == _bits(want_coef) and _bits(intercept) == _bits(want_intercept)
    assert diag.keys() == want_diag.keys()
    for key, value in diag.items():
        if isinstance(value, float):
            assert _bits(value) == _bits(want_diag[key]), key
        else:
            assert value == want_diag[key], key


def _problems(seed: int, B: int, n: int, d: int, separable: bool):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(B, n, d))
    y = (rng.random((B, n)) < 0.5).astype(float)
    y[:, :2] = [0.0, 1.0]
    if separable and d:             # near-separable: warm steps overshoot and halve
        X[:, :, 0] += 6.0 * (2.0 * y - 1.0)
    return X, y


def _assert_fit_matches_singles(X, y, lam, start=None, **kwargs):
    coef, intercept, diag = fit_logistic(X, y, lam=lam, start=start, **kwargs)
    assert coef.shape == X.shape[::2] and intercept.shape == (len(X),)
    assert isinstance(diag["iterations"], int)
    steps = 0
    for b in range(len(X)):
        one = None if start is None else (start[0][b], start[1][b])
        c, i, d = fit_logistic(X[b], y[b], lam=lam, start=one, **kwargs)
        _assert_bit_identical((c, i, d), newton_fit_reference(X[b], y[b], lam, one, **kwargs))
        assert _bits(coef[b]) == _bits(c) and _bits(intercept[b]) == _bits(i)
        assert _bits(diag["loss"][b]) == _bits(d["loss"])
        assert _bits(diag["grad_norm"][b]) == _bits(d["grad_norm"])
        assert bool(diag["converged"][b]) is d["converged"]
        steps += d["iterations"]
    assert diag["iterations"] == steps
    return diag


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 6), n=st.integers(4, 90),
       d=st.integers(0, 14), lam=st.sampled_from([0.3, 1.0, 1.7]), warm=st.booleans(),
       separable=st.booleans())
def test_stacked_fit_equals_fits_one_at_a_time(seed, B, n, d, lam, warm, separable):
    X, y = _problems(seed, B, n, d, separable)
    start = None
    if warm:
        rng = np.random.default_rng([seed, 1])
        start = (2.0 * rng.normal(size=(B, d)), rng.normal(size=B))
    _assert_fit_matches_singles(X, y, lam, start)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 6), n=st.integers(6, 80),
       d=st.integers(1, 14), k=st.integers(1, 16), lam=st.sampled_from([0.3, 1.0, 1.7]),
       separable=st.booleans(), duplicate=st.booleans())
def test_stacked_rfe_equals_rfe_one_at_a_time(seed, B, n, d, k, lam, separable, duplicate):
    X, y = _problems(seed, B, n, d, separable)
    if duplicate and d > 2:         # an exact coefficient tie, as T_pi/meanPP give
        X[:, :, d - 1] = X[:, :, 1]
    names = [f"f{i}" for i in range(d)]
    selected, coef, intercept, diag = rfe(X, y, names, lam=lam, k=k)
    assert isinstance(diag["iterations"], int)
    assert diag["selected_all"] is (d <= k)
    steps = 0
    for b in range(B):
        s, c, i, d1 = rfe(X[b], y[b], names, lam=lam, k=k)
        active, *reference = rfe_reference(X[b], y[b], k, lam, TIE_RTOL)
        assert s == [names[j] for j in active]
        _assert_bit_identical((c, i, {key: d1[key] for key in reference[2]}), reference)
        assert selected[b] == s
        assert _bits(coef[b]) == _bits(c) and _bits(intercept[b]) == _bits(i)
        assert _bits(diag["loss"][b]) == _bits(d1["loss"])
        assert _bits(diag["grad_norm"][b]) == _bits(d1["grad_norm"])
        assert bool(diag["converged"][b]) is d1["converged"]
        steps += d1["iterations"]
    assert diag["iterations"] == steps


def test_near_separable_warm_stack_halves_steps(monkeypatch):
    """The oracle's near-separable, warm-started problems reach the line
    search's halvings: more problem-loss evaluations than Newton steps plus
    the starting points."""
    evaluated = []
    original = model._loss_grad_proba

    def counting(coef, *args):
        evaluated.append(len(coef))
        return original(coef, *args)

    X, y = _problems(0, 4, 40, 3, separable=True)
    start = (2.0 * np.random.default_rng(1).normal(size=(4, 3)), np.zeros(4))
    monkeypatch.setattr(model, "_loss_grad_proba", counting)
    diag = fit_logistic(X, y, lam=0.3, start=start)[2]
    monkeypatch.undo()
    assert sum(evaluated) > diag["iterations"] + len(X)
    _assert_fit_matches_singles(X, y, 0.3, start)


def test_singular_hessian_falls_back_to_descent_per_problem(monkeypatch):
    """Problem 1 starts where every probability is exactly 0 or 1, so its
    Hessian is singular: the stacked solve fails and that problem alone
    descends along -grad while the others take Newton steps."""
    outcomes = []
    original = model._solve_or_descend

    def recording(H, grad):
        direction = original(H, grad)
        outcomes.append(np.array_equal(direction, -grad))
        return direction

    monkeypatch.setattr(model, "_solve_or_descend", recording)
    X, y = _problems(8, 3, 40, 4, separable=False)
    start = (np.zeros((3, 4)), np.array([0.0, 1000.0, 0.0]))
    coef, _, diag = fit_logistic(X, y, lam=1.0, start=start)
    assert outcomes[:3] == [False, True, False]
    assert diag["converged"].all()
    monkeypatch.undo()
    _assert_fit_matches_singles(X, y, 1.0, start)


def test_uphill_newton_direction_falls_back_to_descent_per_problem():
    """With a negative lam the Hessian is indefinite: in problem 0 the Newton
    direction from zero points uphill (slope >= 0), so that problem descends
    along -grad while problem 1 takes its Newton step."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(2, 30, 3))
    X[0] *= 0.05
    X[1] *= 3.0
    y = (rng.random((2, 30)) < 0.5).astype(float)
    y[0] = [0.0, 1.0] * 15          # balanced, so the intercept gradient is 0
    y[1, :2] = [0.0, 1.0]
    lam = -0.5
    slopes = []
    for b in range(2):
        _, grad_coef, grad_int = model.logistic_loss_grad(np.zeros(3), 0.0, X[b], y[b], lam)
        grad = np.append(grad_coef, grad_int)
        w = np.full(30, 0.25 / 30)
        H = np.empty((4, 4))
        H[:3, :3] = X[b].T @ (X[b] * w[:, None]) + lam * np.eye(3)
        H[:3, 3] = H[3, :3] = (X[b] * w[:, None]).sum(axis=0)
        H[3, 3] = w.sum()
        slopes.append(grad @ -np.linalg.solve(H, grad))
    assert slopes[0] >= 0 > slopes[1]
    _assert_fit_matches_singles(X, y, lam, max_iter=3)


def test_stacked_train_model_groups_by_kept_columns():
    """A column constant in some problems' training rows changes which columns
    their standardizers keep; each such group shares one stacked elimination
    and every model equals the one trained alone."""
    X, y = _problems(13, 5, 30, 6, separable=True)
    X[1, :, 2] = 4.0
    X[3, :, 2] = 4.0
    X[4, :, 5] = -1.0
    names = [f"f{i}" for i in range(6)]
    kept = {fit_standardizer(x, names).kept_mask.tobytes() for x in X}
    assert len(kept) == 3
    models = train_model(X, y, names, lam=1.0, k=3)
    for b, stacked in enumerate(models):
        alone = train_model(X[b], y[b], names, lam=1.0, k=3)
        assert stacked.feature_names == alone.feature_names
        assert _bits(stacked.coef) == _bits(alone.coef)
        assert _bits(stacked.intercept) == _bits(alone.intercept)
        assert stacked.diagnostics == alone.diagnostics
        assert stacked.standardizer.dropped == alone.standardizer.dropped


def test_fit_rejects_stacked_start_of_wrong_shape():
    X, y = _problems(2, 3, 10, 2, separable=False)
    with pytest.raises(ValueError, match="coefficients"):
        fit_logistic(X, y, start=(np.zeros((2, 2)), np.zeros(3)))
    with pytest.raises(ValueError, match="intercepts"):
        fit_logistic(X, y, start=(np.zeros((3, 2)), np.zeros(2)))


def test_tracer_counts_a_stacked_fit_once_with_its_total_steps():
    X, y = _problems(4, 4, 50, 5, separable=False)
    counts = Counter()
    _count_fit(counts, fit_logistic(X, y, lam=1.0))
    assert counts["model.fit_calls"] == 1
    assert counts["model.newton_steps"] == sum(fit_logistic(X[b], y[b], lam=1.0)[2]["iterations"]
                                               for b in range(len(X)))
