import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgtriage.evaluate import auroc
from ppgtriage.model import (TIE_RTOL, LogisticModel, fit_logistic, fit_standardizer,
                             logistic_loss_grad, predict_proba, rfe, train_model)


def test_standardizer_arithmetic():
    X = np.array([[1.0], [2.0], [3.0]])
    std = fit_standardizer(X, ["f"])
    assert std.mean[0] == 2.0 and std.sd[0] == 1.0
    assert np.allclose(std.apply(X).ravel(), [-1.0, 0.0, 1.0])


def test_standardizer_drops_constant_column():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    std = fit_standardizer(X, ["a", "b"])
    assert std.dropped == ["b"]
    assert std.kept_names == ["a"]
    assert std.apply(X).shape == (3, 1)


def test_standardizer_applies_training_stats_to_new_rows():
    std = fit_standardizer(np.array([[0.0], [10.0]]), ["a"])
    z = std.apply(np.array([[5.0], [20.0]]))
    assert np.allclose(z.ravel(), [0.0, 15.0 / std.sd[0]])


def test_loss_at_zero_is_log_two():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.array([0, 1] * 20)
    loss, _, _ = logistic_loss_grad(np.zeros(3), 0.0, X, y, lam=0.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        coef = rng.normal(size=d)
        intercept = float(rng.normal())
        lam = float(rng.uniform(0.0, 2.0))
        _, grad_coef, grad_int = logistic_loss_grad(coef, intercept, X, y, lam)
        for j in range(d):
            delta = np.zeros(d)
            delta[j] = h
            up, _, _ = logistic_loss_grad(coef + delta, intercept, X, y, lam)
            dn, _, _ = logistic_loss_grad(coef - delta, intercept, X, y, lam)
            assert abs(grad_coef[j] - (up - dn) / (2 * h)) <= 1e-6
        up, _, _ = logistic_loss_grad(coef, intercept + h, X, y, lam)
        dn, _, _ = logistic_loss_grad(coef, intercept - h, X, y, lam)
        assert abs(grad_int - (up - dn) / (2 * h)) <= 1e-6


def test_huge_regularization_zeroes_coefficients():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.3).astype(float)
    coef, intercept, diag = fit_logistic(X, y, lam=1e6)
    assert diag["converged"]
    assert np.max(np.abs(coef)) < 1e-4
    base_rate = y.mean()
    assert intercept == pytest.approx(math.log(base_rate / (1 - base_rate)), abs=1e-3)


def test_zero_feature_fit_gives_base_rate_intercept():
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    coef, intercept, diag = fit_logistic(np.empty((8, 0)), y, lam=1.0)
    assert diag["converged"]
    assert coef.shape == (0,)
    expected = math.log(y.mean() / (1 - y.mean()))
    assert intercept == pytest.approx(expected, abs=1e-6)


def test_separable_feature_gets_positive_coefficient():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    coef, _, diag = fit_logistic(X, y, lam=0.01)
    assert diag["converged"]
    assert coef[0] > 0


def test_duplicated_columns_share_coefficient():
    rng = np.random.default_rng(3)
    col = rng.normal(size=50)
    X = np.column_stack([col, col, rng.normal(size=50)])
    y = (col + 0.3 * rng.normal(size=50) > 0).astype(float)
    coef, _, diag = fit_logistic(X, y, lam=0.5)
    assert diag["converged"]
    assert abs(coef[0] - coef[1]) <= 1e-8


def test_fit_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 6))
    y = (rng.random(80) < 0.4).astype(float)
    first = fit_logistic(X, y, lam=1.0)
    second = fit_logistic(X, y, lam=1.0)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_loss_is_convex_on_segments():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.5).astype(float)
    for _ in range(20):
        w1, w2 = rng.normal(size=(2, 4))
        b1, b2 = rng.normal(size=2)
        l1, _, _ = logistic_loss_grad(w1, b1, X, y, 0.7)
        l2, _, _ = logistic_loss_grad(w2, b2, X, y, 0.7)
        for t in (0.25, 0.5, 0.75):
            lt, _, _ = logistic_loss_grad(t * w1 + (1 - t) * w2, t * b1 + (1 - t) * b2,
                                          X, y, 0.7)
            assert lt <= t * l1 + (1 - t) * l2 + 1e-9


def _trained_pair(seed=6, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
    return X, y


def test_predictions_in_unit_interval_and_monotone():
    X, y = _trained_pair()
    names = [f"f{i}" for i in range(X.shape[1])]
    model = train_model(X, y, names, lam=1.0, k=5)
    proba = predict_proba(model, X)
    assert np.all((proba > 0) & (proba < 1))
    row = X[:1].copy()
    j = model.standardizer.feature_names.index(model.feature_names[0])
    sign = np.sign(model.coef[0])
    bumped = row.copy()
    bumped[0, j] += 2.0 * sign
    assert predict_proba(model, bumped)[0] > predict_proba(model, row)[0]


def test_zero_model_predicts_half():
    std = fit_standardizer(np.array([[0.0], [1.0]]), ["a"])
    model = LogisticModel(feature_names=["a"], coef=np.zeros(1), intercept=0.0,
                          lam=1.0, standardizer=std)
    proba = predict_proba(model, np.array([[0.3], [0.9]]))
    assert np.allclose(proba, 0.5)


def test_predict_flags_rows_with_missing_selected_features():
    X, y = _trained_pair()
    names = [f"f{i}" for i in range(X.shape[1])]
    model = train_model(X, y, names, lam=1.0, k=3)
    X_bad = X[:4].copy()
    j = model.standardizer.feature_names.index(model.feature_names[0])
    X_bad[2, j] = np.nan
    proba = predict_proba(model, X_bad)
    assert np.isnan(proba[2])
    assert np.all(np.isfinite(np.delete(proba, 2)))


def test_rfe_identity_when_k_equals_width():
    X, y = _trained_pair(d=4)
    names = ["a", "b", "c", "d"]
    selected, coef, _, diag = rfe(X, y, names, lam=1.0, k=4)
    assert selected == names
    assert len(coef) == 4
    assert diag["selected_all"]


def test_rfe_selects_exactly_k():
    X, y = _trained_pair(d=8)
    names = [f"f{i}" for i in range(8)]
    selected, coef, _, _ = rfe(X, y, names, lam=1.0, k=3)
    assert len(selected) == 3 and len(coef) == 3
    assert all(name in names for name in selected)
    assert selected == [n for n in names if n in selected]    # catalog order kept


def test_rfe_tie_break_keeps_earlier_feature():
    rng = np.random.default_rng(8)
    col = rng.normal(size=60)
    X = np.column_stack([col, col])
    y = (col > 0).astype(float)
    selected, _, _, _ = rfe(X, y, ["first", "second"], lam=1.0, k=1)
    assert selected == ["first"]


@pytest.mark.parametrize("seed, gap", [(8, 4), (12, 3), (13, 4)])
def test_rfe_tie_break_keeps_earlier_duplicate_across_other_columns(seed, gap):
    """Two bit-identical weak columns with strong ones between them: their
    fitted coefficients differ only by float noise (about 1e-17), and the
    earlier column must survive whichever way the noise falls."""
    rng = np.random.default_rng(seed)
    y = (rng.random(60) < 0.5).astype(float)
    strong = rng.normal(size=(60, gap + 1)) + y[:, None]
    dup = rng.normal(size=60) + 0.1 * y
    X = np.column_stack([strong[:, 0], dup, *strong[:, 1:gap].T, dup, strong[:, gap]])
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
    names = [f"f{i}" for i in range(X.shape[1])]
    later = names[gap + 1]
    assert np.array_equal(X[:, 1], X[:, gap + 1])
    coef = fit_logistic(X, y, lam=1.0)[0]
    assert np.argmin(np.abs(coef)) in (1, gap + 1)
    selected, _, _, _ = rfe(X, y, names, lam=1.0, k=X.shape[1] - 1)
    assert selected == [n for n in names if n != later]


def _cold_rfe(X, y, k, lam):
    """Reference elimination: every refit starts from zero."""
    active = list(range(X.shape[1]))
    while len(active) > k:
        magnitude = np.abs(fit_logistic(X[:, active], y, lam=lam)[0])
        del active[int(np.flatnonzero(magnitude <= magnitude.min() * (1 + TIE_RTOL))[-1])]
    coef, intercept, _ = fit_logistic(X[:, active], y, lam=lam)
    return active, coef, intercept


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 120), d=st.integers(2, 12),
       k=st.integers(1, 12), lam=st.sampled_from([0.1, 1.0, 5.0]))
def test_warm_rfe_matches_cold_elimination(seed, n, d, k, lam):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    truth = rng.normal(size=d)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ truth))).astype(float)
    y[:2] = [0.0, 1.0]
    names = [f"f{i}" for i in range(d)]
    selected, coef, intercept, _ = rfe(X, y, names, lam=lam, k=k)
    active, ref_coef, ref_intercept = _cold_rfe(X, y, k, lam)
    assert selected == [names[i] for i in active]
    assert np.array_equal(coef, ref_coef)
    assert intercept == ref_intercept


def test_fit_started_at_its_optimum_takes_no_steps():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(90, 5))
    y = (X[:, 0] + rng.normal(size=90) > 0).astype(float)
    coef, intercept, diag = fit_logistic(X, y, lam=1.0)
    assert diag["iterations"] > 0
    again, again_intercept, again_diag = fit_logistic(X, y, lam=1.0, start=(coef, intercept))
    assert again_diag["iterations"] == 0 and again_diag["converged"]
    assert np.array_equal(again, coef) and again_intercept == intercept


def test_fit_rejects_start_of_wrong_width():
    X = np.random.default_rng(15).normal(size=(10, 3))
    y = np.array([0.0, 1.0] * 5)
    with pytest.raises(ValueError):
        fit_logistic(X, y, start=(np.zeros(2), 0.0))


def test_rfe_recovers_informative_features():
    rng = np.random.default_rng(9)
    hits = 0
    for trial in range(20):
        trial_rng = np.random.default_rng([9, trial])
        n, d_signal, d_noise = 200, 10, 30
        y = (trial_rng.random(n) < 0.5).astype(float)
        signal = trial_rng.normal(size=(n, d_signal)) + 1.2 * y[:, None]
        noise = trial_rng.normal(size=(n, d_noise))
        X = np.column_stack([signal, noise])
        names = [f"s{i}" for i in range(d_signal)] + [f"n{i}" for i in range(d_noise)]
        std = fit_standardizer(X, names)
        selected, _, _, _ = rfe(std.apply(X), y, names, lam=1.0, k=10)
        if sum(1 for s in selected if s.startswith("s")) >= 8:
            hits += 1
    assert hits >= 18


def test_affine_rescaling_leaves_predictions_unchanged():
    X, y = _trained_pair(seed=10)
    names = [f"f{i}" for i in range(X.shape[1])]
    model_a = train_model(X, y, names, lam=1.0, k=5)
    X_scaled = X.copy()
    X_scaled[:, 2] = 7.0 * X_scaled[:, 2] - 3.0
    model_b = train_model(X_scaled, y, names, lam=1.0, k=5)
    pa = predict_proba(model_a, X)
    pb = predict_proba(model_b, X_scaled)
    assert np.max(np.abs(pa - pb)) < 1e-6


def test_all_constant_features_degrade_to_base_rate_model():
    X = np.ones((20, 3))
    y = np.array([1.0] * 6 + [0.0] * 14)
    model = train_model(X, y, ["a", "b", "c"], lam=1.0, k=2)
    assert model.standardizer.dropped == ["a", "b", "c"]
    assert model.feature_names == []
    proba = predict_proba(model, X)
    assert np.allclose(proba, 0.3, atol=1e-6)


def test_trained_model_separates_classes():
    X, y = _trained_pair(seed=12, n=200)
    names = [f"f{i}" for i in range(X.shape[1])]
    model = train_model(X, y, names, lam=1.0, k=5)
    assert auroc(predict_proba(model, X), y) > 0.85


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_fit_rfe_and_train_reject_a_non_finite_lam(lam):
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 3))
    y = np.array([0.0, 1.0] * 20)
    for fit in (lambda: fit_logistic(X, y, lam=lam), lambda: rfe(X, y, list("abc"), lam=lam, k=1),
                lambda: train_model(X, y, list("abc"), lam=lam, k=1),
                lambda: fit_logistic(np.stack([X, X]), np.stack([y, y]), lam=lam)):
        with pytest.raises(ValueError, match="lam"):
            fit()


def test_line_search_shortens_a_step_that_falls_short_of_the_armijo_margin():
    """From w = -3.2754 on this symmetric problem the full Newton step lowers
    the loss, by about half of what the Armijo condition (decrease of at least
    1e-4 x step x slope) asks, so the line search must take a shorter step."""
    x = np.repeat([1.0, -1.0], 10)[:, None]
    y = np.array([1.0] * 9 + [0.0] + [0.0] * 9 + [1.0])
    lam, w0 = 0.01, -3.2754
    loss0, grad_coef, grad_intercept = logistic_loss_grad(np.array([w0]), 0.0, x, y, lam)
    grad = np.append(grad_coef, grad_intercept)
    p = 1.0 / (1.0 + np.exp(-w0 * x[:, 0]))
    w = p * (1.0 - p) / len(y)
    H = np.array([[x[:, 0] @ (x[:, 0] * w) + lam, (x[:, 0] * w).sum()],
                  [(x[:, 0] * w).sum(), w.sum()]])
    direction = -np.linalg.solve(H, grad)
    slope = grad @ direction
    full = logistic_loss_grad(w0 + direction[:1], direction[1], x, y, lam)[0]
    assert loss0 + 1e-4 * slope < full < loss0

    coef, intercept, _ = fit_logistic(x, y, lam=lam, max_iter=1, start=(np.array([w0]), 0.0))
    step = (coef[0] - w0) / direction[0]
    assert step == pytest.approx(0.5, rel=1e-9)
    assert logistic_loss_grad(coef, intercept, x, y, lam)[0] <= loss0 + 1e-4 * step * slope
