"""Independent brute-force reference implementations used only by tests.

Everything here is written loop-wise from the mathematical definitions so it
shares no code path with the package internals it checks.
"""

import math

import numpy as np


def local_maxima(y):
    return [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] > y[i + 1]]


def local_minima(y):
    return [i for i in range(1, len(y) - 1) if y[i] < y[i - 1] and y[i] < y[i + 1]]


def prominence_at(y, i):
    """Height of y[i] above its lowest enclosing contour: walk out on each side
    until a strictly higher sample (or the border), track the minimum, and take
    the higher of the two side minima as the base."""
    left_min = y[i]
    j = i - 1
    while j >= 0 and y[j] <= y[i]:
        left_min = min(left_min, y[j])
        j -= 1
    right_min = y[i]
    j = i + 1
    while j < len(y) and y[j] <= y[i]:
        right_min = min(right_min, y[j])
        j += 1
    return y[i] - max(left_min, right_min)


def significant_extrema(y, guard, floor_frac):
    """Interior local extrema with prominence >= floor_frac * interior range."""
    interior = y[guard:len(y) - guard]
    floor = floor_frac * (max(interior) - min(interior))
    maxima = [i for i in local_maxima(y)
              if guard <= i < len(y) - guard and prominence_at(y, i) >= floor]
    neg = [-v for v in y]
    minima = [i for i in local_minima(y)
              if guard <= i < len(y) - guard and prominence_at(neg, i) >= floor]
    return maxima, minima


def chain_abcde(d2, guard, floor_frac, max_extrema):
    """The a-e chain per the documented selection rules, built with plain loops."""
    maxima, minima = significant_extrema(list(d2), guard, floor_frac)
    if len(maxima) + len(minima) > max_extrema:
        return {"a": None, "b": None, "c": None, "d": None, "e": None}
    def first_after(seq, pos):
        for i in seq:
            if i > pos:
                return i
        return None
    a = first_after(maxima, 0)
    b = first_after(minima, a) if a is not None else None
    c = first_after(maxima, b) if b is not None else None
    d = first_after(minima, c) if c is not None else None
    e = first_after(maxima, d) if d is not None else None
    return {"a": a, "b": b, "c": c, "d": d, "e": e}


def rmssd_reference(intervals):
    total = 0.0
    count = 0
    for i in range(1, len(intervals)):
        diff = intervals[i] - intervals[i - 1]
        total += diff * diff
        count += 1
    return math.sqrt(total / count)


def sample_var(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def sample_cov(a, b):
    mean_a = sum(a) / len(a)
    mean_b = sum(b) / len(b)
    return sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b)) / (len(a) - 1)


def sdpp_reference(intervals):
    return math.sqrt(sample_var(list(intervals)))


def poincare_reference(intervals):
    """SD1/SD2 via the variance-covariance identities of the lag-1 point cloud:
    SD1^2 = (var a + var b - 2 cov)/2, SD2^2 = (var a + var b + 2 cov)/2."""
    a = list(intervals[:-1])
    b = list(intervals[1:])
    va, vb, cab = sample_var(a), sample_var(b), sample_cov(a, b)
    sd1 = math.sqrt(max(0.0, (va + vb - 2 * cab) / 2.0))
    sd2 = math.sqrt(max(0.0, (va + vb + 2 * cab) / 2.0))
    return sd1, sd2


def auroc_pairwise(scores, labels):
    """Exhaustive positive-negative pair counting with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def mean_by_patient_reference(pids, proba, labels):
    """Each patient's mean score (one `mean` of that patient's scores) and the
    label of their first row, patients in sorted id order."""
    order = np.argsort(pids, kind="stable")
    uniq, start = np.unique(pids[order], return_index=True)
    scores, labs = [], []
    boundaries = list(start) + [len(pids)]
    for k in range(len(uniq)):
        rows = order[boundaries[k]:boundaries[k + 1]]
        scores.append(float(proba[rows].mean()))
        labs.append(int(labels[rows[0]]))
    return np.array(scores), np.array(labs)


def roc_vertices(scores, labels):
    """ROC vertices by brute force: (0, 0), then one (fpr, tpr) point per
    distinct score from the highest down; points with equal fpr merge into
    the last one (tpr never falls), and (1, 1) closes the curve if missing."""
    n1 = sum(1 for l in labels if l == 1)
    n0 = sum(1 for l in labels if l == 0)
    points = [(0.0, 0.0)]
    for cut in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= cut and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= cut and l == 0)
        points.append((fp / n0, tp / n1))
    collapsed = {}
    for f, t in points:
        collapsed[f] = t
    fpr = sorted(collapsed)
    tpr = [collapsed[f] for f in fpr]
    if fpr[-1] < 1.0:
        fpr.append(1.0)
        tpr.append(1.0)
    return fpr, tpr


def confusion_reference(scores, labels, threshold):
    tp = fp = tn = fn = 0
    for s, l in zip(scores, labels):
        predicted = s >= threshold
        if predicted and l == 1:
            tp += 1
        elif predicted and l == 0:
            fp += 1
        elif not predicted and l == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def youden_scan(scores, labels):
    """Best J over every distinct-cut rule (predict positive when score >= cut)."""
    best = -2.0
    for cut in sorted(set(scores)):
        tp, fp, tn, fn = confusion_reference(scores, labels, cut)
        j = tp / (tp + fn) + tn / (tn + fp) - 1.0
        best = max(best, j)
    return best


def band_power(x, fs, f_lo, f_hi):
    """Power in [f_lo, f_hi] Hz from the discrete Fourier transform."""
    spectrum = np.fft.rfft(np.asarray(x))
    freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    return float(np.sum(np.abs(spectrum[mask]) ** 2))


def _logistic_terms(coef, intercept, X, y, lam):
    """Loss, gradient and probabilities of one problem, 2-D arithmetic."""
    n = X.shape[0]
    z = X @ coef + intercept
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * coef @ coef)
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    residual = p - y
    return loss, X.T @ residual / n + lam * coef, float(residual.mean()), p


def newton_fit_reference(X, y, lam, start=None, tol=1e-6, max_iter=10_000):
    """One problem's damped Newton fit, written as a plain 2-D loop: Newton
    direction (or -grad when the Hessian is singular or the direction points
    uphill), Armijo backtracking with up to 60 halvings, and convergence at
    gradient 2-norm <= tol. Returns (coef, intercept, diagnostics)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    coef = np.zeros(d) if start is None else np.array(start[0], dtype=np.float64)
    intercept = 0.0 if start is None else float(start[1])
    loss, grad_coef, grad_int, p = _logistic_terms(coef, intercept, X, y, lam)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = np.concatenate([grad_coef, [grad_int]])
        if float(np.linalg.norm(grad)) <= tol:
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
        except np.linalg.LinAlgError:
            direction = -grad
        slope = float(grad @ direction)
        if slope >= 0:
            direction = -grad
            slope = float(grad @ direction)
        step = 1.0
        for _ in range(60):
            new_coef = coef + step * direction[:d]
            new_intercept = intercept + step * direction[d]
            new = _logistic_terms(new_coef, new_intercept, X, y, lam)
            if new[0] <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        coef, intercept = new_coef, new_intercept
        loss, grad_coef, grad_int, p = new
    grad_norm = float(np.linalg.norm(np.concatenate([grad_coef, [grad_int]])))
    return coef, float(intercept), {"loss": loss, "iterations": iterations,
                                    "converged": converged, "grad_norm": grad_norm}


def rfe_reference(X, y, k, lam, tie_rtol):
    """Elimination one problem at a time with `newton_fit_reference`: drop the
    last of the smallest |coef| (within a relative tie_rtol), warm-start each
    elimination refit, refit the selection cold. Returns (active columns,
    coef, intercept, diagnostics)."""
    active = list(range(X.shape[1]))
    start = None
    while len(active) > k:
        coef, intercept, _ = newton_fit_reference(X[:, active], y, lam, start)
        magnitude = np.abs(coef)
        drop = int(np.flatnonzero(magnitude <= magnitude.min() * (1 + tie_rtol))[-1])
        del active[drop]
        start = (np.delete(coef, drop), intercept)
    return (active, *newton_fit_reference(X[:, active], y, lam))
