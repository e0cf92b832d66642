"""Repeated stratified patient-level evaluation of per-family logistic models.

Protocol: patients (never windows) are split 2:1 into train and test, each
class shuffled and split independently so test keeps the class proportions;
the split is repeated n_iter times with fresh seeded shuffles. Per iteration
and feature family the pipeline standardizes on train, eliminates to the top
features, fits, scores the test windows, and computes AUROC plus
threshold-based metrics with the operating point chosen on training data
(Youden's J). Metrics aggregate as median and 25th/75th percentiles.

Scores are also averaged per patient (a patient's score is the mean of their
kept-window probabilities) and the same metric set is emitted at that level.

Splits are fitted as stacks of at most STACK_ELEMENTS training values
(splits x rows x columns of the widest family). A plan whose splits all fit
in one stack is one chunk, run in the calling process: a pool would repeat
the stack's per-call overhead in every worker and add its own start-up. A
larger plan is cut into contiguous chunks, one per worker, each cut smaller
only to keep it within one stack, and the chunks run in a pool. Per family a
chunk's splits with equal training row counts go to `train_model` as one
stack, which groups them further by the columns their standardizers keep.
Prediction and metrics stay per split, and every split's result is
bit-identical to training that split alone, so neither the chunking nor the
worker count changes the report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import RunConfig
from .errors import ConfigError, DataError, EvaluationError
from .features import CATALOG, FeatureMatrix
from .model import predict_proba, train_model
from .utils import pmap, resolve_workers

ROC_GRID_POINTS = 101
DISTRIBUTION_BINS = 30
TOP_FEATURES = 5
#: most elements (splits x rows x columns) in one stack of training rows (2 MB of float64)
STACK_ELEMENTS = 1 << 18

_CATALOG_POSITION = {f.name: i for i, f in enumerate(CATALOG)}


@dataclass
class SplitPlan:
    """Patient-level train/test assignments for every iteration."""

    seed: int
    train_fraction: float
    iterations: list[dict]      # {"train": tuple[str, ...], "test": tuple[str, ...]}


def plan_splits(labels_by_patient: dict[str, int],
                train_fraction: float = RunConfig.train_fraction,
                n_iter: int = RunConfig.n_iter, seed: int = 0) -> SplitPlan:
    """Stratified patient splits: per class, test receives ceil((1-frac)*count).

    Deterministic for a fixed seed; each iteration shuffles with its own
    substream so iterations can be evaluated in any order.
    """
    if seed is None:
        raise ConfigError("a seed is required")
    RunConfig(train_fraction=train_fraction, n_iter=n_iter, seed=seed).validate()
    by_class = {
        cls: sorted(pid for pid, lab in labels_by_patient.items() if lab == cls)
        for cls in (1, 0)
    }
    for cls, pids in by_class.items():
        if len(pids) < 2:
            raise EvaluationError(
                f"class {cls} has {len(pids)} patient(s); need at least 2 per class")
    iterations = []
    for it in range(n_iter):
        rng = np.random.default_rng([seed, it])
        train: list[str] = []
        test: list[str] = []
        for cls in (1, 0):
            perm = rng.permutation(by_class[cls])
            n_test = math.ceil(len(perm) * (1.0 - train_fraction))
            n_test = min(max(n_test, 1), len(perm) - 1)
            test.extend(perm[:n_test])
            train.extend(perm[n_test:])
        iterations.append({"train": tuple(sorted(train)), "test": tuple(sorted(test))})
    return SplitPlan(seed=seed, train_fraction=train_fraction, iterations=iterations)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given the mean of the positions they span
    (``scipy.stats.rankdata``'s default); all NaN if any value is NaN."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties half
    (rank formulation, invariant under strictly monotone score transforms)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n1 = int(np.sum(labels == 1))
    n0 = int(np.sum(labels == 0))
    if n1 == 0 or n0 == 0:
        raise EvaluationError("AUROC undefined: both classes must be present")
    ranks = _average_ranks(scores)
    return float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def roc_points(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve vertices (fpr, tpr), tie groups collapsed, endpoints included."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n1 = int(np.sum(labels == 1))
    n0 = int(np.sum(labels == 0))
    if n1 == 0 or n0 == 0:
        raise EvaluationError("ROC undefined: both classes must be present")
    order = np.argsort(-scores, kind="stable")
    ys = labels[order]
    sorted_scores = scores[order]
    tps = np.cumsum(ys == 1)
    fps = np.cumsum(ys == 0)
    boundaries = np.concatenate([np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]),
                                 [len(ys) - 1]])
    fpr = np.concatenate([[0.0], fps[boundaries] / n0])
    tpr = np.concatenate([[0.0], tps[boundaries] / n1])
    # fpr never decreases: keep the last (highest-tpr) vertex of each equal-fpr run
    last = np.append(fpr[1:] != fpr[:-1], True)
    fpr_u, tpr_u = fpr[last], tpr[last]
    if fpr_u[-1] < 1.0:
        fpr_u = np.append(fpr_u, 1.0)
        tpr_u = np.append(tpr_u, 1.0)
    return fpr_u, tpr_u


def roc_on_grid(scores, labels, grid: np.ndarray) -> np.ndarray:
    fpr, tpr = roc_points(scores, labels)
    return np.interp(grid, fpr, tpr)


def choose_threshold(scores, labels) -> float:
    """Operating point maximizing Youden's J on the given (training) scores.

    Candidate cuts are the distinct score values (predict positive when score
    >= cut); ties pick the lowest cut, and the returned threshold is the
    midpoint of the optimal interval when a lower distinct score exists.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise EvaluationError("threshold undefined: both classes must be present")
    cuts = np.unique(scores)
    sens = 1.0 - np.searchsorted(pos, cuts, side="left") / len(pos)
    spec = np.searchsorted(neg, cuts, side="left") / len(neg)
    j = sens + spec - 1.0
    best = int(np.argmax(j))            # first occurrence = lowest cut on ties
    if best > 0:
        return float((cuts[best - 1] + cuts[best]) / 2.0)
    return float(cuts[best])


def confusion_metrics(scores, labels, threshold: float) -> dict:
    """Sensitivity/specificity/precision/F1 with predicted-positive = score >=
    threshold; precision (and F1) are None when nothing is predicted positive."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if np.all(labels == 1) or np.all(labels == 0):
        raise EvaluationError("metrics undefined: both classes must be present")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    sensitivity = tp / (tp + fn)
    specificity = tn / (tn + fp)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    if precision is not None and (precision + sensitivity) > 0:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = None
    return {
        "sensitivity": float(sensitivity),
        "specificity": float(specificity),
        "precision": None if precision is None else float(precision),
        "f1": None if f1 is None else float(f1),
    }


def labels_by_patient(matrix: FeatureMatrix) -> dict[str, int]:
    out: dict[str, int] = {}
    for pid, label in zip(matrix.patient_ids, matrix.labels):
        label = int(label)
        if pid in out and out[pid] != label:
            raise DataError(f"patient '{pid}' has inconsistent labels across windows")
        out[pid] = label
    return out


def shuffle_patient_labels(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Permute the patient-to-label assignment (windows follow their patient).

    This breaks any real association while preserving class counts, giving a
    chance-level reference run.
    """
    by_pid = labels_by_patient(matrix)
    pids = sorted(by_pid)
    rng = np.random.default_rng(seed)
    permuted = rng.permutation([by_pid[p] for p in pids])
    new_map = {pid: int(lab) for pid, lab in zip(pids, permuted)}
    new_labels = np.array([new_map[p] for p in matrix.patient_ids], dtype=np.int64)
    return FeatureMatrix(feature_names=list(matrix.feature_names),
                         families=list(matrix.families),
                         patient_ids=list(matrix.patient_ids),
                         window_indices=list(matrix.window_indices),
                         labels=new_labels, values=matrix.values)


def _metrics_block(scores: np.ndarray, labels: np.ndarray,
                   train_scores: np.ndarray, train_labels: np.ndarray,
                   grid: np.ndarray) -> dict:
    threshold = choose_threshold(train_scores, train_labels)
    block = {"auroc": auroc(scores, labels), "threshold": threshold}
    block.update(confusion_metrics(scores, labels, threshold))
    block["roc_tpr"] = [float(v) for v in roc_on_grid(scores, labels, grid)]
    return block


def _evaluate_splits(iterations: list[dict], matrix: FeatureMatrix,
                     families: tuple[str, ...], lam: float, rfe_k: int,
                     metric_level: str) -> list[dict]:
    """Per-family results of a chunk of splits. In each family the splits with
    the same number of training rows train as one stack; prediction and
    metrics stay per split."""
    grid = np.linspace(0.0, 1.0, ROC_GRID_POINTS)
    pid_arr = np.array(matrix.patient_ids)
    members = [(np.isin(pid_arr, it["train"]), np.isin(pid_arr, it["test"]))
               for it in iterations]
    out: list[dict[str, dict]] = [{} for _ in iterations]
    for family in families:
        cols = matrix.family_columns(family)
        names = [matrix.feature_names[c] for c in cols]
        X = matrix.values[:, cols]
        finite = np.all(np.isfinite(X), axis=1)
        by_rows: dict[int, list] = {}
        for results, (in_train, in_test) in zip(out, members):
            tr = in_train & finite
            te = in_test & finite
            result: dict = {
                "n_train_rows": int(tr.sum()),
                "n_test_rows": int(te.sum()),
                "dropped_train_rows": int((in_train & ~finite).sum()),
                "dropped_test_rows": int((in_test & ~finite).sum()),
                "degenerate": None,
            }
            results[family] = result
            if tr.sum() < 2 or len(np.unique(matrix.labels[tr])) < 2:
                result["degenerate"] = "train_single_class"
            elif te.sum() < 1 or len(np.unique(matrix.labels[te])) < 2:
                result["degenerate"] = "test_single_class"
            else:
                by_rows.setdefault(result["n_train_rows"], []).append((result, tr, te))

        for group in by_rows.values():
            models = train_model(np.stack([X[tr] for _, tr, _ in group]),
                                 np.stack([matrix.labels[tr] for _, tr, _ in group]),
                                 names, lam=lam, k=rfe_k)
            for (result, tr, te), fitted in zip(group, models):
                ytr = matrix.labels[tr]
                yte = matrix.labels[te]
                result["selected_features"] = list(fitted.feature_names)
                result["converged"] = bool(fitted.diagnostics.get("converged", False))
                proba_tr = predict_proba(fitted, X[tr])
                proba_te = predict_proba(fitted, X[te])
                if metric_level in ("window", "both"):
                    result["window"] = _metrics_block(proba_te, yte, proba_tr, ytr, grid)
                if metric_level in ("patient", "both"):
                    result["patient"] = _patient_block(pid_arr[te], proba_te, yte,
                                                       pid_arr[tr], proba_tr, ytr, grid)
    return out


def _mean_by_patient(pids: np.ndarray, proba: np.ndarray, labels: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Each patient's mean score and first label, patients in sorted id order.

    Patients with the same window count are the rows of one C-contiguous
    matrix reduced along its rows, which sums each row exactly as the mean
    of that patient's scores alone would.
    """
    order = np.argsort(pids, kind="stable")
    _, start, counts = np.unique(pids[order], return_index=True, return_counts=True)
    ordered = proba[order]
    scores = np.empty(len(start))
    for count in np.unique(counts):
        group = np.flatnonzero(counts == count)
        scores[group] = ordered[start[group, None] + np.arange(count)].mean(axis=1)
    return scores, labels[order[start]]


def _patient_block(test_pids, proba_te, yte, train_pids, proba_tr, ytr, grid) -> dict | None:
    scores_te, labels_te = _mean_by_patient(test_pids, proba_te, yte)
    scores_tr, labels_tr = _mean_by_patient(train_pids, proba_tr, ytr)
    if len(np.unique(labels_te)) < 2 or len(np.unique(labels_tr)) < 2:
        return None
    return _metrics_block(scores_te, labels_te, scores_tr, labels_tr, grid)


def _percentiles(values: list) -> dict:
    present = [v for v in values if v is not None]
    if not present:
        return {"median": None, "p25": None, "p75": None}
    p25, median, p75 = np.percentile(present, [25.0, 50.0, 75.0])
    return {"median": float(median), "p25": float(p25), "p75": float(p75)}


def _aggregate_level(iteration_results: list[dict], level: str) -> dict | None:
    blocks = [r.get(level) for r in iteration_results if r.get("degenerate") is None]
    blocks = [b for b in blocks if b is not None]
    if not blocks:
        return None
    metrics = {}
    for key in ("auroc", "sensitivity", "specificity", "precision", "f1"):
        metrics[key] = _percentiles([b[key] for b in blocks])
    grid = np.linspace(0.0, 1.0, ROC_GRID_POINTS)
    tprs = np.array([b["roc_tpr"] for b in blocks])
    p25, median, p75 = np.percentile(tprs, [25.0, 50.0, 75.0], axis=0)
    return {
        "metrics": metrics,
        "n_iterations": len(blocks),
        "roc": {
            "fpr_grid": [float(v) for v in grid],
            "tpr_median": [float(v) for v in median],
            "tpr_p25": [float(v) for v in p25],
            "tpr_p75": [float(v) for v in p75],
        },
    }


def _summary_row(family: str, aggregated: dict | None) -> dict:
    row = {"family": family, "sensitivity": None, "specificity": None, "precision": None,
           "f1": None, "auroc_median": None, "auroc_p25": None, "auroc_p75": None}
    if aggregated is None:
        return row
    metrics = aggregated["metrics"]
    row.update({
        "sensitivity": metrics["sensitivity"]["median"],
        "specificity": metrics["specificity"]["median"],
        "precision": metrics["precision"]["median"],
        "f1": metrics["f1"]["median"],
        "auroc_median": metrics["auroc"]["median"],
        "auroc_p25": metrics["auroc"]["p25"],
        "auroc_p75": metrics["auroc"]["p75"],
    })
    return row


def export_distributions(matrix: FeatureMatrix, feature_names: list[str],
                         bins: int = DISTRIBUTION_BINS) -> dict:
    """Per-class normalized histograms over a pooled fixed-bin range."""
    out = {}
    name_to_col = {n: i for i, n in enumerate(matrix.feature_names)}
    for name in feature_names:
        if name not in name_to_col:
            raise DataError(f"unknown feature '{name}'")
        col = matrix.values[:, name_to_col[name]]
        finite = np.isfinite(col)
        pooled = col[finite]
        if len(pooled) == 0:
            edges = np.linspace(0.0, 1.0, bins + 1)
        else:
            lo, hi = float(pooled.min()), float(pooled.max())
            if lo == hi:
                lo, hi = lo - 0.5, hi + 0.5
            edges = np.linspace(lo, hi, bins + 1)
        entry = {"edges": [float(v) for v in edges]}
        for cls, key in ((1, "C1"), (0, "C0")):
            vals = col[finite & (matrix.labels == cls)]
            counts = np.histogram(vals, bins=edges)[0]
            mass = counts / len(vals) if len(vals) else np.zeros(bins)
            entry[key] = [float(v) for v in mass]
            entry[f"n_{key}"] = int(len(vals))
        out[name] = entry
    return out


@dataclass
class EvalReport:
    """Aggregated evaluation results plus the per-iteration raw metrics."""

    config: dict
    class_counts: dict
    families: dict
    screening: dict | None = None
    distributions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "class_counts": self.class_counts,
            "families": self.families,
            "screening": self.screening,
            "distributions": self.distributions,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalReport":
        return cls(config=doc["config"], class_counts=doc["class_counts"],
                   families=doc["families"], screening=doc.get("screening"),
                   distributions=doc.get("distributions", {}))

    def summary_rows(self) -> list[dict]:
        return [self.families[f]["summary"] for f in self.config["families"]
                if f in self.families]


def run_experiment(matrix: FeatureMatrix, *, n_iter: int = RunConfig.n_iter,
                   train_fraction: float = RunConfig.train_fraction,
                   lam: float = RunConfig.lam, rfe_k: int = RunConfig.rfe_k, seed: int = 0,
                   families: tuple[str, ...] = RunConfig.families,
                   metric_level: str = RunConfig.metric_level,
                   screening: dict | None = None, workers: int | None = 1) -> EvalReport:
    """Run the full repeated-split protocol over the requested feature families;
    a parameter that breaks a RunConfig rule raises ConfigError."""
    if seed is None:
        raise ConfigError("a seed is required")
    families = families if isinstance(families, str) else tuple(families)
    RunConfig(n_iter=n_iter, train_fraction=train_fraction, lam=lam, rfe_k=rfe_k, seed=seed,
              families=families, metric_level=metric_level, workers=workers).validate()
    if matrix.n_rows == 0:
        raise EvaluationError("feature matrix has no rows")
    by_patient = labels_by_patient(matrix)
    plan = plan_splits(by_patient, train_fraction=train_fraction, n_iter=n_iter, seed=seed)

    # One chunk when every split fits in one stack (pmap then runs it here);
    # otherwise one contiguous chunk per worker, each at most one stack.
    per_split = matrix.n_rows * max(len(matrix.family_columns(f)) for f in families)
    stack = max(1, STACK_ELEMENTS // max(per_split, 1))
    size = n_iter if n_iter <= stack else min(math.ceil(n_iter / resolve_workers(workers)),
                                              stack)
    chunks = [plan.iterations[i:i + size] for i in range(0, n_iter, size)]
    worker = partial(_evaluate_splits, matrix=matrix, families=families,
                     lam=lam, rfe_k=rfe_k, metric_level=metric_level)
    iteration_results = [res for chunk in pmap(worker, chunks, workers=workers)
                         for res in chunk]

    primary_level = "patient" if metric_level == "patient" else "window"
    family_blocks: dict[str, dict] = {}
    for family in families:
        results = [res[family] for res in iteration_results]
        degenerate = sum(1 for r in results if r["degenerate"] is not None)
        selection = Counter()
        for r in results:
            if r["degenerate"] is None:
                selection.update(r["selected_features"])
        ordered = sorted(selection.items(),
                         key=lambda kv: (-kv[1], _CATALOG_POSITION.get(kv[0], 1_000_000)))
        block = {
            "iterations": results,
            "degenerate_iterations": degenerate,
            "selection_frequency": {name: int(count) for name, count in ordered},
        }
        for level in ("window", "patient"):
            if metric_level in (level, "both"):
                block[level] = _aggregate_level(results, level)
        block["summary"] = _summary_row(family, block.get(primary_level))
        family_blocks[family] = block

    top = _top_features(family_blocks, families)
    distributions = {
        "top_features": top,
        "per_feature": export_distributions(matrix, top) if top else {},
    }
    counts = {"C1": sum(1 for v in by_patient.values() if v == 1),
              "C0": sum(1 for v in by_patient.values() if v == 0)}
    config = {
        "n_iter": int(n_iter),
        "train_fraction": float(train_fraction),
        "lambda": float(lam),
        "rfe_k": int(rfe_k),
        "seed": int(seed),
        "families": list(families),
        "metric_level": metric_level,
        "n_rows": int(matrix.n_rows),
        "n_patients": len(by_patient),
    }
    return EvalReport(config=config, class_counts=counts, families=family_blocks,
                      screening=screening, distributions=distributions)


def _top_features(family_blocks: dict, families: tuple[str, ...],
                  top: int = TOP_FEATURES) -> list[str]:
    source = "ALL" if "ALL" in family_blocks else (families[0] if families else None)
    if source is None:
        return []
    freq = family_blocks[source]["selection_frequency"]
    return list(freq)[:top]
