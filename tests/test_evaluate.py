import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgtriage.errors import ConfigError, DataError, EvaluationError
from ppgtriage.evaluate import (auroc, choose_threshold, confusion_metrics, export_distributions,
                                labels_by_patient, plan_splits, roc_on_grid, roc_points,
                                run_experiment, shuffle_patient_labels)
from ppgtriage.io import read_report, write_report
from ppgtriage.model import predict_proba, train_model

from .conftest import synthetic_feature_matrix
from .oracles import auroc_pairwise, confusion_reference, roc_vertices, youden_scan


def _paper_shaped_labels():
    labels = {f"C1-{i:03d}": 1 for i in range(25)}
    labels.update({f"C0-{i:03d}": 0 for i in range(61)})
    return labels


def test_split_counts_match_protocol():
    plan = plan_splits(_paper_shaped_labels(), n_iter=10, seed=1)
    for it in plan.iterations:
        test_pos = sum(1 for p in it["test"] if p.startswith("C1"))
        test_neg = len(it["test"]) - test_pos
        train_pos = sum(1 for p in it["train"] if p.startswith("C1"))
        assert test_pos == 9 and test_neg == 21
        assert train_pos == 16 and len(it["train"]) - train_pos == 40


def test_split_plan_no_leakage_and_coverage():
    labels = _paper_shaped_labels()
    plan = plan_splits(labels, n_iter=25, seed=3)
    everyone = set(labels)
    for it in plan.iterations:
        train, test = set(it["train"]), set(it["test"])
        assert train & test == set()
        assert train | test == everyone


def test_split_plan_deterministic_and_seed_sensitive():
    labels = _paper_shaped_labels()
    assert plan_splits(labels, n_iter=5, seed=7).iterations == \
           plan_splits(labels, n_iter=5, seed=7).iterations
    assert plan_splits(labels, n_iter=5, seed=7).iterations != \
           plan_splits(labels, n_iter=5, seed=8).iterations


def test_split_three_per_class():
    labels = {"a": 1, "b": 1, "c": 1, "x": 0, "y": 0, "z": 0}
    plan = plan_splits(labels, n_iter=6, seed=0)
    for it in plan.iterations:
        test_pos = sum(labels[p] for p in it["test"])
        assert test_pos == 1 and len(it["test"]) == 2


def test_split_requires_two_per_class():
    with pytest.raises(EvaluationError):
        plan_splits({"a": 1, "x": 0, "y": 0}, n_iter=2, seed=0)


def test_auroc_trivial_cases():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(10, 200))
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.integers(0, 4, size=n).astype(float)   # heavy ties
        else:
            scores = rng.normal(size=n)
        assert auroc(scores, labels) == pytest.approx(
            auroc_pairwise(scores.tolist(), labels.tolist()), abs=1e-12)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=80)
    labels = (rng.random(80) < 0.5).astype(int)
    base = auroc(scores, labels)
    assert auroc(np.exp(scores) + 5.0, labels) == base
    assert auroc(3.0 * scores - 1.0, labels) == base


def test_auroc_requires_both_classes():
    with pytest.raises(EvaluationError):
        auroc([0.1, 0.2], [1, 1])


def test_threshold_separable_picks_midpoint():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert choose_threshold(scores, labels) == pytest.approx(0.5)


def test_threshold_all_equal_scores():
    scores = np.full(6, 0.37)
    labels = np.array([1, 0, 1, 0, 1, 0])
    assert choose_threshold(scores, labels) == pytest.approx(0.37)


def test_threshold_tie_prefers_lower_cut():
    # cuts at 0.2 and 0.4 tie at J = 0.5: the lower cut wins, returned as the
    # midpoint with the previous distinct score
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    labels = np.array([0, 1, 0, 1])
    thr = choose_threshold(scores, labels)
    assert thr == pytest.approx((0.1 + 0.2) / 2.0)


def test_threshold_maximizes_youden_j():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(10, 80))
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)    # force some ties
        thr = choose_threshold(scores, labels)
        tp, fp, tn, fn = confusion_reference(scores.tolist(), labels.tolist(), thr)
        j = tp / (tp + fn) + tn / (tn + fp) - 1.0
        assert j == pytest.approx(youden_scan(scores.tolist(), labels.tolist()), abs=1e-12)


def test_confusion_trivial_cases():
    metrics = confusion_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0], 0.5)
    assert metrics == {"sensitivity": 1.0, "specificity": 1.0, "precision": 1.0, "f1": 1.0}
    all_pos = confusion_metrics([0.9, 0.8, 0.7, 0.6], [1, 0, 0, 0], 0.0)
    assert all_pos["sensitivity"] == 1.0 and all_pos["specificity"] == 0.0
    assert all_pos["precision"] == pytest.approx(0.25)    # prevalence
    none_pos = confusion_metrics([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0], 0.9)
    assert none_pos["precision"] is None and none_pos["f1"] is None


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(8, 60))
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        thr = float(rng.random())
        metrics = confusion_metrics(scores, labels, thr)
        tp, fp, tn, fn = confusion_reference(scores.tolist(), labels.tolist(), thr)
        assert metrics["sensitivity"] == pytest.approx(tp / (tp + fn))
        assert metrics["specificity"] == pytest.approx(tn / (tn + fp))


def test_roc_grid_endpoints_and_monotone():
    rng = np.random.default_rng(10)
    scores = rng.normal(size=60)
    labels = (rng.random(60) < 0.5).astype(int)
    grid = np.linspace(0, 1, 101)
    tpr = roc_on_grid(scores, labels, grid)
    assert tpr[-1] == 1.0
    assert np.all(np.diff(tpr) >= -1e-12)


def test_run_experiment_summary_shape():
    matrix = synthetic_feature_matrix(seed=1)
    report = run_experiment(matrix, n_iter=8, seed=2)
    assert list(report.families) == ["MOR", "BRV", "META", "ALL"]
    assert len(report.summary_rows()) == 4
    assert report.class_counts == {"C1": 12, "C0": 18}
    for family, block in report.families.items():
        assert len(block["iterations"]) == 8
        for metrics in block["window"]["metrics"].values():
            if metrics["median"] is not None:
                assert metrics["p25"] <= metrics["median"] <= metrics["p75"]


def test_run_experiment_informative_matrix_scores_high():
    matrix = synthetic_feature_matrix(seed=3, shift=2.0)
    report = run_experiment(matrix, n_iter=10, seed=4)
    mor = report.families["MOR"]["summary"]["auroc_median"]
    alla = report.families["ALL"]["summary"]["auroc_median"]
    meta = report.families["META"]["summary"]["auroc_median"]
    best_single = max(mor, report.families["BRV"]["summary"]["auroc_median"], meta)
    assert mor >= 0.95
    assert alla >= best_single - 0.02
    assert meta < 0.8     # uninformative by construction


def test_uninformative_matrix_gives_chance_level():
    # the cohort itself carries sampling luck that repeated splits cannot wash
    # out, so chance level is checked for a typical permutation, not any seed
    matrix = synthetic_feature_matrix(n_pos=25, n_neg=40, windows=3, seed=5, shift=0.0)
    null = shuffle_patient_labels(matrix, seed=1)
    report = run_experiment(null, n_iter=20, seed=6, families=("ALL",))
    assert 0.4 <= report.families["ALL"]["summary"]["auroc_median"] <= 0.6


def test_shuffle_preserves_counts_and_patient_grouping():
    matrix = synthetic_feature_matrix(seed=7)
    null = shuffle_patient_labels(matrix, seed=1)
    assert sorted(labels_by_patient(null).values()) == \
           sorted(labels_by_patient(matrix).values())
    by_pid = labels_by_patient(null)   # raises if any patient is inconsistent
    assert set(by_pid) == set(labels_by_patient(matrix))


def test_single_iteration_percentiles_collapse():
    matrix = synthetic_feature_matrix(seed=8)
    report = run_experiment(matrix, n_iter=1, seed=9, families=("MOR",))
    metrics = report.families["MOR"]["window"]["metrics"]["auroc"]
    assert metrics["median"] == metrics["p25"] == metrics["p75"]


def test_missing_meta_makes_family_degenerate():
    matrix = synthetic_feature_matrix(seed=10)
    age_col = matrix.feature_names.index("Age")
    pos_rows = matrix.labels == 1
    matrix.values[pos_rows, age_col] = np.nan
    report = run_experiment(matrix, n_iter=5, seed=11, families=("META", "MOR"))
    assert report.families["META"]["degenerate_iterations"] == 5
    assert report.families["META"]["summary"]["auroc_median"] is None
    assert report.families["MOR"]["degenerate_iterations"] == 0
    dropped = report.families["META"]["iterations"][0]["dropped_train_rows"]
    assert dropped > 0


def test_patient_level_scores_are_window_means():
    pids = np.array(["a", "a", "b", "b", "b", "c"])
    proba = np.array([0.2, 0.4, 0.9, 0.8, 0.7, 0.5])
    labels = np.array([0, 0, 1, 1, 1, 0])
    from ppgtriage.evaluate import _mean_by_patient

    scores, labs = _mean_by_patient(pids, proba, labels)
    assert scores == pytest.approx([0.3, 0.8, 0.5])
    assert labs.tolist() == [0, 1, 0]


def test_patient_level_block_present():
    matrix = synthetic_feature_matrix(seed=12, windows=3)
    report = run_experiment(matrix, n_iter=4, seed=13, families=("ALL",),
                            metric_level="both")
    block = report.families["ALL"]
    assert block["patient"] is not None
    assert block["patient"]["metrics"]["auroc"]["median"] is not None
    window_only = run_experiment(matrix, n_iter=2, seed=13, families=("ALL",),
                                 metric_level="window")
    assert "patient" not in window_only.families["ALL"]


def test_selection_frequency_tabulated():
    matrix = synthetic_feature_matrix(seed=14, shift=2.5)
    report = run_experiment(matrix, n_iter=6, seed=15, families=("ALL",))
    freq = report.families["ALL"]["selection_frequency"]
    assert sum(freq.values()) == 6 * 10
    assert max(freq.values()) <= 6
    assert len(report.distributions["top_features"]) == 5
    per_feature = report.distributions["per_feature"]
    assert set(per_feature) == set(report.distributions["top_features"])


def test_distributions_normalized():
    matrix = synthetic_feature_matrix(seed=16)
    dists = export_distributions(matrix, [matrix.feature_names[0], "Age"])
    for entry in dists.values():
        assert len(entry["edges"]) == 31
        assert sum(entry["C1"]) == pytest.approx(1.0, abs=1e-9)
        assert sum(entry["C0"]) == pytest.approx(1.0, abs=1e-9)


def test_distributions_constant_feature_single_bin():
    matrix = synthetic_feature_matrix(seed=17)
    matrix.values[:, 0] = 4.2
    dists = export_distributions(matrix, [matrix.feature_names[0]])
    entry = dists[matrix.feature_names[0]]
    assert sum(1 for m in entry["C1"] if m > 0) == 1
    assert sum(1 for m in entry["C0"] if m > 0) == 1


def test_run_experiment_deterministic_and_worker_independent():
    matrix = synthetic_feature_matrix(seed=18)
    a = run_experiment(matrix, n_iter=4, seed=19, workers=1)
    b = run_experiment(matrix, n_iter=4, seed=19, workers=2)
    assert a.to_dict() == b.to_dict()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pos=st.integers(3, 8), n_neg=st.integers(3, 10),
       windows=st.integers(1, 4), shift=st.floats(0.0, 2.0), missing=st.sampled_from([0.0, 0.05]),
       duplicate=st.booleans(), n_iter=st.integers(1, 4))
def test_run_experiment_worker_count_invariant(seed, n_pos, n_neg, windows, shift, missing,
                                               duplicate, n_iter):
    matrix = synthetic_feature_matrix(n_pos=n_pos, n_neg=n_neg, windows=windows, seed=seed,
                                      shift=shift)
    rng = np.random.default_rng(seed)
    if duplicate:       # an exact RFE coefficient tie, as T_pi/meanPP give
        matrix.values[:, 5] = matrix.values[:, 1]
    matrix.values[rng.random(matrix.values.shape) < missing] = np.nan
    runs = [run_experiment(matrix, n_iter=n_iter, seed=seed, workers=w).to_dict()
            for w in (1, 2, 2)]
    assert runs[0] == runs[1] == runs[2]


def test_report_written_and_read_back_equal(tmp_path):
    matrix = synthetic_feature_matrix(seed=20)
    report = run_experiment(matrix, n_iter=3, seed=21, screening={"windows_total": 120,
                                                                  "kept": 118})
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_inconsistent_patient_labels_rejected():
    matrix = synthetic_feature_matrix(seed=22)
    matrix.labels[0] = 1 - matrix.labels[0]
    with pytest.raises(DataError, match="inconsistent"):
        run_experiment(matrix, n_iter=2, seed=23)


def test_single_class_matrix_rejected():
    matrix = synthetic_feature_matrix(n_pos=0, n_neg=10, seed=24)
    with pytest.raises(EvaluationError):
        run_experiment(matrix, n_iter=2, seed=25)


_tied_scores = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300, 1.0]),
              st.floats(allow_nan=False, width=64)),
    min_size=2, max_size=60)


@settings(max_examples=300, deadline=None)
@given(scores=_tied_scores, data=st.data())
def test_auroc_matches_rankdata_formula_exactly(scores, data):
    from scipy.stats import rankdata

    labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=len(scores),
                                max_size=len(scores)))
    labels[0], labels[1] = 1, 0
    labels = np.array(labels)
    n1, n0 = int(labels.sum()), int((labels == 0).sum())
    ranks = rankdata(np.array(scores))
    expected = float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))
    assert auroc(scores, labels) == expected


@pytest.mark.parametrize("bad", [{"n_iter": 0}, {"rfe_k": 0}, {"lam": -1.0}, {"families": ()},
                                 {"metric_level": "x"}, {"seed": -1}, {"seed": None},
                                 {"lam": float("nan")}, {"lam": float("inf")}],
                         ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_run_experiment_rejects_what_the_config_rejects(bad):
    matrix = synthetic_feature_matrix(n_pos=4, n_neg=6, windows=4, seed=30)
    assert matrix.n_rows == 40
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        run_experiment(matrix, **{"n_iter": 2, "seed": 1, **bad})
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": None}, {"n_iter": 0},
                                 {"train_fraction": 1.0}],
                         ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_plan_splits_rejects_bad_parameters_as_config_errors(bad):
    labels = {"a": 1, "b": 1, "c": 1, "x": 0, "y": 0, "z": 0}
    with pytest.raises(ConfigError):
        plan_splits(labels, **{"n_iter": 2, "seed": 1, **bad})


def test_run_experiment_rejects_a_family_string():
    matrix = synthetic_feature_matrix(n_pos=4, n_neg=6, windows=4, seed=30)
    with pytest.raises(ConfigError, match="sequence of family names"):
        run_experiment(matrix, n_iter=2, seed=1, families="ALL")


def test_stacked_splits_match_per_split_training():
    """Within one chunk the splits of a family train in several stacks: NaN
    rows in MOR give the splits different training row counts, and a BRV
    column that varies only within one patient is constant whenever that
    patient is held out, so standardizers keep different columns. The report
    is the same at 1, 2 and 3 workers and every split equals a `train_model`
    of its own training rows."""
    matrix = synthetic_feature_matrix(n_pos=6, n_neg=8, windows=3, seed=40)
    pid_arr = np.array(matrix.patient_ids)
    mor, brv = matrix.family_columns("MOR"), matrix.family_columns("BRV")
    matrix.values[[0, 7, 20, 31], mor[3]] = np.nan
    matrix.values[:, brv[0]] = 2.0
    matrix.values[pid_arr == "P000", brv[0]] = [1.0, 3.0, 4.0]
    n_iter, seed = 8, 41
    reports = [run_experiment(matrix, n_iter=n_iter, seed=seed, workers=w).to_dict()
               for w in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]

    plan = plan_splits(labels_by_patient(matrix), n_iter=n_iter, seed=seed)
    train_rows, kept = {}, {}
    for family in ("MOR", "BRV", "META", "ALL"):
        cols = matrix.family_columns(family)
        names = [matrix.feature_names[c] for c in cols]
        X = matrix.values[:, cols]
        finite = np.all(np.isfinite(X), axis=1)
        for it, split in enumerate(plan.iterations):
            result = reports[0]["families"][family]["iterations"][it]
            assert result["degenerate"] is None
            tr = np.isin(pid_arr, split["train"]) & finite
            te = np.isin(pid_arr, split["test"]) & finite
            fitted = train_model(X[tr], matrix.labels[tr], names)
            train_rows.setdefault(family, set()).add(int(tr.sum()))
            kept.setdefault(family, set()).add(fitted.standardizer.kept_mask.tobytes())
            assert result["selected_features"] == fitted.feature_names
            assert result["converged"] == fitted.diagnostics["converged"]
            proba_tr = predict_proba(fitted, X[tr])
            proba_te = predict_proba(fitted, X[te])
            assert result["window"]["auroc"] == auroc(proba_te, matrix.labels[te])
            assert result["window"]["threshold"] == choose_threshold(proba_tr, matrix.labels[tr])
    assert len(train_rows["MOR"]) > 1 and len(train_rows["BRV"]) == 1
    assert len(kept["BRV"]) > 1


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0]), min_size=2,
                       max_size=60) | _tied_scores, data=st.data())
def test_roc_points_keep_the_last_vertex_of_each_equal_fpr_run(scores, data):
    labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=len(scores),
                                max_size=len(scores)))
    labels[0], labels[1] = 1, 0
    fpr, tpr = roc_points(scores, labels)
    assert (fpr.tolist(), tpr.tolist()) == roc_vertices(scores, labels)

