"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end check
(criterion 8) builds a full-size cohort (86 patients, 10-minute recordings at
1 kHz) in memory and takes a few minutes; everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest

from ppgtriage.cli import main as cli_main
from ppgtriage.config import RunConfig
from ppgtriage.evaluate import auroc, plan_splits, run_experiment
from ppgtriage.features import CATALOG, brv_features, mor_features_per_beat
from ppgtriage.fiducials import (EXTREMUM_FLOOR, MAX_D2_EXTREMA, detect_beats, edge_guard,
                                 locate_fiducials, smooth_derivatives)
from ppgtriage.model import fit_logistic, fit_standardizer, rfe
from ppgtriage.pipeline import extract_matrix
from ppgtriage.preprocess import (REJECT_AMPLITUDE_MODULATION, Window, compute_sqi,
                                  design_bandpass, zero_phase_filter)
from ppgtriage.synth import separated_cohort_spec, synth_recording, synth_cohort

from .conftest import logistic_loss_grad, make_beat, random_beat_model, shuffle_patient_labels
from .oracles import (auroc_pairwise, chain_abcde, poincare_reference, rmssd_reference,
                      sdpp_reference)

FS = 1000.0


def _report(number: int, description: str, started: float) -> None:
    print(f"\n[criterion {number:02d}] PASS - {description} "
          f"({time.monotonic() - started:.1f}s)")


def test_criterion_01_filter_conformance():
    started = time.monotonic()
    design = design_bandpass(FS)

    n = 2 ** 18
    from scipy.signal import sosfilt

    # the shared design is read-only, and scipy's sosfilt takes a writable cascade
    h = sosfilt(design.sos.copy(), np.concatenate([[1.0], np.zeros(n - 1)]))
    spectrum = np.fft.rfft(h)
    grid = np.fft.rfftfreq(n, d=1.0 / FS)

    def db_at(f_hz):
        return 20.0 * np.log10(np.abs(spectrum[int(np.argmin(np.abs(grid - f_hz)))]))

    assert abs(db_at(5.0)) < 1.0
    assert db_at(0.05) <= -20.0
    assert db_at(40.0) <= -20.0

    t = np.arange(0, 20.0, 1 / FS)
    x = np.sin(2 * np.pi * 5.0 * t)
    y = zero_phase_filter(x, design)
    lag = int(np.argmax(np.correlate(y, x, mode="full"))) - (len(x) - 1)
    assert lag == 0

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(1, "filter magnitude/attenuation and zero-phase lag", started)


def test_criterion_02_fiducial_oracle_suite():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    guard = edge_guard(FS)
    all_present = 0
    for _ in range(200):
        beat = make_beat(random_beat_model(rng), period_s=float(rng.uniform(0.72, 0.98)))
        derivatives = smooth_derivatives(beat, FS)
        fid = locate_fiducials(beat, FS)
        expected = chain_abcde(derivatives[1], guard, EXTREMUM_FLOOR, MAX_D2_EXTREMA)
        assert {k: getattr(fid, k) for k in "abcde"} == expected
        if all(expected[k] is not None for k in "abcde"):
            all_present += 1
            assert 0 <= fid.a < fid.b < fid.c < fid.d < fid.e
    assert all_present >= 150       # the parameter ranges keep most chains complete

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(2, f"a-e indices match brute-force scan on 200 beats "
               f"({all_present} complete chains)", started)


def test_criterion_03_feature_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(4, 80))
        intervals = rng.uniform(0.4, 1.6, size=n)
        values = brv_features(intervals)
        assert values["RMSSD"] == pytest.approx(rmssd_reference(intervals), rel=1e-9)
        assert values["SDPP"] == pytest.approx(sdpp_reference(intervals), rel=1e-9)
        sd1, sd2 = poincare_reference(intervals)
        assert values["SD1"] == pytest.approx(sd1, rel=1e-9)
        assert values["SD2"] == pytest.approx(sd2, rel=1e-9)

    t = np.arange(0, 1.0, 1 / FS)
    symmetric = np.exp(-((t - 0.5) ** 2) / (2 * 0.09**2))
    sym_values = mor_features_per_beat(symmetric, FS, locate_fiducials(symmetric, FS))
    assert sym_values["T_dw25/T_sw25"] == pytest.approx(1.0, abs=1e-3)

    unit_by_name = {f.name: f.unit for f in CATALOG}
    for trial in range(10):
        beat_rng = np.random.default_rng([303, trial])
        beat = make_beat(random_beat_model(beat_rng))
        base_fid = locate_fiducials(beat, FS)
        base = mor_features_per_beat(beat, FS, base_fid)
        for scale, shift in ((3.0, 0.0), (1.0, 2.5), (0.25, -1.0)):
            variant = scale * beat + shift
            fid = locate_fiducials(variant, FS)
            assert fid.as_dict() == base_fid.as_dict()
            values = mor_features_per_beat(variant, FS, fid)
            for name, val in base.items():
                if unit_by_name[name] in ("ratio", "s") and np.isfinite(val):
                    assert values[name] == pytest.approx(val, rel=1e-9), name
    _report(3, "BRV formula oracles, symmetric widths, scale/shift invariance", started)


def test_criterion_04_auroc_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    for case in range(100):
        n = int(rng.integers(10, 201))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if case % 2:
            scores = rng.integers(0, 4, size=n).astype(float)     # heavy ties
        else:
            scores = rng.normal(size=n)
        assert auroc(scores, labels) == pytest.approx(
            auroc_pairwise(scores.tolist(), labels.tolist()), abs=1e-12)
    _report(4, "rank AUROC equals exhaustive pairwise counting (100 instances)", started)


def test_criterion_05_logistic_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
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

    y = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    _, intercept, diag = fit_logistic(np.empty((10, 0)), y, lam=1.0)
    assert diag["converged"]
    assert abs(intercept - math.log(0.3 / 0.7)) <= 1e-6

    col = np.random.default_rng(5050).normal(size=60)
    X = np.column_stack([col, col])
    y_dup = (col > 0).astype(float)
    coef, _, diag = fit_logistic(X, y_dup, lam=0.5)
    assert diag["converged"]
    assert abs(coef[0] - coef[1]) <= 1e-8
    _report(5, "gradient vs finite differences, base-rate intercept, "
               "duplicate-column symmetry", started)


def test_criterion_06_rfe_recovery():
    started = time.monotonic()
    recovered = 0
    for trial in range(100):
        rng = np.random.default_rng([600, trial])
        n = 240
        y = (rng.random(n) < 0.5).astype(float)
        informative = rng.normal(size=(n, 10)) + 1.2 * y[:, None]
        noise = rng.normal(size=(n, 90))
        X = np.column_stack([informative, noise])
        names = [f"s{i}" for i in range(10)] + [f"n{i}" for i in range(90)]
        std = fit_standardizer(X, names)
        selected, _, _, _ = rfe(std.apply(X), y, std.kept_names, lam=1.0, k=10)
        if sum(1 for name in selected if name.startswith("s")) >= 8:
            recovered += 1
    assert recovered >= 90
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report(6, f"RFE recovered >=8/10 informative features in {recovered}/100 trials",
            started)


def test_criterion_07_leakage_and_protocol():
    started = time.monotonic()
    labels = {f"C1-{i:03d}": 1 for i in range(25)}
    labels.update({f"C0-{i:03d}": 0 for i in range(61)})
    plan = plan_splits(labels, n_iter=100, seed=11)
    everyone = set(labels)
    for it in plan:
        train, test = set(it["train"]), set(it["test"])
        assert not train & test
        assert train | test == everyone
        test_pos = sum(labels[p] for p in it["test"])
        assert abs(test_pos - 9) <= 1
        assert abs((len(it["test"]) - test_pos) - 21) <= 1
    again = plan_splits(labels, n_iter=100, seed=11)
    assert again == plan
    _report(7, "no patient leakage over 100 splits; test counts ~9/21; deterministic",
            started)


def test_criterion_08_end_to_end_discrimination():
    started = time.monotonic()
    spec = separated_cohort_spec(seed=101)       # 25/61 patients, 10 min at 1 kHz
    recordings = synth_cohort(spec)
    matrix, screening = extract_matrix(recordings, RunConfig(), workers=None)
    assert screening["windows_total"] == 20 * 86

    report = run_experiment(matrix, n_iter=100, seed=7, workers=None)
    summary = report.families["ALL"]["summary"]
    assert summary["auroc_median"] >= 0.95
    assert summary["auroc_p25"] >= 0.90

    null = shuffle_patient_labels(matrix, seed=1)    # permutation overlap at expectation
    null_report = run_experiment(null, n_iter=100, seed=7, families=("ALL",), workers=None)
    null_median = null_report.families["ALL"]["summary"]["auroc_median"]
    assert 0.4 <= null_median <= 0.6

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report(8, f"separable cohort ALL median={summary['auroc_median']:.3f} "
               f"p25={summary['auroc_p25']:.3f}; label-shuffled median={null_median:.3f}",
            started)


def test_criterion_09_sqi_screening():
    started = time.monotonic()
    design = design_bandpass(FS)
    clean_kept = 0
    modulated_rejected = 0
    for seed in range(100):
        spec = separated_cohort_spec(n_positive=1, n_negative=0, duration_s=32.0,
                                     seed=seed)
        rec = synth_recording(spec, "LVO", "P0", 0)
        filtered = zero_phase_filter(rec.samples, design)[:30000]
        clean = compute_sqi(Window("P0", 0, FS, filtered), detect_beats(filtered, FS))
        if clean.kept:
            clean_kept += 1
        modulated = filtered.copy()
        modulated[len(modulated) // 2:] *= 5.0
        verdict = compute_sqi(Window("P0", 0, FS, modulated), detect_beats(modulated, FS))
        if verdict.verdict == REJECT_AMPLITUDE_MODULATION:
            modulated_rejected += 1
    assert modulated_rejected >= 95
    assert clean_kept >= 99
    _report(9, f"x5 modulation rejected {modulated_rejected}/100 as amplitude_modulation; "
               f"clean kept {clean_kept}/100", started)


def test_criterion_10_reproducibility(tmp_path):
    started = time.monotonic()
    spec_doc = {"n_positive": 3, "n_negative": 4, "duration_s": 95.0, "fs": 500.0,
                "seed": 12}
    config_doc = {"n_iter": 8, "seed": 21}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))

    outputs = []
    for run, workers in (("one", "1"), ("two", "2")):
        base = tmp_path / run
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(base / "cohort"),
                         "--workers", workers]) == 0
        assert cli_main(["extract", "--manifest", str(base / "cohort" / "manifest.json"),
                         "--out", str(base / "features"), "--workers", workers]) == 0
        assert cli_main(["evaluate", "--matrix", str(base / "features" / "features.csv"),
                         "--config", str(config_path), "--out", str(base / "eval"),
                         "--screening", str(base / "features" / "screening.json"),
                         "--workers", workers]) == 0
        outputs.append(base)

    compared = 0
    for rel in ("cohort/manifest.json", "features/features.csv", "features/screening.json",
                "eval/report.json", "eval/roc_ALL.csv", "eval/selection_frequencies.csv",
                "eval/distributions.json"):
        a = (outputs[0] / rel).read_bytes()
        b = (outputs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between runs"
        compared += 1
    sample_files = sorted(p.name for p in (outputs[0] / "cohort").glob("*.txt"))
    for name in sample_files:
        assert (outputs[0] / "cohort" / name).read_bytes() == \
               (outputs[1] / "cohort" / name).read_bytes()
        compared += 1
    _report(10, f"two full pipeline runs byte-identical across {compared} artifacts",
            started)
