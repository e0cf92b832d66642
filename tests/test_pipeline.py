import numpy as np
import pytest

from ppgtriage.config import RunConfig
from ppgtriage.errors import ConfigError, DataError
from ppgtriage.evaluate import run_experiment
from ppgtriage.io import Recording, write_cohort
from ppgtriage.pipeline import extract_cohort, extract_matrix, process_recording
from ppgtriage.preprocess import design_bandpass
from ppgtriage.synth import (CohortSpec, matched_cohort_spec, separated_cohort_spec,
                             synth_cohort, synth_recording)


def test_extracted_matrix_is_clean(small_cohort, small_matrix):
    matrix, screening = small_matrix
    assert screening["windows_total"] == 3 * len(small_cohort)
    assert screening["kept"] == matrix.n_rows
    assert screening["excluded"] == screening["windows_total"] - screening["kept"]
    assert matrix.n_rows >= 0.9 * screening["windows_total"]
    missing_everywhere = np.all(~np.isfinite(matrix.values), axis=0)
    assert not missing_everywhere.any()


def test_single_clean_recording_gives_two_rows():
    spec = separated_cohort_spec(n_positive=1, n_negative=0, duration_s=65.0, seed=1)
    rec = synth_recording(spec, "LVO", "P0", 0)
    rows, screening = process_recording(rec, RunConfig())
    assert len(rows) == 2
    assert screening["n_windows"] == 2 and screening["kept"] == 2
    assert {r[1] for r in rows} == {0, 1}


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_matrix_rejects_non_finite_sample(workers):
    spec = separated_cohort_spec(n_positive=1, n_negative=1, duration_s=65.0, seed=1)
    recordings = synth_cohort(spec)
    recordings[1].samples[4321] = np.nan
    pid = recordings[1].patient_id
    with pytest.raises(DataError, match=f"'{pid}': non-finite sample at index 4321"):
        extract_matrix(recordings, RunConfig(), workers=workers)


def test_recording_too_short_to_filter_gets_a_verdict():
    pad = design_bandpass(1000.0).pad_len
    rec = Recording("P0", 1000.0, np.sin(np.arange(pad) / 100.0), "NL")
    rows, screening = process_recording(rec, RunConfig())
    assert rows == []
    assert screening == {"patient_id": "P0", "n_windows": 0, "kept": 0, "windows": [],
                         "reason": "too_short"}


def test_short_recording_does_not_abort_the_cohort():
    spec = separated_cohort_spec(n_positive=1, n_negative=1, duration_s=65.0, seed=1)
    recordings = synth_cohort(spec)
    short = Recording("NL-9999", 1000.0, recordings[1].samples[:5000].copy(), "NL")
    matrix, screening = extract_matrix(recordings + [short], RunConfig(), workers=1)
    alone, alone_screening = extract_matrix(recordings, RunConfig(), workers=1)
    assert matrix.patient_ids == alone.patient_ids
    assert np.array_equal(matrix.values, alone.values, equal_nan=True)
    assert screening["recordings"][:2] == alone_screening["recordings"]
    assert screening["recordings"][2]["reason"] == "too_short"
    assert {k: screening[k] for k in ("windows_total", "kept", "excluded")} == \
           {k: alone_screening[k] for k in ("windows_total", "kept", "excluded")}


def test_all_noise_recording_gives_no_rows():
    rng = np.random.default_rng(0)
    rec = Recording("P0", 1000.0, rng.normal(size=65000), "NL")
    rows, screening = process_recording(rec, RunConfig())
    assert rows == []
    assert screening["kept"] == 0
    reasons = {w["verdict"] for w in screening["windows"]}
    assert reasons and "kept" not in reasons


def test_worker_count_does_not_change_output(small_cohort):
    m1, s1 = extract_matrix(small_cohort, RunConfig(), workers=1)
    m2, s2 = extract_matrix(small_cohort, RunConfig(), workers=2)
    assert m1.patient_ids == m2.patient_ids
    assert np.array_equal(m1.values, m2.values, equal_nan=True)
    assert s1 == s2


def test_disk_and_memory_routes_agree(tmp_path, small_cohort, small_matrix):
    matrix_mem, screening_mem = small_matrix
    manifest = write_cohort(small_cohort, tmp_path)
    matrix_disk, screening_disk = extract_cohort(manifest, RunConfig(), workers=2)
    assert matrix_disk.patient_ids == matrix_mem.patient_ids
    assert np.array_equal(matrix_disk.values, matrix_mem.values, equal_nan=True)
    assert screening_disk == screening_mem


def test_process_recording_deterministic(small_cohort):
    rows_a, s_a = process_recording(small_cohort[0], RunConfig())
    rows_b, s_b = process_recording(small_cohort[0], RunConfig())
    assert s_a == s_b
    for (pa, wa, va), (pb, wb, vb) in zip(rows_a, rows_b):
        assert (pa, wa) == (pb, wb)
        assert va.keys() == vb.keys()
        for key in va:
            assert (np.isnan(va[key]) and np.isnan(vb[key])) or va[key] == vb[key]


def test_matched_parameter_cohort_is_chance_level():
    # identical generation parameters for both classes: the pipeline must not
    # manufacture separation (checked for a typical cohort draw)
    spec = matched_cohort_spec(n_positive=12, n_negative=16, duration_s=185.0, seed=3)
    matrix, _ = extract_matrix(synth_cohort(spec), RunConfig(), workers=2)
    report = run_experiment(matrix, n_iter=30, seed=9, families=("ALL",), workers=2)
    median = report.families["ALL"]["summary"]["auroc_median"]
    assert 0.4 <= median <= 0.6


def test_window_features_invariant_to_whole_beat_shift():
    # noiseless strictly periodic recording: starting the window one beat
    # later must not change any window feature
    import dataclasses

    params = dataclasses.replace(separated_cohort_spec(seed=0).positive,
                                 mean_hr_bpm=60.0, hr_sd_bpm=0.0)
    spec = CohortSpec(duration_s=36.0, fs=1000.0, positive=params,
                      noise_sd=0.0, wander_amp=0.0, seed=6)
    rec = synth_recording(spec, "LVO", "P0", 0)
    period = 1000
    base = Recording("P0", 1000.0, rec.samples[:30000], "LVO")
    shifted = Recording("P0", 1000.0, rec.samples[period:period + 30000], "LVO")
    rows_a, _ = process_recording(base, RunConfig())
    rows_b, _ = process_recording(shifted, RunConfig())
    va, vb = rows_a[0][2], rows_b[0][2]
    for name in va:
        if np.isnan(va[name]) and np.isnan(vb[name]):
            continue
        assert vb[name] == pytest.approx(va[name], rel=1e-6, abs=1e-9), name


@pytest.mark.parametrize("fs", [128.0, 2000.0])
def test_pipeline_honors_other_sampling_rates(fs):
    import dataclasses

    spec = separated_cohort_spec(n_positive=2, n_negative=2, duration_s=65.0, seed=3)
    spec = dataclasses.replace(spec, fs=fs)
    matrix, screening = extract_matrix(synth_cohort(spec), RunConfig(), workers=2)
    assert screening["kept"] == screening["windows_total"] == 8
    tpi = matrix.values[:, matrix.feature_names.index("T_pi")]
    pos = matrix.labels == 1
    assert np.nanmean(tpi[pos]) == pytest.approx(60.0 / 78.0, rel=0.01)
    assert np.nanmean(tpi[~pos]) == pytest.approx(60.0 / 70.0, rel=0.01)
    assert not np.all(~np.isfinite(matrix.values), axis=0).any()


def test_screening_log_reasons_accumulate():
    rng = np.random.default_rng(1)
    noise = Recording("N0", 1000.0, rng.normal(size=65000), "NL")
    spec = CohortSpec(n_positive=1, n_negative=0, duration_s=65.0, seed=2)
    clean = synth_recording(spec, "LVO", "C0", 0)
    matrix, screening = extract_matrix([clean, noise], RunConfig(), workers=1)
    assert screening["windows_total"] == 4
    assert screening["kept"] == 2
    assert sum(screening["excluded_by_reason"].values()) == 2
    assert matrix.n_rows == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", [RunConfig(min_beats=-1), RunConfig(sqi_threshold=5.0),
                                    RunConfig(window_s=float("nan")),
                                    RunConfig(band_high_hz=float("inf")),
                                    RunConfig(am_threshold=float("nan"))],
                         ids=["min_beats=-1", "sqi_threshold=5.0", "window_s=nan",
                              "band_high_hz=inf", "am_threshold=nan"])
def test_extract_matrix_rejects_a_bad_config(small_cohort, config, workers):
    with pytest.raises(ConfigError):
        extract_matrix(small_cohort, config, workers=workers)

