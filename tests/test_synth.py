import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgtriage import pipeline
from ppgtriage.errors import ConfigError
from ppgtriage.fiducials import detect_beats
from ppgtriage.io import write_cohort
from ppgtriage.synth import (BeatModel, ClassParams, CohortSpec, _ar1, _draw_periods,
                             cohort_labels, separated_cohort_spec, spec_from_dict, synth_beat,
                             synth_cohort, synth_cohort_to_dir, synth_recording)

from .conftest import matched_cohort_spec


def test_beat_peak_amplitude_single_wave():
    model = BeatModel(systolic_amp=1.7, diastolic_amp=0.0)
    assert synth_beat(model, model.systolic_center) == pytest.approx(1.7, abs=1e-12)


def test_beat_tails_vanish():
    model = BeatModel()
    assert synth_beat(model, model.diastolic_center + 10 * model.diastolic_width) < 1e-10


def test_beat_symmetric_about_center():
    model = BeatModel(diastolic_amp=0.0)
    c = model.systolic_center
    for delta in (0.01, 0.05, 0.11):
        assert synth_beat(model, c - delta) == synth_beat(model, c + delta)


def test_sample_count_is_duration_times_fs():
    spec = CohortSpec(duration_s=12.0, fs=500.0, noise_sd=0.0, wander_amp=0.0, seed=1)
    rec = synth_recording(spec, "NL", "P0", 0)
    assert len(rec.samples) == 6000
    spec2 = CohortSpec(duration_s=30.5, fs=100.0, seed=1)
    assert len(synth_recording(spec2, "NL", "P0", 0).samples) == 3050


def test_same_seed_reproduces_samples_exactly():
    spec = CohortSpec(duration_s=20.0, seed=9)
    a = synth_recording(spec, "LVO", "P0", 3)
    b = synth_recording(spec, "LVO", "P0", 3)
    assert np.array_equal(a.samples, b.samples)
    assert a.age == b.age and a.sex == b.sex


def test_different_streams_differ():
    spec = CohortSpec(duration_s=20.0, seed=9)
    a = synth_recording(spec, "LVO", "P0", 0)
    b = synth_recording(spec, "LVO", "P1", 1)
    assert not np.array_equal(a.samples, b.samples)


def test_zero_rate_variance_gives_exact_one_second_beats():
    params = ClassParams(mean_hr_bpm=60.0, hr_sd_bpm=0.0)
    spec = CohortSpec(duration_s=20.0, fs=1000.0, positive=params,
                      noise_sd=0.0, wander_amp=0.0, seed=4)
    rec = synth_recording(spec, "LVO", "P0", 0)
    spans = detect_beats(rec.samples, rec.fs)
    onsets = np.array([s.onset for s in spans] + [spans[-1].next_onset])
    intervals = np.diff(onsets)
    assert np.all(intervals[1:] == 1000)        # interior beats exactly periodic
    assert abs(int(intervals[0]) - 1000) <= 1   # first onset sits at the segment edge


def test_period_mean_converges_to_nominal():
    params = ClassParams(mean_hr_bpm=74.0, hr_sd_bpm=3.0)
    rng = np.random.default_rng(5)
    periods = _draw_periods(rng, params, duration_s=600.0)
    assert len(periods) >= 500
    assert abs(periods.mean() - 60.0 / 74.0) / (60.0 / 74.0) < 0.02


def test_noiseless_signal_is_finite_and_clean():
    spec = CohortSpec(duration_s=15.0, noise_sd=0.0, wander_amp=0.0, seed=2)
    rec = synth_recording(spec, "SM", "P0", 0)
    assert np.all(np.isfinite(rec.samples))
    assert rec.samples.min() >= 0.0   # sum of non-negative waves


def test_autoregressive_rate_raises_short_term_variability():
    base = ClassParams(mean_hr_bpm=70.0, hr_sd_bpm=3.0, hr_ar=0.0)
    smooth = ClassParams(mean_hr_bpm=70.0, hr_sd_bpm=3.0, hr_ar=0.9)
    rmssd = {}
    for name, params in (("iid", base), ("ar", smooth)):
        periods = _draw_periods(np.random.default_rng(11), params, 400.0)
        rmssd[name] = np.sqrt(np.mean(np.diff(periods) ** 2))
    assert rmssd["ar"] < 0.6 * rmssd["iid"]


def test_cohort_mirrors_requested_class_sizes():
    spec = CohortSpec(n_positive=25, n_negative=61, duration_s=0.5, fs=50.0, seed=3)
    recs = synth_cohort(spec)
    assert len(recs) == 86
    assert sum(1 for r in recs if r.label == "LVO") == 25
    assert sum(1 for r in recs if r.label in ("NL", "SM")) == 61
    assert len({r.patient_id for r in recs}) == 86


def test_cohort_ages_within_class_range():
    params = ClassParams(age_range=(55.0, 65.0))
    spec = CohortSpec(n_positive=5, n_negative=5, duration_s=0.5, fs=50.0,
                      positive=params, negative=params, seed=3)
    for rec in synth_cohort(spec):
        assert 55.0 <= rec.age <= 65.0
        assert rec.sex in ("male", "female")


def test_cohort_labels_alternate_negative_classes():
    spec = CohortSpec(n_positive=2, n_negative=5, seed=0)
    assert cohort_labels(spec) == ["LVO", "LVO", "NL", "SM", "NL", "SM", "NL"]


def test_synth_to_dir_byte_identical(tmp_path):
    spec = CohortSpec(n_positive=2, n_negative=2, duration_s=2.0, fs=100.0, seed=8)
    m1 = synth_cohort_to_dir(spec, tmp_path / "a", workers=1)
    m2 = synth_cohort_to_dir(spec, tmp_path / "b", workers=2)
    assert m1.read_bytes() == m2.read_bytes()
    for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_pipeline_reexports_the_one_synth_recording():
    assert pipeline.synth_recording is synth_recording


#: sha256 over the names and bytes of the manifest and sample files below, as
#: written when periods still went through scipy.signal.lfilter
GOLDEN_COHORT_SHA256 = "d81f120464de03bafc6d43bfd2c2d9ad8070d86c4ae1dca853cf59007155d80b"


def test_synth_to_dir_matches_golden_bytes(tmp_path):
    spec = CohortSpec(n_positive=2, n_negative=3, duration_s=12.0, fs=200.0,
                      positive=ClassParams(mean_hr_bpm=80.0, hr_sd_bpm=3.0, hr_ar=0.6),
                      negative=ClassParams(mean_hr_bpm=66.0, hr_sd_bpm=2.0, hr_ar=-0.4),
                      seed=11)
    synth_cohort_to_dir(spec, tmp_path, workers=1)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_COHORT_SHA256


# `+ 0.0` turns -0.0 into 0.0: the period draws never hold a negative zero, the
# one input on which the recurrence and lfilter differ in the sign of a zero
_innovations = st.lists(st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: v + 0.0),
                        min_size=1, max_size=200)


@settings(max_examples=300, deadline=None)
@given(eps=_innovations,
       coef=st.one_of(st.just(0.0), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)))
def test_ar1_matches_lfilter_bitwise(eps, coef):
    from scipy.signal import lfilter

    eps = np.array(eps)
    assert _ar1(eps, coef).tobytes() == lfilter([1.0], [1.0, -coef], eps).tobytes()


def test_spec_json_round_trip():
    doc = {
        "n_positive": 3, "n_negative": 4, "duration_s": 33.0, "fs": 200.0,
        "noise_sd": 0.005, "seed": 12,
        "positive": {"mean_hr_bpm": 80.0, "hr_sd_bpm": 1.0,
                     "beat": {"diastolic_amp": 0.4, "diastolic_center": 0.5,
                              "diastolic_width": 0.06}},
    }
    spec = spec_from_dict(json.loads(json.dumps(doc)))
    assert spec.n_positive == 3 and spec.fs == 200.0
    assert spec.positive.mean_hr_bpm == 80.0
    assert spec.positive.beat.diastolic_amp == 0.4
    assert spec.negative.mean_hr_bpm == ClassParams().mean_hr_bpm


def test_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        spec_from_dict({"n_positive": 1, "frobnicate": 2})


def test_spec_rejects_bad_rate():
    with pytest.raises(ConfigError, match="mean_hr_bpm"):
        spec_from_dict({"positive": {"mean_hr_bpm": 10.0}})


def test_spec_rejects_negative_counts():
    with pytest.raises(ConfigError):
        spec_from_dict({"n_positive": -1})


def test_beat_model_invariants():
    with pytest.raises(ConfigError):
        BeatModel(systolic_width=-0.1).validate()
    with pytest.raises(ConfigError):
        BeatModel(diastolic_amp=1.5).validate()
    with pytest.raises(ConfigError):
        BeatModel(systolic_center=0.7, diastolic_center=0.5).validate()
    BeatModel(diastolic_amp=0.0).validate()


def test_preset_specs_validate():
    separated_cohort_spec(n_positive=2, n_negative=2).validate()
    matched_cohort_spec(n_positive=2, n_negative=2).validate()
    spec = matched_cohort_spec()
    assert spec.positive == spec.negative


def test_write_cohort_writes_what_synth_to_dir_writes(tmp_path):
    spec = CohortSpec(n_positive=2, n_negative=2, duration_s=2.0, fs=100.0, seed=8)
    synth_cohort_to_dir(spec, tmp_path / "a", workers=1)
    write_cohort(synth_cohort(spec), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("spec, key", [
    (CohortSpec(duration_s=float("nan")), "duration_s"),
    (CohortSpec(fs=float("inf")), "fs"),
    (CohortSpec(negative=ClassParams(hr_ar=float("nan"))), "negative.hr_ar"),
    (CohortSpec(positive=ClassParams(age_range=(60.0, float("inf")))), "positive.age_range"),
    (CohortSpec(positive=ClassParams(beat=BeatModel(diastolic_amp=float("nan")))),
     "positive.beat.diastolic_amp"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_synth_cohort_rejects_a_non_finite_spec_number(spec, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be a finite number"):
        synth_cohort(spec)


@pytest.mark.parametrize("doc, key", [
    ({"positive": {"beat": {"diastolic_amp": True}}}, "positive.beat.diastolic_amp"),
    ({"negative": {"age_range": [50, "old"]}}, "negative.age_range[1]"),
    ({"positive": {"age_range": [50, 60, 70]}}, "positive.age_range"),
    ({"positive": {"beat": {"bogus": 1.0}}}, "positive.beat"),
    ({"negative": []}, "negative"),
])
def test_spec_errors_name_the_dotted_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(f"cohort spec key '{key}'")):
        spec_from_dict(doc)


def test_quick_start_spec_is_the_separated_preset():
    doc = {"n_positive": 25, "n_negative": 61, "duration_s": 600, "fs": 1000,
           "noise_sd": 0.01, "seed": 7,
           "positive": {"mean_hr_bpm": 78, "hr_sd_bpm": 1.2,
                        "beat": {"systolic_center": 0.28, "systolic_width": 0.09,
                                 "diastolic_amp": 0.45, "diastolic_center": 0.50,
                                 "diastolic_width": 0.055}},
           "negative": {"mean_hr_bpm": 70, "hr_sd_bpm": 3.0,
                        "beat": {"diastolic_amp": 0.30, "diastolic_center": 0.56,
                                 "diastolic_width": 0.06}}}
    assert spec_from_dict(doc) == separated_cohort_spec(seed=7)
