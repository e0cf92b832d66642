import inspect
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgtriage.config import (MAX_WORKERS, VALID_FAMILIES, VALID_METRIC_LEVELS, RunConfig,
                              config_from_dict)
from ppgtriage.errors import ConfigError
from ppgtriage.evaluate import plan_splits, run_experiment
from ppgtriage.model import fit_logistic, rfe, train_model
from ppgtriage.pipeline import extract_matrix
from ppgtriage.preprocess import compute_sqi, design_bandpass, segment_windows
from ppgtriage.synth import ClassParams, CohortSpec, spec_from_dict, synth_cohort_to_dir

from .conftest import random_beat_model

INT_KEYS = ("filter_order", "min_beats", "n_iter", "rfe_k", "seed", "workers")
FLOAT_KEYS = ("band_low_hz", "band_high_hz", "window_s", "sqi_threshold", "am_threshold",
              "train_fraction", "lambda")


@pytest.mark.parametrize("key, value", [(key, value) for key in INT_KEYS
                                        for value in (True, False, 2.7, float("nan"))]
                         + [(key, value) for key in FLOAT_KEYS for value in (True, False)])
def test_numeric_keys_reject_booleans_and_fractions(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict({key: value})


@pytest.mark.parametrize("key", INT_KEYS + FLOAT_KEYS)
@pytest.mark.parametrize("value", ["3", "1.5"])
def test_numeric_keys_reject_strings(key, value):
    with pytest.raises(ConfigError, match=f"'{key}': expected a number"):
        config_from_dict({key: value})


@pytest.mark.parametrize("change", [{"fs": "250"}, {"n_positive": "2"}, {"seed": "7"},
                                    {"positive": {"hr_sd_bpm": "1.5"}},
                                    {"negative": {"age_range": [50, "60"]}},
                                    {"positive": {"beat": {"systolic_amp": "1"}}}])
def test_spec_numbers_reject_strings(change):
    with pytest.raises(ConfigError, match="expected a number"):
        spec_from_dict({"n_positive": 1, "n_negative": 1, **change})


def test_integral_values_are_accepted():
    cfg = config_from_dict({"n_iter": 3.0, "seed": 7, "workers": 2, "lambda": 2,
                            "window_s": 20})
    assert (cfg.n_iter, cfg.seed, cfg.workers) == (3, 7, 2)
    assert isinstance(cfg.n_iter, int)
    assert (cfg.lam, cfg.window_s) == (2.0, 20.0)


@pytest.mark.parametrize("workers", [0, -1, MAX_WORKERS + 1, 100000])
def test_workers_outside_one_to_max_workers_is_config_error(pool_requests, small_cohort,
                                                            tmp_path, workers):
    """The config file and the library entry points share the bound, and fail
    before any pool is asked for."""
    assert config_from_dict({"workers": MAX_WORKERS}).workers == 256
    with pytest.raises(ConfigError, match=r"workers must be in \[1, 256\]"):
        config_from_dict({"workers": workers})
    with pytest.raises(ConfigError, match="workers"):
        extract_matrix(small_cohort, RunConfig(), workers=workers)
    with pytest.raises(ConfigError, match="workers"):
        synth_cohort_to_dir(CohortSpec(n_positive=2, n_negative=2, duration_s=10.0, seed=1),
                            tmp_path / "c", workers=workers)
    assert pool_requests == []
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("key", ["lambda", "window_s"])
def test_float_key_too_large_for_a_float_is_config_error(key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict({key: 10**400})


#: (stage, parameter, RunConfig field) for every stage keyword that stands for
#: a run parameter. `seed` and `workers` are not here: their RunConfig default
#: None means "required" and "one per core", while run_experiment and
#: plan_splits default to seed 0 and run_experiment to 1 worker.
STAGE_DEFAULTS = [
    (design_bandpass, "low", "band_low_hz"),
    (design_bandpass, "high", "band_high_hz"),
    (design_bandpass, "order", "filter_order"),
    (segment_windows, "window_s", "window_s"),
    (compute_sqi, "sqi_threshold", "sqi_threshold"),
    (compute_sqi, "am_threshold", "am_threshold"),
    (compute_sqi, "min_beats", "min_beats"),
    (fit_logistic, "lam", "lam"),
    (rfe, "lam", "lam"),
    (rfe, "k", "rfe_k"),
    (train_model, "lam", "lam"),
    (train_model, "k", "rfe_k"),
    (plan_splits, "train_fraction", "train_fraction"),
    (plan_splits, "n_iter", "n_iter"),
    (run_experiment, "n_iter", "n_iter"),
    (run_experiment, "train_fraction", "train_fraction"),
    (run_experiment, "lam", "lam"),
    (run_experiment, "rfe_k", "rfe_k"),
    (run_experiment, "families", "families"),
    (run_experiment, "metric_level", "metric_level"),
]


@pytest.mark.parametrize("stage, param, field", STAGE_DEFAULTS,
                         ids=[f"{s.__name__}-{p}" for s, p, _ in STAGE_DEFAULTS])
def test_stage_default_is_the_run_config_default(stage, param, field):
    default = inspect.signature(stage).parameters[param].default
    assert default == getattr(RunConfig(), field)
    assert type(default) is type(getattr(RunConfig(), field))


#: the documented keys of each document (README "Data formats")
CONFIG_KEYS = INT_KEYS + FLOAT_KEYS + ("families", "metric_level")
SPEC_KEYS = ("n_positive", "n_negative", "duration_s", "fs", "positive", "negative",
             "noise_sd", "wander_amp", "wander_freq_hz", "male_fraction", "seed")
CLASS_KEYS = ("beat", "mean_hr_bpm", "hr_sd_bpm", "hr_ar", "age_range")
BEAT_KEYS = ("systolic_amp", "systolic_center", "systolic_width", "diastolic_amp",
             "diastolic_center", "diastolic_width")

#: any JSON value Python's json can read (NaN, Infinity and huge integers too),
#: plus values near the valid ranges so that some documents are accepted
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)
_values = (_json | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-2.0, 300.0)
           | st.integers(0, 200)
           | st.lists(st.sampled_from(VALID_FAMILIES), max_size=4)
           | st.sampled_from(VALID_METRIC_LEVELS) | st.lists(st.floats(0.0, 100.0), max_size=3))


def _document(keys, values):
    """Objects of up to three keys, drawn from the given ones and one unknown key."""
    return st.dictionaries(st.sampled_from(keys + ("frobnicate",)), values, max_size=3)


_beat_doc = _document(BEAT_KEYS, _values)
_class_doc = _document(CLASS_KEYS, _values | _beat_doc)
_spec_doc = _document(SPEC_KEYS, _values | _class_doc)


def _floats(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


@pytest.mark.parametrize("parse, documents", [(config_from_dict, _document(CONFIG_KEYS, _values)),
                                              (spec_from_dict, _spec_doc)],
                         ids=["config", "spec"])
def test_fuzzed_document_is_config_error_or_a_valid_finite_object(parse, documents):
    @settings(max_examples=400, deadline=None)
    @given(doc=documents)
    def check(doc):
        try:
            obj = parse(json.loads(json.dumps(doc)))
        except ConfigError:
            return
        obj.validate()
        assert all(math.isfinite(v) for v in _floats(asdict(obj)))

    check()


def _as_document(obj) -> dict:
    """A JSON document of a dataclass's fields, `lam` under its key `lambda`."""
    doc = json.loads(json.dumps(asdict(obj)))
    if "lam" in doc:
        doc["lambda"] = doc.pop("lam")
    return doc


_positive_floats = st.floats(0.05, 50.0)
_run_configs = st.builds(
    RunConfig, band_low_hz=st.floats(0.1, 1.0), band_high_hz=st.floats(2.0, 20.0),
    filter_order=st.sampled_from([2, 4, 6]), window_s=_positive_floats,
    sqi_threshold=st.floats(-1.0, 1.0), am_threshold=_positive_floats,
    min_beats=st.integers(0, 50), n_iter=st.integers(1, 200),
    train_fraction=st.floats(0.05, 0.95), rfe_k=st.integers(1, 20), lam=st.floats(0.0, 10.0),
    seed=st.none() | st.integers(0, 2**32), metric_level=st.sampled_from(VALID_METRIC_LEVELS),
    families=st.lists(st.sampled_from(VALID_FAMILIES), min_size=1, max_size=4,
                      unique=True).map(tuple),
    workers=st.none() | st.integers(1, 8))


@st.composite
def _class_params(draw):
    lo, hi = sorted(draw(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=2)))
    return ClassParams(beat=random_beat_model(np.random.default_rng(draw(st.integers(0, 2**32)))),
                       mean_hr_bpm=draw(st.floats(40.0, 100.0)),
                       hr_sd_bpm=draw(st.floats(0.0, 5.0)), hr_ar=draw(st.floats(-0.9, 0.9)),
                       age_range=(lo, hi))


_cohort_specs = st.builds(
    CohortSpec, n_positive=st.integers(0, 50), n_negative=st.integers(0, 50),
    duration_s=st.floats(1.0, 600.0), fs=st.floats(50.0, 2000.0),
    positive=_class_params(), negative=_class_params(), noise_sd=st.floats(0.0, 0.1),
    wander_amp=st.floats(0.0, 0.5), wander_freq_hz=st.floats(0.0, 1.0),
    male_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(cfg=_run_configs, spec=_cohort_specs)
def test_a_document_of_the_fields_parses_back_to_an_equal_object(cfg, spec):
    assert config_from_dict(_as_document(cfg)) == cfg
    assert spec_from_dict(_as_document(spec)) == spec


@pytest.mark.parametrize("key", ["band_low_hz", "window_s", "am_threshold", "lambda",
                                 "train_fraction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_float_keys_must_be_finite(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
        config_from_dict({key: value})
