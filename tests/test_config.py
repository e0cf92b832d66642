import inspect

import pytest

from ppgtriage.config import RunConfig, config_from_dict
from ppgtriage.errors import ConfigError
from ppgtriage.evaluate import plan_splits, run_experiment
from ppgtriage.model import fit_logistic, rfe, train_model
from ppgtriage.preprocess import compute_sqi, design_bandpass, segment_windows

INT_KEYS = ("filter_order", "min_beats", "n_iter", "rfe_k", "seed", "workers")
FLOAT_KEYS = ("band_low_hz", "band_high_hz", "window_s", "sqi_threshold", "am_threshold",
              "train_fraction", "lambda")


@pytest.mark.parametrize("key, value", [(key, value) for key in INT_KEYS
                                        for value in (True, False, 2.7, float("nan"))]
                         + [(key, value) for key in FLOAT_KEYS for value in (True, False)])
def test_numeric_keys_reject_booleans_and_fractions(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict({key: value})


def test_integral_values_are_accepted():
    cfg = config_from_dict({"n_iter": 3.0, "seed": 7, "workers": 2, "lambda": 2,
                            "window_s": 20})
    assert (cfg.n_iter, cfg.seed, cfg.workers) == (3, 7, 2)
    assert isinstance(cfg.n_iter, int)
    assert (cfg.lam, cfg.window_s) == (2.0, 20.0)


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
