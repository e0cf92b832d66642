import pytest

from ppgtriage.config import config_from_dict
from ppgtriage.errors import ConfigError

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
