"""The traced benchmark wraps program functions by module attribute name.

perfbench/tracing.py replaces each listed attribute for the length of a run;
an attribute that a refactor renames or moves would make the tracer fail.
This checks the names without changing perfbench.
"""
import importlib
import json
from collections import Counter

import numpy as np
import pytest

from perfbench.tracing import TARGETS, _count_fit
from ppgtriage import cli, io, model, synth


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS])
def test_traced_target_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj)[cls]
    assert attr in vars(obj)
    assert callable(getattr(obj, attr))


def test_synth_calls_the_traced_names_once_per_recording(tmp_path, monkeypatch):
    """`ppgtriage synth` looks up synth_recording and write_samples through the
    modules the tracer wraps, so a traced set-up records one span of each per
    recording."""
    traced = {(owner, attr) for owner, attr, _, _ in TARGETS}
    assert {("ppgtriage.synth", "synth_recording"), ("ppgtriage.io", "write_samples")} <= traced
    calls = {"synth_recording": 0, "write_samples": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(synth, "synth_recording")
    counting(io, "write_samples")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_positive": 2, "n_negative": 1, "duration_s": 5.0,
                                "fs": 100.0, "seed": 4}))
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c"),
                     "--workers", "1"]) == 0
    assert calls == {"synth_recording": 3, "write_samples": 3}


def test_rfe_calls_the_traced_fit_once_per_refit(monkeypatch):
    """`rfe` looks up fit_logistic through the model module, so the tracer counts
    every elimination refit and the final one, and each result carries the
    Newton-step count that its count hook reads."""
    traced = {(owner, attr): hook for owner, attr, _, hook in TARGETS}
    assert traced[("ppgtriage.model", "fit_logistic")] is _count_fit
    original = model.fit_logistic
    results = []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(model, "fit_logistic", counting)
    rng = np.random.default_rng(16)
    X = rng.normal(size=(80, 8))
    y = (X[:, 0] + rng.normal(size=80) > 0).astype(float)
    model.rfe(X, y, [f"f{i}" for i in range(8)], lam=1.0, k=3)
    assert len(results) == 6
    counts = Counter()
    for result in results:
        assert isinstance(result[2]["iterations"], int)
        _count_fit(counts, result)
    assert counts["model.fit_calls"] == 6
