"""The traced benchmark wraps program functions by module attribute name.

perfbench/tracing.py replaces each listed attribute for the length of a run;
an attribute that a refactor renames or moves would make the tracer fail.
This checks the names without changing perfbench.
"""
import importlib
import json

import pytest

from perfbench.tracing import TARGETS
from ppgtriage import cli, io, synth


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
