import json
import re

import numpy as np
import pytest

from ppgtriage.errors import DataError
from ppgtriage.evaluate import EvalReport
from ppgtriage.io import (SAMPLE_CHUNK, Recording, binarize_label, load_cohort, load_manifest,
                          load_samples, read_report, write_cohort, write_report, write_samples)


def _recording(pid, n=50, seed=0, label="LVO", **kw):
    rng = np.random.default_rng(seed)
    samples = rng.normal(scale=1e3, size=n) + rng.normal(size=n) * 1e-9
    return Recording(patient_id=pid, fs=250.0, samples=samples, label=label, **kw)


def test_cohort_round_trip_is_exact(tmp_path):
    recs = [_recording("A01", seed=1, label="LVO", age=70.5, sex="male"),
            _recording("B02", seed=2, label="SM", sex="female")]
    manifest = write_cohort(recs, tmp_path)
    loaded = load_cohort(manifest)
    assert [r.patient_id for r in loaded] == ["A01", "B02"]
    for orig, back in zip(recs, loaded):
        assert np.array_equal(orig.samples, back.samples)
        assert back.fs == orig.fs and back.label == orig.label
        assert back.age == orig.age and back.sex == orig.sex


def test_sample_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(size=100), [1e-300, 1e300, 0.1 + 0.2, -0.0]])
    path = tmp_path / "s.txt"
    write_samples(path, x)
    assert np.array_equal(load_samples(path), x)


def test_paper_shaped_cohort_class_counts(tmp_path):
    labels = ["LVO"] * 25 + ["NL"] * 34 + ["SM"] * 27
    recs = [_recording(f"P{i:03d}", n=3, seed=i, label=lab) for i, lab in enumerate(labels)]
    manifest = write_cohort(recs, tmp_path)
    loaded = load_cohort(manifest)
    assert len(loaded) == 86
    binary = [binarize_label(rec.label) for rec in loaded]
    assert (binary.count(1), binary.count(0)) == (25, 61)


def test_empty_manifest_is_empty_cohort(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": []}))
    assert load_cohort(path) == []


def test_unknown_label_names_entry_index(tmp_path):
    manifest = write_cohort([_recording("A", n=3), _recording("B", n=3, seed=1)], tmp_path)
    doc = json.loads(manifest.read_text())
    doc["entries"][1]["label"] = "UNKNOWN"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="entry 1"):
        load_manifest(manifest)


def test_duplicate_patient_id_rejected(tmp_path):
    manifest = write_cohort([_recording("A", n=3)], tmp_path)
    doc = json.loads(manifest.read_text())
    doc["entries"].append(dict(doc["entries"][0]))
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="duplicate"):
        load_manifest(manifest)


def test_missing_sample_file_rejected(tmp_path):
    manifest = write_cohort([_recording("A", n=3)], tmp_path)
    (tmp_path / "A.txt").unlink()
    with pytest.raises(DataError, match="entry 0"):
        load_cohort(manifest)


def test_non_finite_sample_rejected(tmp_path):
    manifest = write_cohort([_recording("A", n=3)], tmp_path)
    (tmp_path / "A.txt").write_text("1.0\nnan\n2.0\n")
    with pytest.raises(DataError, match="non-finite"):
        load_cohort(manifest)


def test_malformed_entry_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [{"patient_id": "A", "label": "NL"}]}))
    with pytest.raises(DataError, match="entry 0"):
        load_manifest(path)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_cohort(tmp_path / "nope.json")


def test_binarize_label_mapping():
    assert binarize_label("LVO") == 1
    assert binarize_label("NL") == 0
    assert binarize_label("SM") == 0
    with pytest.raises(DataError):
        binarize_label("UNKNOWN")


def _toy_report():
    return EvalReport(
        config={"n_iter": 2, "families": ["MOR"], "seed": 5},
        class_counts={"C1": 2, "C0": 3},
        families={"MOR": {
            "summary": {"family": "MOR", "sensitivity": 0.1 + 0.2, "specificity": 1 / 3,
                        "precision": None, "f1": 0.5, "auroc_median": 0.77,
                        "auroc_p25": 0.71, "auroc_p75": 0.82},
            "iterations": [{"degenerate": None, "window": {"auroc": 2 / 3}}],
            "degenerate_iterations": 0,
            "selection_frequency": {"T_a": 2},
        }},
        screening={"windows_total": 10, "kept": 9},
        distributions={"top_features": ["T_a"], "per_feature": {}},
    )


def test_report_round_trip_bit_exact(tmp_path):
    report = _toy_report()
    path = tmp_path / "report.json"
    write_report(report, path)
    back = read_report(path)
    assert back == report
    assert back.families["MOR"]["summary"]["sensitivity"] == 0.1 + 0.2


def test_report_summary_row_field_names(tmp_path):
    report = _toy_report()
    expected = {"family", "sensitivity", "specificity", "precision", "f1",
                "auroc_median", "auroc_p25", "auroc_p75"}
    assert set(report.summary_rows()[0]) == expected


@pytest.mark.parametrize("key, value", [("fs", True), ("age", True), ("age", False),
                                        ("fs", 10**400), ("age", float("nan"))],
                         ids=["fs-true", "age-true", "age-false", "fs-huge", "age-nan"])
def test_manifest_rejects_a_non_number_before_loading_samples(tmp_path, key, value):
    manifest = write_cohort([_recording("A", n=3), _recording("B", n=3, seed=1)], tmp_path)
    doc = json.loads(manifest.read_text())
    doc["entries"][1][key] = value
    manifest.write_text(json.dumps(doc))
    (tmp_path / "A.txt").unlink()       # fails before any sample file is read
    with pytest.raises(DataError, match=f"manifest entry 1: patient 'B': {key} must be"):
        load_cohort(manifest)


@pytest.mark.parametrize("key, value", [("fs", True), ("age", True), ("fs", 0.0),
                                        ("label", "X"), ("sex", "?")])
def test_recording_validate_applies_the_manifest_rules(key, value):
    recording = _recording("A", n=3)
    setattr(recording, key, value)
    with pytest.raises(DataError, match=f"patient 'A': .*{key}"):
        recording.validate()


@pytest.mark.parametrize("n", [0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1])
def test_streamed_sample_file_equals_the_joined_text(tmp_path, n):
    """Writing in chunks gives the bytes of one join over the whole array."""
    x = np.random.default_rng(n).normal(scale=1e3, size=n)
    path = tmp_path / "s.txt"
    write_samples(path, x)
    assert path.read_bytes() == ("\n".join(map(repr, x.tolist())) + "\n").encode()


def test_sample_write_memory_stays_near_the_array(tmp_path):
    """A 300k-sample recording (2.4 MB of float64, about 6 MB of text) is written
    with a few MB of temporaries, not the tens of MB of a whole-text join."""
    import tracemalloc

    x = np.random.default_rng(3).normal(size=300_000)
    tracemalloc.start()
    try:
        write_samples(tmp_path / "s.txt", x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"config": "\xff"}', b"{not json"])
def test_unreadable_report_is_data_error(tmp_path, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    with pytest.raises(DataError, match=f"report {re.escape(str(path))}"):
        read_report(path)


@pytest.mark.parametrize("doc, key", [
    ({"config": {}}, "class_counts"),
    ({"class_counts": {}, "families": {}}, "config"),
    ({"config": {}, "class_counts": {}}, "families"),
])
def test_report_missing_a_required_key_is_data_error(tmp_path, doc, key):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"report {re.escape(str(path))} lacks the key '{key}'"):
        read_report(path)
