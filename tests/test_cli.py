import json
import re
import time

import numpy as np
import pytest

from ppgtriage.cli import main
from ppgtriage.features import FeatureMatrix
from ppgtriage.io import write_samples

TINY_SPEC = {
    "n_positive": 2, "n_negative": 3, "duration_s": 65.0, "fs": 500.0,
    "noise_sd": 0.01, "seed": 5,
}

TINY_CONFIG = {"n_iter": 4, "seed": 9, "lambda": 1.0}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    spec = _write(root / "spec.json", TINY_SPEC)
    assert main(["synth", "--spec", spec, "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.fixture(scope="module")
def extracted_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("extracted")
    code = main(["extract", "--manifest", str(cohort_dir / "manifest.json"),
                 "--out", str(out), "--workers", "2"])
    assert code == 0
    return out


def test_synth_writes_cohort_and_prints_counts(cohort_dir, capsys):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 5
    labels = [e["label"] for e in manifest["entries"]]
    assert labels.count("LVO") == 2
    for entry in manifest["entries"]:
        assert (cohort_dir / entry["sample_file"]).is_file()


def test_synth_accepts_zero_positive_cohort(tmp_path):
    doc = dict(TINY_SPEC, n_positive=0, n_negative=2)
    spec = _write(tmp_path / "spec.json", doc)
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert all(e["label"] != "LVO" for e in manifest["entries"])


def test_synth_requires_seed(tmp_path, capsys):
    doc = dict(TINY_SPEC)
    del doc["seed"]
    spec = _write(tmp_path / "spec.json", doc)
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")


def test_synth_byte_reproducible(tmp_path):
    spec = _write(tmp_path / "spec.json", TINY_SPEC)
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "b"),
                 "--workers", "2"]) == 0
    for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_extract_outputs(extracted_dir, capsys):
    matrix = FeatureMatrix.from_csv(extracted_dir / "features.csv")
    assert matrix.n_rows == 10          # 5 recordings x 2 windows
    screening = json.loads((extracted_dir / "screening.json").read_text())
    assert screening["windows_total"] == 10
    assert screening["kept"] == matrix.n_rows + screening["excluded"] - screening["excluded"]


def test_extract_missing_manifest_is_data_error(tmp_path, capsys):
    code = main(["extract", "--manifest", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error[data]:")


def test_evaluate_outputs_and_summary(extracted_dir, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", TINY_CONFIG)
    out = tmp_path / "eval"
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--config", cfg, "--out", str(out),
                 "--screening", str(extracted_dir / "screening.json")])
    assert code == 0
    printed = capsys.readouterr().out
    assert re.search(r"ALL\s+.*\d\.\d\d \(\d\.\d\d-\d\.\d\d\)", printed)
    report = json.loads((out / "report.json").read_text())
    assert set(report["families"]) == {"MOR", "BRV", "META", "ALL"}
    assert report["screening"]["windows_total"] == 10
    for family in ("MOR", "BRV", "META", "ALL"):
        assert (out / f"roc_{family}.csv").is_file()
    assert (out / "selection_frequencies.csv").is_file()
    assert (out / "distributions.json").is_file()


def test_evaluate_requires_seed(extracted_dir, tmp_path, capsys):
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_evaluate_rejects_unknown_config_key(extracted_dir, tmp_path):
    cfg = _write(tmp_path / "bad.json", {"seed": 1, "bogus": 2})
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2


def test_evaluate_rejects_bad_family_flag(extracted_dir, tmp_path):
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--seed", "1", "--families", "MOR,NOPE",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_evaluate_single_class_matrix_exits_degenerate(extracted_dir, tmp_path, capsys):
    matrix = FeatureMatrix.from_csv(extracted_dir / "features.csv")
    keep = matrix.labels == 0
    single = FeatureMatrix(feature_names=matrix.feature_names, families=matrix.families,
                           patient_ids=[p for p, k in zip(matrix.patient_ids, keep) if k],
                           window_indices=[w for w, k in zip(matrix.window_indices, keep) if k],
                           labels=matrix.labels[keep], values=matrix.values[keep])
    path = tmp_path / "single.csv"
    single.to_csv(path)
    code = main(["evaluate", "--matrix", str(path), "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error[evaluation]:")


def test_evaluate_metric_level_flag(extracted_dir, tmp_path):
    out = tmp_path / "window_only"
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--seed", "2", "--families", "BRV", "--metric-level", "window",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "patient" not in report["families"]["BRV"]
    assert not (out / "roc_BRV_patient.csv").exists()


def test_evaluate_byte_reproducible(extracted_dir, tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_CONFIG)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                     "--config", cfg, "--out", str(out), "--workers",
                     "1" if name == "r1" else "2"])
        assert code == 0
        outs.append(out)
    for fname in ("report.json", "roc_ALL.csv", "selection_frequencies.csv",
                  "distributions.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.mark.parametrize("column, bad", [("window_index", "1.5"), ("label", "yes"),
                                         ("T_pi", "abc")])
def test_evaluate_malformed_matrix_cell_is_data_error(extracted_dir, tmp_path, capsys,
                                                      column, bad):
    lines = (extracted_dir / "features.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    cells[header.index(column)] = bad
    lines[2] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--matrix", str(path), "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]:") and str(path) in err and "line 3" in err
    assert len(err.strip().splitlines()) == 1


def test_evaluate_rejects_a_patient_labelled_neither_0_nor_1(extracted_dir, tmp_path, capsys):
    # every window of the first patient labelled 2: such a patient would belong
    # to neither class and drop out of every split
    lines = (extracted_dir / "features.csv").read_text().splitlines()
    first = lines[1].split(",")[0]
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == first:
            cells[2] = "2"
            lines[i] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--matrix", str(path), "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]:") and "line 2" in err and "0 or 1, got 2" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def _lines_with(lines: list[bytes], line: int) -> tuple[bytes, int]:
    return b"\n".join(lines) + b"\n", line


def _repeated_row(data: bytes) -> tuple[bytes, int]:
    lines = data.splitlines()
    return _lines_with(lines + [lines[1]], len(lines) + 1)


def _blank_patient_id(data: bytes) -> tuple[bytes, int]:
    lines = data.splitlines()
    pid = lines[1].split(b",")[0]
    return _lines_with([line.removeprefix(pid) if line.startswith(pid + b",") else line
                        for line in lines], 2)


def _ff_byte_in_patient_id(data: bytes) -> tuple[bytes, int]:
    lines = data.splitlines()
    lines[2] = b"\xff" + lines[2]
    return _lines_with(lines, 3)


def _infinite_value(data: bytes) -> tuple[bytes, int]:
    lines = data.splitlines()
    cells = lines[1].split(b",")
    cells[3] = b"inf"
    lines[1] = b",".join(cells)
    return _lines_with(lines, 2)


@pytest.mark.parametrize("corrupt, message", [
    (_repeated_row, "appears twice"), (_blank_patient_id, "empty patient_id"),
    (_ff_byte_in_patient_id, "is not UTF-8"),
    (lambda data: (b"\xff\xfe" + data, 1), "is not UTF-8"),
    (_infinite_value, "infinite feature value"),
], ids=["repeated-row", "blank-patient-id", "ff-byte-in-patient-id", "utf16-bom", "infinity"])
def test_evaluate_matrix_extract_never_writes_is_data_error(extracted_dir, tmp_path, capsys,
                                                            corrupt, message):
    data, line = corrupt((extracted_dir / "features.csv").read_bytes())
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code = main(["evaluate", "--matrix", str(path), "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: feature matrix {path}: line {line}") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_synth_prints_the_count_of_each_label(tmp_path, capsys):
    spec = _write(tmp_path / "spec.json", dict(TINY_SPEC, n_negative=5, duration_s=2.0))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 0
    assert "recordings (2 LVO, 3 NL, 2 SM) to" in capsys.readouterr().out


@pytest.mark.parametrize("content", ["{not json", "[1, 2]", "\udcff"])
def test_evaluate_malformed_screening_is_data_error(extracted_dir, tmp_path, capsys, content):
    screening = tmp_path / "screening.json"
    screening.write_bytes(content.encode("utf-8", "surrogateescape"))
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"), "--seed", "1",
                 "--screening", str(screening), "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]:") and str(screening) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", "\udcff"])
def test_synth_unreadable_spec_is_config_error(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_bytes(content.encode("utf-8", "surrogateescape"))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and str(spec) in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("change", [
    {"n_positive": "abc"}, {"n_positive": 2.7}, {"n_negative": True}, {"seed": 5.5},
    {"seed": False}, {"fs": "fast"}, {"duration_s": None}, {"noise_sd": True},
    {"positive": {"hr_ar": "x"}}, {"negative": {"beat": {"diastolic_amp": True}}},
    {"positive": {"age_range": [50, "old"]}}, {"positive": {"age_range": 60}},
    {"negative": 3}, {"positive": {"beat": [1.0]}}, {"seed": -1}, {"duration_s": 1e400},
    {"fs": float("nan")}, {"noise_sd": 1e400}, {"positive": {"hr_sd_bpm": float("nan")}},
    {"fs": 10**400},
])
def test_synth_malformed_spec_number_is_config_error(tmp_path, capsys, change):
    spec = _write(tmp_path / "spec.json", dict(TINY_SPEC, **change))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and err.count("\n") == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("change, word", [
    ({"n_positive": 1e12}, "recordings"), ({"n_negative": 99_999}, "recordings"),
    ({"duration_s": 1e9}, "samples per recording"),
    ({"duration_s": 50_001.0, "fs": 1000.0}, "samples per recording"),
])
def test_synth_oversized_cohort_is_config_error(tmp_path, capsys, change, word):
    spec = _write(tmp_path / "spec.json", dict(TINY_SPEC, **change))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and err.count("\n") == 1 and word in err
    assert not (tmp_path / "d").exists()


def test_synth_accepts_integral_float_counts(tmp_path):
    spec = _write(tmp_path / "spec.json", dict(TINY_SPEC, n_positive=1.0, n_negative=1))
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d")]) == 0
    assert len(json.loads((tmp_path / "d" / "manifest.json").read_text())["entries"]) == 2


def test_extract_zero_length_window_is_config_error(cohort_dir, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"window_s": 0.0001})
    code = main(["extract", "--manifest", str(cohort_dir / "manifest.json"),
                 "--config", cfg, "--out", str(tmp_path / "x"), "--workers", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and "window_s" in err


@pytest.mark.parametrize("doc", [{"seed": 1, "n_iter": 2.7}, {"seed": True}, "\udcff",
                                 {"seed": -1}])
def test_evaluate_malformed_config_is_config_error(extracted_dir, tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    if isinstance(doc, str):
        cfg.write_bytes(doc.encode("utf-8", "surrogateescape"))
    else:
        _write(cfg, doc)
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[config]:")


def test_evaluate_config_with_string_numbers_is_config_error(extracted_dir, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"n_iter": "3", "seed": "11", "lambda": "1", "rfe_k": 10})
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and "expected a number" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_extract_short_recording_gets_a_verdict_and_the_cohort_goes_on(cohort_dir, tmp_path):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    entries = manifest["entries"][:3]
    short = entries[2]
    samples = (cohort_dir / short["sample_file"]).read_text().splitlines()[:1000]
    (tmp_path / short["sample_file"]).write_text("\n".join(samples) + "\n")
    for entry in entries[:2]:
        (tmp_path / entry["sample_file"]).write_bytes(
            (cohort_dir / entry["sample_file"]).read_bytes())
    _write(tmp_path / "manifest.json", {"entries": entries})
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
                 "--workers", "1"]) == 0
    matrix = FeatureMatrix.from_csv(out / "features.csv")
    assert set(matrix.patient_ids) == {e["patient_id"] for e in entries[:2]}
    screening = json.loads((out / "screening.json").read_text())
    verdicts = {r["patient_id"]: r.get("reason") for r in screening["recordings"]}
    assert verdicts == {entries[0]["patient_id"]: None, entries[1]["patient_id"]: None,
                        short["patient_id"]: "too_short"}


def test_extract_beatless_window_with_min_beats_zero_is_too_few_beats(tmp_path):
    fs = 250.0
    samples = np.sin(2 * np.pi * 0.05 * np.arange(int(65 * fs)) / fs)
    write_samples(tmp_path / "P0.txt", samples)
    manifest = _write(tmp_path / "manifest.json", {"entries": [
        {"patient_id": "P0", "sample_file": "P0.txt", "fs": fs, "label": "LVO"}]})
    cfg = _write(tmp_path / "cfg.json", {"min_beats": 0})
    out = tmp_path / "out"
    assert main(["extract", "--manifest", manifest, "--config", cfg, "--out", str(out),
                 "--workers", "1"]) == 0
    windows = json.loads((out / "screening.json").read_text())["recordings"][0]["windows"]
    assert {"verdict": "too_few_beats", "n_beats": 0} in [
        {"verdict": w["verdict"], "n_beats": w["n_beats"]} for w in windows]


def test_evaluate_negative_seed_flag_is_config_error(extracted_dir, tmp_path, capsys):
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"),
                 "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and "seed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, doc", [
    ("extract", {"window_s": float("nan")}), ("extract", {"window_s": float("inf")}),
    ("extract", {"am_threshold": float("nan")}),
    ("evaluate", {"lambda": float("nan"), "seed": 1, "n_iter": 3}),
    ("evaluate", {"window_s": float("inf"), "seed": 1, "n_iter": 3}),
], ids=["extract-window_s-NaN", "extract-window_s-Infinity", "extract-am_threshold-NaN",
        "evaluate-lambda-NaN", "evaluate-window_s-Infinity"])
def test_non_finite_config_number_is_config_error(cohort_dir, extracted_dir, tmp_path, capsys,
                                                  command, doc):
    cfg = _write(tmp_path / "cfg.json", doc)      # json writes NaN and Infinity as such
    source = (["--manifest", str(cohort_dir / "manifest.json")] if command == "extract"
              else ["--matrix", str(extracted_dir / "features.csv")])
    start = time.perf_counter()
    code = main([command, *source, "--config", cfg, "--out", str(tmp_path / "x"),
                 "--workers", "1"])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {next(iter(doc))} must be a finite number")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_extract_manifest_that_is_not_utf8_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"entries": [{"patient_id": "\xe9"}]}')
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]:") and str(manifest) in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("workers", ["100000", "257", "0", "-1"])
@pytest.mark.parametrize("command", ["synth", "extract", "evaluate"])
def test_workers_out_of_range_is_config_error(pool_requests, cohort_dir, extracted_dir,
                                              tmp_path, capsys, command, workers):
    """Every command holds --workers to the config rule, 1 to MAX_WORKERS, and
    stops before any pool is asked for."""
    source = {"synth": ["--spec", _write(tmp_path / "spec.json", TINY_SPEC)],
              "extract": ["--manifest", str(cohort_dir / "manifest.json")],
              "evaluate": ["--matrix", str(extracted_dir / "features.csv"), "--seed", "1"]}
    capsys.readouterr()
    code = main([command, *source[command], "--out", str(tmp_path / "x"),
                 "--workers", workers])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: workers must be in [1, 256]") and workers in err
    assert err.count("\n") == 1
    assert pool_requests == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content, key", [
    ('{"windows_total": NaN}', "windows_total"),
    ('{"kept": 1e400}', "kept"),
    ('{"recordings": [{"windows": [{"sqi": 0.9}, {"sqi": -Infinity}]}]}',
     "recordings[0].windows[1].sqi"),
])
def test_evaluate_non_finite_screening_log_is_data_error(extracted_dir, tmp_path, capsys,
                                                         monkeypatch, content, key):
    """The report embeds the screening log and holds finite numbers only, so a
    non-finite log is refused when it is read, before any fit."""
    def no_fit(*args, **kwargs):
        raise AssertionError("evaluation ran")

    monkeypatch.setattr("ppgtriage.cli.run_experiment", no_fit)
    screening = tmp_path / "screening.json"
    screening.write_text(content)
    code = main(["evaluate", "--matrix", str(extracted_dir / "features.csv"), "--seed", "1",
                 "--screening", str(screening), "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: screening log {screening}: key '{key}'")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()
