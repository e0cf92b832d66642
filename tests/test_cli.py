import json
import re

import pytest

from ppgtriage.cli import main
from ppgtriage.features import FeatureMatrix

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
