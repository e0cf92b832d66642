"""Checks of the program's outputs against the inputs and independent computations.

Each check raises CheckFailed with a one-line reason. Nothing here calls the
code under test: the feature catalog comes from the shipped data file and
every statistic is recomputed with numpy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .cohorts import STEP, Sizes

KEPT = "kept"
STEP_VERDICT = "amplitude_modulation"
LEVELS = ("window", "patient")
METRIC_KEYS = ("auroc", "sensitivity", "specificity", "precision", "f1")
HEART_RATE_TOLERANCE = 0.05     # relative distance of per-patient meanBR from the generator


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def catalog(root: Path) -> list[tuple[str, str]]:
    """(name, family) of every catalog feature, from the shipped reference file."""
    with open(root / "src" / "ppgtriage" / "data" / "feature_catalog.csv", newline="") as fh:
        return [(row["name"], row["family"]) for row in csv.DictReader(fh)]


def check_cohort(cohort_dir: Path, sizes: Sizes, expected: list[tuple[str, str]]) -> list[dict]:
    """Manifest ids, labels and rates match the spec; each sample file has
    duration x fs lines. Returns the manifest entries."""
    entries = json.loads((cohort_dir / "manifest.json").read_text())["entries"]
    got = [(e["patient_id"], e["label"]) for e in entries]
    require(got == expected, f"manifest patients/labels {got[:3]}... differ from the spec")
    n_lines = round(sizes.duration_s * sizes.fs)
    for entry in entries:
        require(entry["fs"] == sizes.fs, f"{entry['patient_id']}: fs {entry['fs']}")
        data = (cohort_dir / entry["sample_file"]).read_bytes()
        lines = data.count(b"\n")
        require(lines == n_lines, f"{entry['sample_file']}: {lines} lines, want {n_lines}")
    return entries


def _read_matrix(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def check_extract(features_dir: Path, entries: list[dict], sizes: Sizes,
                  heart_rates: dict[str, float], feature_catalog: list[tuple[str, str]],
                  injected: dict[tuple[str, int], str] | None = None) -> None:
    """Screening counts, one matrix row per kept window, label/META columns,
    per-patient beat rate and, with ``injected``, the artifact verdicts."""
    screening = json.loads((features_dir / "screening.json").read_text())
    n_windows = sizes.windows_per_patient
    require(screening["windows_total"] == len(entries) * n_windows,
            f"windows_total {screening['windows_total']}, want {len(entries)} x {n_windows}")
    verdicts = {}
    for rec in screening["recordings"]:
        require(rec["n_windows"] == n_windows,
                f"{rec['patient_id']}: {rec['n_windows']} windows, want {n_windows}")
        for w in rec["windows"]:
            verdicts[(rec["patient_id"], w["window_index"])] = w["verdict"]
    require(len(verdicts) == screening["windows_total"], "screening log misses windows")
    kept = {key for key, verdict in verdicts.items() if verdict == KEPT}
    require(screening["kept"] == len(kept), "screening kept count disagrees with its windows")

    names = [name for name, _ in feature_catalog]
    header, rows = _read_matrix(features_dir / "features.csv")
    require(header == ["patient_id", "window_index", "label"] + names,
            "features.csv header is not the 72-column catalog")
    keys = [(row[0], int(row[1])) for row in rows]
    require(len(keys) == len(set(keys)), "features.csv repeats a window")
    require(set(keys) == kept, f"features.csv has {len(keys)} rows for {len(kept)} kept windows")

    by_pid = {e["patient_id"]: e for e in entries}
    col = {name: 3 + i for i, name in enumerate(names)}
    sex_code = {"male": "1.0", "female": "0.0", "unknown": ""}
    rates: dict[str, list[float]] = {}
    for row in rows:
        entry = by_pid[row[0]]
        require(int(row[2]) == (1 if entry["label"] == "LVO" else 0), f"{row[0]}: label column")
        age = "" if entry["age"] is None else repr(float(entry["age"]))
        require(row[col["Age"]] == age, f"{row[0]}: Age {row[col['Age']]} != manifest {age}")
        require(row[col["Sex"]] == sex_code[entry["sex"]], f"{row[0]}: Sex column")
        if row[col["meanBR"]]:
            rates.setdefault(row[0], []).append(float(row[col["meanBR"]]))
    for pid, values in rates.items():
        mean_br = float(np.mean(values))
        want = heart_rates[pid]
        require(abs(mean_br - want) <= HEART_RATE_TOLERANCE * want,
                f"{pid}: meanBR {mean_br:.1f} bpm, generator {want:.1f} bpm")

    if injected is not None:
        rejected = {key for key, verdict in verdicts.items() if verdict != KEPT}
        require(rejected == set(injected),
                f"rejected windows {sorted(rejected ^ set(injected))[:4]} differ from injected")
        for key, kind in injected.items():
            if kind == STEP:
                require(verdicts[key] == STEP_VERDICT,
                        f"step window {key} rejected as {verdicts[key]}")


def _percentiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "p25": None, "p75": None}
    p25, median, p75 = np.percentile(values, [25.0, 50.0, 75.0])
    return {"median": float(median), "p25": float(p25), "p75": float(p75)}


def check_report(results_dir: Path, config: dict, feature_catalog: list[tuple[str, str]],
                 auroc_range: tuple[float, float], auroc_open: bool) -> tuple[float, int]:
    """Summary statistics equal a fresh np.percentile over the per-iteration
    values; selection counts sum to rfe_k per non-degenerate iteration; the
    family ALL window AUROC median lies in ``auroc_range``, ends excluded if
    ``auroc_open``.
    Returns (auroc_all, degenerate iteration x family count)."""
    report = json.loads((results_dir / "report.json").read_text())
    for key in ("n_iter", "seed", "rfe_k"):
        require(report["config"][key] == config[key], f"report config {key}")
    family_size = {"ALL": len(feature_catalog)}
    for _, family in feature_catalog:
        family_size[family] = family_size.get(family, 0) + 1
    k = config["rfe_k"]
    degenerate = 0
    for family in report["config"]["families"]:
        block = report["families"][family]
        iterations = block["iterations"]
        require(len(iterations) == config["n_iter"], f"{family}: iteration count")
        usable = [it for it in iterations if it["degenerate"] is None]
        degenerate += len(iterations) - len(usable)
        require(block["degenerate_iterations"] == len(iterations) - len(usable),
                f"{family}: degenerate count")
        for level in LEVELS:
            agg = block.get(level)
            if agg is None:
                continue
            blocks = [it[level] for it in usable if it.get(level) is not None]
            require(agg["n_iterations"] == len(blocks), f"{family}/{level}: n_iterations")
            for key in METRIC_KEYS:
                fresh = _percentiles([b[key] for b in blocks if b[key] is not None])
                require(agg["metrics"][key] == fresh,
                        f"{family}/{level}/{key}: {agg['metrics'][key]} != {fresh}")
        summary = block["summary"]
        window = block["window"]["metrics"]
        require(summary["auroc_median"] == window["auroc"]["median"]
                and summary["auroc_p25"] == window["auroc"]["p25"]
                and summary["auroc_p75"] == window["auroc"]["p75"],
                f"{family}: summary AUROC differs from the window-level quartiles")
        total = sum(block["selection_frequency"].values())
        per_iteration = min(k, family_size[family])
        if family_size[family] > k:
            require(total == k * len(usable),
                    f"{family}: {total} selections for {len(usable)} iterations x rfe_k {k}")
        else:
            require(total <= per_iteration * len(usable), f"{family}: selection counts")
    auroc_all = report["families"]["ALL"]["summary"]["auroc_median"]
    lo, hi = auroc_range
    inside = auroc_all is not None and (lo < auroc_all < hi if auroc_open
                                        else lo <= auroc_all <= hi)
    require(inside, f"ALL AUROC median {auroc_all} outside {lo}-{hi}")
    return float(auroc_all), degenerate
