"""On-disk cohort model: recording manifests, sample files, labels, report files.

A cohort lives in a directory as one JSON manifest plus one plain-text sample
file per recording (one decimal amplitude per line; the sampling rate lives in
the manifest, not the sample file). Amplitudes are unit-agnostic: downstream
features are all time-based or amplitude-ratio-based, so absolute units cancel.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

LABELS = ("LVO", "NL", "SM")
SEXES = ("male", "female", "unknown")
#: samples per text chunk that write_samples joins and writes at once
SAMPLE_CHUNK = 1 << 16

#: Binary classes: LVO is the positive class, NL and SM together the negative.
POSITIVE = 1
NEGATIVE = 0


def _positive_number(value) -> bool:
    """A number above zero that a float holds finitely; booleans are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _check_metadata(where: str, fs, label, sex, age) -> None:
    """Raise DataError, prefixed by `where`, for a recording's first bad
    fs, label, sex or age (None is a valid age)."""
    if not _positive_number(fs):
        raise DataError(f"{where}: fs must be a positive number, got {fs!r}")
    if label not in LABELS:
        raise DataError(f"{where}: unknown label {label!r}")
    if sex not in SEXES:
        raise DataError(f"{where}: unknown sex {sex!r}")
    if age is not None and not _positive_number(age):
        raise DataError(f"{where}: age must be a positive number or null, got {age!r}")


@dataclass
class Recording:
    """One patient's PPG trace plus the metadata the pipeline needs.

    samples are float64 and immutable by convention: nothing downstream
    mutates them, so recordings are safe to share across parallel workers.
    """

    patient_id: str
    fs: float
    samples: np.ndarray
    label: str
    age: float | None = None
    sex: str = "unknown"

    def validate(self) -> None:
        if not self.patient_id:
            raise DataError("recording has empty patient_id")
        _check_metadata(f"patient '{self.patient_id}'", self.fs, self.label, self.sex, self.age)
        if len(self.samples) < 1:
            raise DataError(f"patient '{self.patient_id}': empty sample sequence")
        if not np.all(np.isfinite(self.samples)):
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise DataError(f"patient '{self.patient_id}': non-finite sample at index {bad}")


def read_json_object(path: Path | str, what: str, error: type[Exception]) -> dict:
    """Read a UTF-8 JSON file whose top level is an object; a missing file, bad
    bytes, bad JSON or another top level raise `error` naming `what` and the path."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:      # UnicodeDecodeError and JSONDecodeError alike
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must be a JSON object")
    return doc


def require_finite(doc, what: str, error: type[Exception]) -> None:
    """Raise `error` naming `what` and the path of the first NaN or infinite
    number in JSON value `doc` (as `recordings[0].windows[2].sqi`)."""
    stack = [("", doc)]
    while stack:            # depth first, in document order
        key, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{what}: key '{key}' must be a finite number, got {value!r}")
        if isinstance(value, dict):
            children = [(f"{key}.{k}" if key else str(k), v) for k, v in value.items()]
        elif isinstance(value, list):
            children = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(children))


def binarize_label(label: str) -> int:
    """Map a three-way class label onto the binary target (LVO -> 1, NL/SM -> 0)."""
    if label not in LABELS:
        raise DataError(f"unknown label '{label}'")
    return POSITIVE if label == "LVO" else NEGATIVE


def load_samples(path: Path | str) -> np.ndarray:
    """Read a one-amplitude-per-line sample file as float64."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"sample file not found: {path}")
    try:
        samples = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise DataError(f"malformed sample file {path}: {exc}") from exc
    return samples


def write_samples(path: Path | str, samples: np.ndarray) -> None:
    """Write amplitudes one per line, using shortest exact float representation.

    The text is built and written SAMPLE_CHUNK samples at a time, so a long
    recording never holds all of it in memory; no samples write one empty line.
    """
    arr = np.asarray(samples, dtype=np.float64)
    with open(path, "w") as fh:
        for start in range(0, max(len(arr), 1), SAMPLE_CHUNK):
            fh.write("\n".join(map(repr, arr[start:start + SAMPLE_CHUNK].tolist())) + "\n")


def load_manifest(path: Path | str) -> list[dict]:
    """Parse and validate a cohort manifest; malformed entries name their index."""
    entries = read_json_object(path, "manifest", DataError).get("entries")
    if not isinstance(entries, list):
        raise DataError(f"manifest {path} must have an 'entries' list")

    seen: set[str] = set()
    out: list[dict] = []
    for i, entry in enumerate(entries):
        def bad(msg: str) -> DataError:
            return DataError(f"manifest entry {i}: {msg}")

        if not isinstance(entry, dict):
            raise bad("entry is not an object")
        pid = entry.get("patient_id")
        if not isinstance(pid, str) or not pid:
            raise bad("missing or empty patient_id")
        if pid in seen:
            raise bad(f"duplicate patient_id '{pid}'")
        seen.add(pid)
        sample_file = entry.get("sample_file")
        if not isinstance(sample_file, str) or not sample_file:
            raise bad(f"patient '{pid}': missing sample_file")
        fs, label, age = entry.get("fs"), entry.get("label"), entry.get("age")
        sex = entry.get("sex", "unknown")
        _check_metadata(f"manifest entry {i}: patient '{pid}'", fs, label, sex, age)
        out.append({
            "patient_id": pid,
            "sample_file": sample_file,
            "fs": float(fs),
            "label": label,
            "age": None if age is None else float(age),
            "sex": sex,
        })
    return out


def load_recording(entry: dict, base_dir: Path | str) -> Recording:
    """Load one manifest entry into a Recording (sample path relative to base_dir)."""
    sample_path = Path(base_dir) / entry["sample_file"]
    rec = Recording(
        patient_id=entry["patient_id"],
        fs=entry["fs"],
        samples=load_samples(sample_path),
        label=entry["label"],
        age=entry["age"],
        sex=entry["sex"],
    )
    rec.validate()
    return rec


def load_cohort(manifest_path: Path | str) -> list[Recording]:
    """Load every recording named by a manifest, in manifest order."""
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    recordings = []
    for i, entry in enumerate(entries):
        try:
            recordings.append(load_recording(entry, manifest_path.parent))
        except DataError as exc:
            raise DataError(f"manifest entry {i}: {exc}") from exc
    return recordings


def write_recording(recording: Recording, out_dir: Path | str) -> dict:
    """Write a recording's samples to `<patient_id>.txt` in out_dir and return
    its manifest entry."""
    sample_file = f"{recording.patient_id}.txt"
    write_samples(Path(out_dir) / sample_file, recording.samples)
    return {"patient_id": recording.patient_id, "sample_file": sample_file,
            "fs": recording.fs, "label": recording.label, "age": recording.age,
            "sex": recording.sex}


def write_manifest(entries: list[dict], out_dir: Path | str) -> Path:
    """Write `entries` to out_dir/manifest.json; returns its path."""
    manifest_path = Path(out_dir) / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
    return manifest_path


def write_cohort(recordings: list[Recording], out_dir: Path | str) -> Path:
    """Write recordings + manifest into out_dir; returns the manifest path.

    Sample files round-trip exactly: load(write(samples)) == samples bit for bit.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in recordings:
        rec.validate()
    return write_manifest([write_recording(rec, out_dir) for rec in recordings], out_dir)


def write_report(report, path: Path | str) -> None:
    """Serialize an evaluation report to JSON (numbers round-trip exactly)."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_report(path: Path | str):
    """Read a report written by write_report back into an EvalReport."""
    from .evaluate import EvalReport  # deferred: evaluate imports io at module load

    doc = read_json_object(path, "report", DataError)
    try:
        return EvalReport.from_dict(doc)
    except KeyError as exc:
        raise DataError(f"report {path} lacks the key {exc}") from exc
