"""End-to-end orchestration: filter, window, screen, extract, assemble.

Per-recording work is pure, so cohorts parallelize over recordings with
results identical to sequential execution (workers return small feature rows,
not waveforms; the manifest-based entry point lets each worker load its own
sample file).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import SignalTooShortError
from .features import (FeatureMatrix, aggregate_mor, aggregate_window_mor, assemble_matrix,
                       brv_features, meta_features, mor_features_per_beat, mor_matrix)
from .fiducials import (detect_beats, locate_batch, locate_fiducials, smooth_derivatives,
                        window_beats)
from .io import Recording, load_manifest, load_recording, write_samples
from .preprocess import compute_sqi, design_bandpass, filter_recording, segment_windows
from .synth import synth_recording
from .utils import pmap

# write_samples and synth_recording are re-exported for instrumentation that
# looks them up here, as are the per-beat smooth_derivatives, locate_fiducials,
# mor_features_per_beat and aggregate_window_mor, which extraction no longer
# calls: it runs their window kernels (window_beats, locate_batch, mor_matrix,
# aggregate_mor) instead.

#: screening-entry reason of a recording too short to filter
TOO_SHORT = "too_short"

WindowRow = tuple[str, int, dict]


def process_recording(recording: Recording, config: RunConfig
                      ) -> tuple[list[WindowRow], dict]:
    """Filter one recording, screen its windows, and extract features for the
    kept ones. Returns (feature rows, screening entry); each row carries the
    window's MOR, BRV and META values. A recording too short to filter gives
    no rows and an entry with no windows and "reason": "too_short"."""
    design = design_bandpass(recording.fs, config.band_low_hz, config.band_high_hz,
                             config.filter_order)
    try:
        filtered = filter_recording(recording.samples, design)
    except SignalTooShortError:
        return [], {"patient_id": recording.patient_id, "n_windows": 0, "kept": 0,
                    "windows": [], "reason": TOO_SHORT}
    windows = segment_windows(filtered, recording.fs, config.window_s)
    meta = meta_features(recording)
    rows: list[WindowRow] = []
    screened = []
    for index, samples in enumerate(windows):
        spans = detect_beats(samples, recording.fs)
        sqi = compute_sqi(samples, spans, sqi_threshold=config.sqi_threshold,
                          am_threshold=config.am_threshold, min_beats=config.min_beats)
        screened.append({
            "window_index": index,
            "verdict": sqi.verdict,
            "score": sqi.score,
            "am_ratio": None if sqi.amplitude_modulation_ratio is None
                        or not np.isfinite(sqi.amplitude_modulation_ratio)
                        else sqi.amplitude_modulation_ratio,
            "n_beats": sqi.n_beats,
        })
        if not sqi.kept:
            continue
        # every beat of the window at once; beats below MIN_BEAT_S are left out
        batch = window_beats(samples, spans, recording.fs)
        values = aggregate_mor(mor_matrix(batch.y, batch.lengths, batch.fs,
                                          locate_batch(batch), batch.d2))
        intervals = [span.length / recording.fs for span in spans]
        values.update(brv_features(intervals))
        values.update(meta)
        rows.append((recording.patient_id, index, values))
    screening = {
        "patient_id": recording.patient_id,
        "n_windows": len(windows),
        "kept": len(rows),
        "windows": screened,
    }
    return rows, screening


def _screening_log(entries: list[dict]) -> dict:
    total = sum(e["n_windows"] for e in entries)
    kept = sum(e["kept"] for e in entries)
    by_reason: dict[str, int] = {}
    for entry in entries:
        for w in entry["windows"]:
            if w["verdict"] != "kept":
                by_reason[w["verdict"]] = by_reason.get(w["verdict"], 0) + 1
    return {
        "windows_total": total,
        "kept": kept,
        "excluded": total - kept,
        "excluded_by_reason": dict(sorted(by_reason.items())),
        "recordings": entries,
    }


def _load_and_process(item, load, config: RunConfig):
    return process_recording(load(item), config)


def _extract(items: list, load, labels: dict[str, str], config: RunConfig | None,
             workers: int | None) -> tuple[FeatureMatrix, dict]:
    """Process `load(item)` for every item, then assemble the matrix and the
    screening log; `labels` maps each patient id to its class label."""
    config = config or RunConfig()
    replace(config, workers=workers).validate()
    worker = partial(_load_and_process, load=load, config=config)
    results = pmap(worker, items, workers=workers)
    rows = [row for result in results for row in result[0]]
    screening = _screening_log([result[1] for result in results])
    return assemble_matrix(rows, labels), screening


def _validated(recording: Recording) -> Recording:
    recording.validate()
    return recording


def extract_matrix(recordings: list[Recording], config: RunConfig | None = None,
                   workers: int | None = 1) -> tuple[FeatureMatrix, dict]:
    """Extract the labeled feature matrix from in-memory recordings. A bad
    config or worker count raises ConfigError, and a non-finite sample DataError."""
    labels = {rec.patient_id: rec.label for rec in recordings}
    return _extract(recordings, _validated, labels, config, workers)


def extract_cohort(manifest_path: Path | str, config: RunConfig | None = None,
                   workers: int | None = 1) -> tuple[FeatureMatrix, dict]:
    """Extract features for a cohort on disk; workers load their own
    recordings. A bad config or worker count raises ConfigError."""
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    labels = {entry["patient_id"]: entry["label"] for entry in entries}
    load = partial(load_recording, base_dir=str(manifest_path.parent))
    return _extract(entries, load, labels, config, workers)
