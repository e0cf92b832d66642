"""Spans and counts recorded around the program's public functions.

The tracer replaces module attributes with timing wrappers for the duration of
a ``with tracer.installed():`` block, so the program runs unmodified and is
restored afterwards. Spans are kept in memory and written out when the run
ends. A layer's self time is its span duration minus the time its child spans
cover; calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _count_sqi(counts: Counter, result) -> None:
    counts["preprocess.windows"] += 1
    counts["preprocess.windows_kept"] += int(result.kept)


def _count_fiducials(counts: Counter, result) -> None:
    counts["fiducials.beats"] += 1
    counts["fiducials.beats_located"] += int(result.sp is not None)


def _count_missing(counts: Counter, result) -> None:
    counts["features.missing_cells"] += int(np.isnan(result.values).sum())


def _count_fit(counts: Counter, result) -> None:
    counts["model.fit_calls"] += 1
    counts["model.newton_steps"] += int(result[2]["iterations"])


#: (owner, attribute, span name, count hook). A function imported by name into
#: another module is wrapped where the caller looks it up.
TARGETS = [
    ("ppgtriage.cli", "cmd_synth", "cli.synth", None),
    ("ppgtriage.cli", "cmd_extract", "cli.extract", None),
    ("ppgtriage.cli", "cmd_evaluate", "cli.evaluate", None),
    ("ppgtriage.cli", "synth_cohort_to_dir", "pipeline.synth_cohort", None),
    ("ppgtriage.cli", "extract_cohort", "pipeline.extract_cohort", None),
    ("ppgtriage.cli", "run_experiment", "evaluate.run_experiment", None),
    ("ppgtriage.cli", "write_report", "evaluate.write", None),
    ("ppgtriage.synth", "synth_recording", "synth.recording", None),
    ("ppgtriage.pipeline", "synth_recording", "synth.recording", None),
    ("ppgtriage.io", "write_samples", "io.write_samples", None),
    ("ppgtriage.pipeline", "write_samples", "io.write_samples", None),
    ("ppgtriage.io", "load_samples", "io.load_samples", None),
    ("ppgtriage.pipeline", "load_manifest", "io.load_manifest", None),
    ("ppgtriage.pipeline", "process_recording", "pipeline.recording", None),
    ("ppgtriage.pipeline", "design_bandpass", "preprocess.filter", None),
    ("ppgtriage.pipeline", "filter_recording", "preprocess.filter", None),
    ("ppgtriage.pipeline", "segment_windows", "preprocess.segment", None),
    ("ppgtriage.pipeline", "compute_sqi", "preprocess.sqi", _count_sqi),
    ("ppgtriage.pipeline", "detect_beats", "fiducials.detect_beats", None),
    ("ppgtriage.pipeline", "smooth_derivatives", "fiducials.derivatives", None),
    ("ppgtriage.pipeline", "locate_fiducials", "fiducials.locate", _count_fiducials),
    ("ppgtriage.pipeline", "mor_features_per_beat", "features.mor", None),
    ("ppgtriage.pipeline", "aggregate_window_mor", "features.window", None),
    ("ppgtriage.pipeline", "brv_features", "features.window", None),
    ("ppgtriage.pipeline", "assemble_matrix", "features.assemble", _count_missing),
    ("ppgtriage.features:FeatureMatrix", "to_csv", "features.csv_write", None),
    ("ppgtriage.features:FeatureMatrix", "from_csv", "features.csv_read", None),
    ("ppgtriage.evaluate", "train_model", "model.train", None),
    ("ppgtriage.model", "rfe", "model.rfe", None),
    ("ppgtriage.model", "fit_logistic", "model.fit", _count_fit),
    ("ppgtriage.evaluate", "predict_proba", "model.predict", None),
    ("ppgtriage.evaluate", "auroc", "evaluate.metrics", None),
    ("ppgtriage.evaluate", "roc_on_grid", "evaluate.metrics", None),
    ("ppgtriage.evaluate", "choose_threshold", "evaluate.metrics", None),
    ("ppgtriage.evaluate", "confusion_metrics", "evaluate.metrics", None),
]

#: per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "synth.recording_s": ("synth.recording",),
    "io.write_samples_s": ("io.write_samples",),
    "io.load_samples_s": ("io.load_samples",),
    "preprocess.filter_s": ("preprocess.filter",),
    "preprocess.sqi_s": ("preprocess.sqi",),
    "fiducials.detect_beats_s": ("fiducials.detect_beats",),
    "fiducials.derivatives_s": ("fiducials.derivatives",),
    "fiducials.locate_s": ("fiducials.locate",),
    "features.mor_s": ("features.mor",),
    "features.window_s": ("features.window",),
    "features.assemble_s": ("features.assemble",),
    "features.csv_write_s": ("features.csv_write",),
    "features.csv_read_s": ("features.csv_read",),
    "model.fit_s": ("model.fit",),
    "model.rfe_s": ("model.rfe",),
    "model.predict_s": ("model.predict",),
    "evaluate.metrics_s": ("evaluate.metrics",),
    "evaluate.write_s": ("evaluate.write",),
}

COUNT_METRICS = ("preprocess.windows", "preprocess.windows_kept", "fiducials.beats",
                 "fiducials.beats_located", "features.missing_cells", "model.fit_calls",
                 "model.newton_steps")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span
    stage: str              # spans of one stage share it


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.stage = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.stage)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self, stage: str, targets=TARGETS):
        """Wrap the targets while the block runs; restore the originals after."""
        self.stage = stage
        saved = []
        try:
            for owner, attr, name, hook in targets:
                obj = _resolve(owner)
                original = vars(obj)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    wrapped = self.wrap(name, original, hook)
                saved.append((obj, attr, original))
                setattr(obj, attr, wrapped)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time over all its spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child):
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - covered)
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self-time, per-recording and count metrics as name -> (value, unit)."""
        own = self.self_times()
        out = {metric: (sum(own.get(n, 0.0) for n in names), "s")
               for metric, names in SELF_TIME_METRICS.items()}
        per_recording = self.durations("pipeline.recording")
        p50, p90 = np.percentile(per_recording, [50.0, 90.0])
        out["pipeline.recording_s.p50"] = (float(p50), "s")
        out["pipeline.recording_s.p90"] = (float(p90), "s")
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")
        return out

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        doc = [{"id": i, "name": s.name, "stage": s.stage, "parent": s.parent,
                "start_s": s.start - origin, "end_s": s.end - origin}
               for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": doc}) + "\n")
