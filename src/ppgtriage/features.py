"""Feature catalog and per-window feature extraction.

Three families:

* MOR: per-beat pulse morphology (landmark timings, widths at fixed fractions
  of the pulse amplitude, amplitude ratios, acceleration-wave ratios, areas),
  averaged over the beats of a window.
* BRV: beat-rate variability statistics over the window's onset-to-onset
  interval series (named PP for peak-to-peak by convention; onsets are used
  because they are more robust to peak-shape change).
* META: patient covariates (age in years; sex encoded male=1, female=0).

Amplitude-based features are ratios relative to the beat onset baseline, so
they are invariant to scaling and offset of the raw signal; timing features
are invariant by construction. Features whose landmarks are absent on a beat
are missing for that beat and a window value is the mean over the beats where
the feature is present (missing for the window only if missing on every beat).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError
from .io import Recording, binarize_label

if TYPE_CHECKING:   # fiducials loads scipy, which reading a matrix does not need
    from .fiducials import FiducialSet

FAMILIES = ("MOR", "BRV", "META")
WIDTH_FRACTIONS = (0.10, 0.25, 0.33, 0.50, 0.66, 0.75)
PP50_THRESHOLD_S = 0.050
PP20_THRESHOLD_S = 0.020
CATALOG_VERSION = "1"


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    family: str
    unit: str
    definition: str


def _build_catalog() -> list[FeatureDescriptor]:
    mor: list[FeatureDescriptor] = []

    def m(name: str, unit: str, definition: str) -> None:
        mor.append(FeatureDescriptor(name, "MOR", unit, definition))

    m("T_a", "s", "time from pulse onset to the a-point (first acceleration maximum)")
    m("T_b", "s", "time from pulse onset to the b-point (acceleration minimum after a)")
    m("T_c", "s", "time from pulse onset to the c-point (acceleration maximum after b)")
    m("T_d", "s", "time from pulse onset to the d-point (acceleration minimum after c)")
    m("T_e", "s", "time from pulse onset to the e-point (acceleration maximum after d)")
    m("T_b-d", "s", "time between the b-point and the d-point")
    m("T_c-e", "s", "time between the c-point and the e-point")
    m("T_sp", "s", "time from pulse onset to the systolic peak")
    m("T_dn", "s", "time from pulse onset to the dicrotic notch")
    m("T_dp", "s", "time from pulse onset to the diastolic peak")
    m("T_pi", "s", "pulse interval: onset to next onset")
    m("T_dia", "s", "diastolic phase duration: dicrotic notch to next onset")
    m("T_u", "s", "time from pulse onset to the maximum slope of the rising edge")
    m("T_v", "s", "time from pulse onset to the steepest fall after the systolic peak")
    m("T_w", "s", "time from pulse onset to the slope maximum following v")
    for frac in WIDTH_FRACTIONS:
        pct = round(frac * 100)
        m(f"T_sw{pct}", "s",
          f"systolic width: rising-edge crossing at {pct}% of pulse amplitude to systolic peak")
    for frac in WIDTH_FRACTIONS:
        pct = round(frac * 100)
        m(f"T_dw{pct}", "s",
          f"diastolic width: systolic peak to falling-edge crossing at {pct}% of pulse amplitude")
    for frac in WIDTH_FRACTIONS:
        pct = round(frac * 100)
        m(f"T_dw{pct}/T_sw{pct}", "ratio",
          f"diastolic over systolic width at {pct}% of pulse amplitude")
    for frac in WIDTH_FRACTIONS:
        pct = round(frac * 100)
        m(f"T_pw{pct}/T_pi", "ratio",
          f"pulse width at {pct}% of the systolic peak amplitude over the pulse interval")
    m("A_p2/A_p1", "ratio",
      "late over early systolic peak amplitude, both relative to the onset baseline")
    m("AI", "ratio",
      "augmentation index: (late minus early systolic peak value) over the pulse amplitude")
    m("A_dn/A_sp", "ratio", "dicrotic notch amplitude over pulse amplitude, onset baseline")
    m("A_dp/A_sp", "ratio", "diastolic peak amplitude over pulse amplitude, onset baseline")
    m("b/a", "ratio", "acceleration b-wave over a-wave value")
    m("c/a", "ratio", "acceleration c-wave over a-wave value")
    m("d/a", "ratio", "acceleration d-wave over a-wave value")
    m("e/a", "ratio", "acceleration e-wave over a-wave value")
    m("AGI", "ratio", "aging index: (b - c - d - e) over a on the acceleration wave")
    m("RS", "a.u./s", "rising slope: pulse amplitude over time to systolic peak")
    m("A_pulse", "a.u.*s", "area under the onset-referenced pulse over the full beat")
    m("A_sys", "a.u.*s", "area under the onset-referenced pulse from onset to dicrotic notch")
    m("A_dia", "a.u.*s", "area under the onset-referenced pulse from dicrotic notch to beat end")
    m("IPA", "ratio", "inflection point area ratio: diastolic over systolic phase area")

    brv_defs = [
        ("meanPP", "s", "mean of the onset-to-onset (PP) interval series"),
        ("medianPP", "s", "median PP interval"),
        ("SDPP", "s", "sample standard deviation of the PP intervals"),
        ("RMSSD", "s", "root mean square of successive PP interval differences"),
        ("pPP50", "fraction", "fraction of successive PP differences exceeding 50 ms"),
        ("pPP20", "fraction", "fraction of successive PP differences exceeding 20 ms"),
        ("CVPP", "ratio", "coefficient of variation: SDPP over meanPP"),
        ("minPP", "s", "minimum PP interval"),
        ("maxPP", "s", "maximum PP interval"),
        ("rangePP", "s", "maximum minus minimum PP interval"),
        ("iqrPP", "s", "interquartile range of the PP intervals"),
        ("meanBR", "bpm", "mean beating rate: 60 over meanPP"),
        ("SDBR", "bpm", "sample standard deviation of the per-interval rate 60/PP"),
        ("SD1", "s", "Poincare short-axis spread: std of (PP[i+1]-PP[i])/sqrt(2)"),
        ("SD2", "s", "Poincare long-axis spread: std of (PP[i+1]+PP[i])/sqrt(2)"),
        ("SD1/SD2", "ratio", "Poincare axis ratio"),
        ("MADPP", "s", "mean absolute successive PP difference"),
    ]
    brv = [FeatureDescriptor(name, "BRV", unit, d) for name, unit, d in brv_defs]

    meta = [
        FeatureDescriptor("Age", "META", "year", "patient age"),
        FeatureDescriptor("Sex", "META", "binary", "patient sex encoded male=1, female=0"),
    ]
    return mor + brv + meta


CATALOG: list[FeatureDescriptor] = _build_catalog()
FEATURE_NAMES: list[str] = [f.name for f in CATALOG]
FEATURE_FAMILIES: list[str] = [f.family for f in CATALOG]
MOR_NAMES = [f.name for f in CATALOG if f.family == "MOR"]
BRV_NAMES = [f.name for f in CATALOG if f.family == "BRV"]
META_NAMES = [f.name for f in CATALOG if f.family == "META"]


def export_catalog(path: Path | str) -> None:
    """Write the feature catalog reference file (name, family, unit, definition)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "family", "unit", "definition"])
        for desc in CATALOG:
            writer.writerow([desc.name, desc.family, desc.unit, desc.definition])


def _cross_before(y: np.ndarray, sp: int, level: float) -> float:
    """Interpolated index of the last upward crossing of `level` before sp."""
    below = np.flatnonzero(y[:sp + 1] <= level)
    if len(below) == 0 or below[-1] >= sp:
        return np.nan
    i = int(below[-1])
    return i + (level - y[i]) / (y[i + 1] - y[i])


def _cross_after(y: np.ndarray, sp: int, level: float) -> float:
    """Interpolated index of the first downward crossing of `level` after sp."""
    below = np.flatnonzero(y[sp:] <= level)
    if len(below) == 0 or below[0] == 0:
        return np.nan
    j = sp + int(below[0])
    return (j - 1) + (level - y[j - 1]) / (y[j] - y[j - 1])


def mor_features_per_beat(beat: np.ndarray, fs: float, fid: FiducialSet,
                          derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                          ) -> dict[str, float]:
    """Morphology features for one beat; NaN where a landmark is absent."""
    y = np.asarray(beat, dtype=np.float64)
    out = {name: np.nan for name in MOR_NAMES}
    n = len(y)
    out["T_pi"] = n / fs
    if fid.sp is None:
        return out
    if derivatives is None:
        from .fiducials import smooth_derivatives

        derivatives = smooth_derivatives(y, fs)
    d2 = derivatives[1]

    def t_of(idx: int | None) -> float:
        return np.nan if idx is None else idx / fs

    out["T_a"] = t_of(fid.a)
    out["T_b"] = t_of(fid.b)
    out["T_c"] = t_of(fid.c)
    out["T_d"] = t_of(fid.d)
    out["T_e"] = t_of(fid.e)
    if fid.b is not None and fid.d is not None:
        out["T_b-d"] = (fid.d - fid.b) / fs
    if fid.c is not None and fid.e is not None:
        out["T_c-e"] = (fid.e - fid.c) / fs
    out["T_sp"] = t_of(fid.sp)
    out["T_dn"] = t_of(fid.dn)
    out["T_dp"] = t_of(fid.dp)
    if fid.dn is not None:
        out["T_dia"] = (n - fid.dn) / fs
    out["T_u"] = t_of(fid.u)
    out["T_v"] = t_of(fid.v)
    out["T_w"] = t_of(fid.w)

    y0 = y[0]
    amp = y[fid.sp] - y0
    if amp > 0:
        for frac in WIDTH_FRACTIONS:
            pct = round(frac * 100)
            level = y0 + frac * amp
            rise = _cross_before(y, fid.sp, level)
            fall = _cross_after(y, fid.sp, level)
            sw = (fid.sp - rise) / fs
            dw = (fall - fid.sp) / fs
            out[f"T_sw{pct}"] = sw
            out[f"T_dw{pct}"] = dw
            if np.isfinite(sw) and np.isfinite(dw) and sw > 0:
                out[f"T_dw{pct}/T_sw{pct}"] = dw / sw
            if np.isfinite(sw) and np.isfinite(dw):
                out[f"T_pw{pct}/T_pi"] = (sw + dw) / out["T_pi"]

        if fid.p1 is not None and fid.p2 is not None:
            a_p1 = y[fid.p1] - y0
            a_p2 = y[fid.p2] - y0
            if a_p1 != 0:
                out["A_p2/A_p1"] = a_p2 / a_p1
            out["AI"] = (y[fid.p2] - y[fid.p1]) / amp
        if fid.dn is not None:
            out["A_dn/A_sp"] = (y[fid.dn] - y0) / amp
        if fid.dp is not None:
            out["A_dp/A_sp"] = (y[fid.dp] - y0) / amp
        if fid.sp > 0:
            out["RS"] = amp / (fid.sp / fs)

    if fid.a is not None and d2[fid.a] != 0:
        val_a = d2[fid.a]
        if fid.b is not None:
            out["b/a"] = d2[fid.b] / val_a
        if fid.c is not None:
            out["c/a"] = d2[fid.c] / val_a
        if fid.d is not None:
            out["d/a"] = d2[fid.d] / val_a
        if fid.e is not None:
            out["e/a"] = d2[fid.e] / val_a
        if all(idx is not None for idx in (fid.b, fid.c, fid.d, fid.e)):
            out["AGI"] = (d2[fid.b] - d2[fid.c] - d2[fid.d] - d2[fid.e]) / val_a

    base = y - y0
    dx = 1.0 / fs
    out["A_pulse"] = float(np.trapezoid(base, dx=dx))
    if fid.dn is not None and 0 < fid.dn < n - 1:
        a_sys = float(np.trapezoid(base[:fid.dn + 1], dx=dx))
        a_dia = float(np.trapezoid(base[fid.dn:], dx=dx))
        out["A_sys"] = a_sys
        out["A_dia"] = a_dia
        if a_sys != 0:
            out["IPA"] = a_dia / a_sys
    return out


def aggregate_window_mor(per_beat: list[dict[str, float]]) -> dict[str, float]:
    """Mean over the beats where each feature is present; NaN if absent on all."""
    out = {}
    for name in MOR_NAMES:
        vals = np.array([row[name] for row in per_beat], dtype=np.float64)
        finite = vals[np.isfinite(vals)]
        out[name] = float(finite.mean()) if len(finite) else np.nan
    return out


def brv_features(intervals_s) -> dict[str, float]:
    """The 17 beat-rate-variability statistics of an interval series (seconds).

    Fewer than 3 intervals leaves every statistic missing. Spread statistics
    use the sample convention (ddof=1).
    """
    x = np.asarray(intervals_s, dtype=np.float64)
    if len(x) < 3:
        return {name: np.nan for name in BRV_NAMES}
    diffs = np.diff(x)
    mean_pp = float(x.mean())
    sd_pp = float(x.std(ddof=1))
    rates = 60.0 / x
    sd1 = float(np.std(diffs / np.sqrt(2.0), ddof=1))
    sd2 = float(np.std((x[1:] + x[:-1]) / np.sqrt(2.0), ddof=1))
    return {
        "meanPP": mean_pp,
        "medianPP": float(np.median(x)),
        "SDPP": sd_pp,
        "RMSSD": float(np.sqrt(np.mean(diffs**2))),
        "pPP50": float(np.mean(np.abs(diffs) > PP50_THRESHOLD_S)),
        "pPP20": float(np.mean(np.abs(diffs) > PP20_THRESHOLD_S)),
        "CVPP": sd_pp / mean_pp if mean_pp > 0 else np.nan,
        "minPP": float(x.min()),
        "maxPP": float(x.max()),
        "rangePP": float(x.max() - x.min()),
        "iqrPP": float(np.percentile(x, 75) - np.percentile(x, 25)),
        "meanBR": 60.0 / mean_pp if mean_pp > 0 else np.nan,
        "SDBR": float(rates.std(ddof=1)),
        "SD1": sd1,
        "SD2": sd2,
        "SD1/SD2": sd1 / sd2 if sd2 > 0 else np.nan,
        "MADPP": float(np.mean(np.abs(diffs))),
    }


def meta_features(recording: Recording) -> dict[str, float]:
    sex = {"male": 1.0, "female": 0.0}.get(recording.sex, np.nan)
    age = np.nan if recording.age is None else float(recording.age)
    return {"Age": age, "Sex": sex}


@dataclass
class FeatureMatrix:
    """Labeled per-window feature table; NaN marks missing values."""

    feature_names: list[str]
    families: list[str]
    patient_ids: list[str]
    window_indices: list[int]
    labels: np.ndarray
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.patient_ids)

    def family_columns(self, family: str) -> np.ndarray:
        if family == "ALL":
            return np.arange(len(self.feature_names))
        if family not in FAMILIES:
            raise ConfigError(f"unknown feature family '{family}'")
        return np.flatnonzero(np.array(self.families) == family)

    def to_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["patient_id", "window_index", "label"] + self.feature_names)
            for i in range(self.n_rows):
                row = [self.patient_ids[i], self.window_indices[i], int(self.labels[i])]
                row += ["" if not np.isfinite(v) else repr(float(v)) for v in self.values[i]]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: Path | str) -> "FeatureMatrix":
        path = Path(path)
        if not path.is_file():
            raise DataError(f"feature matrix not found: {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"feature matrix {path} is empty") from None
            if header[:3] != ["patient_id", "window_index", "label"]:
                raise DataError(f"feature matrix {path}: unexpected header {header[:3]}")
            names = header[3:]
            unknown = [n for n in names if n not in FEATURE_NAMES]
            if unknown:
                raise DataError(f"feature matrix {path}: unknown features {unknown[:5]}")
            by_name = {f.name: f.family for f in CATALOG}
            pids, widxs, labels, rows = [], [], [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(names) + 3:
                    raise DataError(f"feature matrix {path}: row {lineno} has {len(row)} fields")
                try:
                    widx, label = int(row[1]), int(row[2])
                    values = [float(v) if v != "" else np.nan for v in row[3:]]
                except ValueError as exc:
                    raise DataError(f"feature matrix {path}: line {lineno}: {exc}") from None
                pids.append(row[0])
                widxs.append(widx)
                labels.append(label)
                rows.append(values)
        values = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
        return cls(feature_names=names, families=[by_name[n] for n in names],
                   patient_ids=pids, window_indices=widxs,
                   labels=np.array(labels, dtype=np.int64), values=values)


def assemble_matrix(window_rows: list[tuple[str, int, dict[str, float]]],
                    recordings: list[Recording]) -> FeatureMatrix:
    """Assemble the labeled matrix in catalog column order.

    window_rows carry (patient_id, window_index, MOR+BRV values); META values
    and the binary label come from the recording. Rows are sorted by
    (patient_id, window_index) so assembly is deterministic.
    """
    by_pid = {rec.patient_id: rec for rec in recordings}
    ordered = sorted(window_rows, key=lambda r: (r[0], r[1]))
    pids, widxs, labels, rows = [], [], [], []
    for pid, widx, values in ordered:
        rec = by_pid.get(pid)
        if rec is None:
            raise DataError(f"window references unknown patient '{pid}'")
        meta = meta_features(rec)
        full = {**values, **meta}
        pids.append(pid)
        widxs.append(widx)
        labels.append(binarize_label(rec.label))
        rows.append([full.get(name, np.nan) for name in FEATURE_NAMES])
    values_arr = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(FEATURE_NAMES)))
    return FeatureMatrix(feature_names=list(FEATURE_NAMES), families=list(FEATURE_FAMILIES),
                         patient_ids=pids, window_indices=widxs,
                         labels=np.array(labels, dtype=np.int64), values=values_arr)
