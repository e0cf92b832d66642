"""Feature catalog and per-window feature extraction.

Three families:

* MOR: per-beat pulse morphology (landmark timings, widths at fixed fractions
  of the pulse amplitude, amplitude ratios, acceleration-wave ratios, areas),
  averaged over the beats of a window. mor_matrix computes every beat of a
  window at once; each beat gets bitwise the values it gets alone
  (mor_features_per_beat is the same kernel on one beat).
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

from .config import VALID_FAMILIES
from .errors import ConfigError, DataError
from .io import Recording, binarize_label

if TYPE_CHECKING:   # fiducials loads scipy, which reading a matrix does not need
    from .fiducials import FiducialSet

WIDTH_FRACTIONS = (0.10, 0.25, 0.33, 0.50, 0.66, 0.75)
PP50_THRESHOLD_S = 0.050
PP20_THRESHOLD_S = 0.020


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    family: str
    unit: str
    definition: str


def _read_catalog() -> list[FeatureDescriptor]:
    """The shipped catalog file (name, family, unit, definition), in file order."""
    with open(Path(__file__).parent / "data" / "feature_catalog.csv", newline="") as fh:
        return [FeatureDescriptor(**row) for row in csv.DictReader(fh)]


CATALOG: list[FeatureDescriptor] = _read_catalog()
FEATURE_NAMES: list[str] = [f.name for f in CATALOG]
FEATURE_FAMILIES: list[str] = [f.family for f in CATALOG]
MOR_NAMES = [f.name for f in CATALOG if f.family == "MOR"]
BRV_NAMES = [f.name for f in CATALOG if f.family == "BRV"]
META_NAMES = [f.name for f in CATALOG if f.family == "META"]


#: column of each MOR feature in a (beats x MOR) value matrix
_MOR_COLUMN = {name: j for j, name in enumerate(MOR_NAMES)}


def mor_matrix(y: np.ndarray, lengths: np.ndarray, fs: float,
               landmarks: dict[str, np.ndarray], d2: np.ndarray) -> np.ndarray:
    """Morphology features of a batch of beats, one row per beat; NaN where a
    landmark is absent.

    y and d2 hold the beats and their second derivatives as rows padded past
    each beat's length (fiducials.BeatBatch); landmarks holds one index array
    per FiducialSet field, negative where absent. Areas sum over each beat's
    own samples in np.trapezoid's order, so each row equals the beat computed
    alone.
    """
    rows, cols = np.arange(len(y)), np.arange(y.shape[1])
    out = np.full((len(y), len(MOR_NAMES)), np.nan)
    lm = landmarks
    at = {name: idx >= 0 for name, idx in lm.items()}
    sp = lm["sp"]
    ok = at["sp"]           # without a systolic peak only T_pi is defined

    def put(name, mask, values):
        out[mask, _MOR_COLUMN[name]] = values[mask]

    def of(m, idx):         # each row's value of m at that row's index
        return m[rows, idx]

    t_pi = lengths / fs
    out[:, _MOR_COLUMN["T_pi"]] = t_pi
    for name in ("a", "b", "c", "d", "e", "sp", "dn", "dp", "u", "v", "w"):
        put(f"T_{name}", ok & at[name], lm[name] / fs)
    put("T_b-d", ok & at["b"] & at["d"], (lm["d"] - lm["b"]) / fs)
    put("T_c-e", ok & at["c"] & at["e"], (lm["e"] - lm["c"]) / fs)
    put("T_dia", ok & at["dn"], (lengths - lm["dn"]) / fs)

    y0 = y[:, 0]
    amp = of(y, sp) - y0
    wide = ok & (amp > 0)
    last = y.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for frac in WIDTH_FRACTIONS:
            pct = round(frac * 100)
            level = y0 + frac * amp
            below = y <= level[:, None]
            # rise: the last sample at or below level up to sp, if before sp
            up = below & (cols <= sp[:, None])
            i = last - up[:, ::-1].argmax(axis=1)
            i1 = np.minimum(i + 1, last)
            rise = np.where(up.any(axis=1) & (i < sp),
                            i + (level - of(y, i)) / (of(y, i1) - of(y, i)), np.nan)
            # fall: the first sample at or below level from sp on, if after sp
            down = below & (cols >= sp[:, None]) & (cols < lengths[:, None])
            j = down.argmax(axis=1)
            j0 = np.maximum(j - 1, 0)
            fall = np.where(down.any(axis=1) & (j != sp),
                            j0 + (level - of(y, j0)) / (of(y, j) - of(y, j0)), np.nan)
            sw = (sp - rise) / fs
            dw = (fall - sp) / fs
            put(f"T_sw{pct}", wide, sw)
            put(f"T_dw{pct}", wide, dw)
            both = wide & np.isfinite(sw) & np.isfinite(dw)
            put(f"T_dw{pct}/T_sw{pct}", both & (sw > 0), dw / sw)
            put(f"T_pw{pct}/T_pi", both, (sw + dw) / t_pi)

        peaks = wide & at["p1"] & at["p2"]
        a_p1 = of(y, lm["p1"]) - y0
        put("A_p2/A_p1", peaks & (a_p1 != 0), (of(y, lm["p2"]) - y0) / a_p1)
        put("AI", peaks, (of(y, lm["p2"]) - of(y, lm["p1"])) / amp)
        put("A_dn/A_sp", wide & at["dn"], (of(y, lm["dn"]) - y0) / amp)
        put("A_dp/A_sp", wide & at["dp"], (of(y, lm["dp"]) - y0) / amp)
        put("RS", wide & (sp > 0), amp / (sp / fs))

        val_a = of(d2, lm["a"])
        ratios = ok & at["a"] & (val_a != 0)
        for name in ("b", "c", "d", "e"):
            put(f"{name}/a", ratios & at[name], of(d2, lm[name]) / val_a)
        put("AGI", ratios & at["b"] & at["c"] & at["d"] & at["e"],
            (of(d2, lm["b"]) - of(d2, lm["c"]) - of(d2, lm["d"]) - of(d2, lm["e"])) / val_a)

    # trapezoid terms as np.trapezoid forms them; each area sums its own slice
    base = y - y0[:, None]
    dx = 1.0 / fs
    terms = dx * (base[:, 1:] + base[:, :-1]) / 2.0
    for r in np.flatnonzero(ok):
        n, dn = lengths[r], lm["dn"][r]
        out[r, _MOR_COLUMN["A_pulse"]] = terms[r, :n - 1].sum()
        if 0 < dn < n - 1:
            a_sys, a_dia = terms[r, :dn].sum(), terms[r, dn:n - 1].sum()
            out[r, _MOR_COLUMN["A_sys"]] = a_sys
            out[r, _MOR_COLUMN["A_dia"]] = a_dia
            if a_sys != 0:
                out[r, _MOR_COLUMN["IPA"]] = a_dia / a_sys
    return out


def mor_features_per_beat(beat: np.ndarray, fs: float, fid: FiducialSet,
                          derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                          ) -> dict[str, float]:
    """Morphology features for one beat; NaN where a landmark is absent."""
    from .fiducials import ABSENT, smooth_derivatives

    y = np.asarray(beat, dtype=np.float64)
    if derivatives is None:
        # only the landmarks of a located beat read the second derivative
        d2 = smooth_derivatives(y, fs)[1] if fid.sp is not None else np.zeros_like(y)
    else:
        d2 = np.asarray(derivatives[1], dtype=np.float64)
    landmarks = {name: np.array([ABSENT if idx is None else idx])
                 for name, idx in fid.as_dict().items()}
    row = mor_matrix(y[None], np.array([len(y)]), fs, landmarks, d2[None])[0]
    return dict(zip(MOR_NAMES, row.tolist()))


def aggregate_mor(values: np.ndarray) -> dict[str, float]:
    """Mean of each column of a (beats x MOR) matrix over its finite values;
    NaN where it has none."""
    out = {}
    for name, column in zip(MOR_NAMES, values.T):
        finite = column[np.isfinite(column)]
        out[name] = float(finite.mean()) if len(finite) else np.nan
    return out


def aggregate_window_mor(per_beat: list[dict[str, float]]) -> dict[str, float]:
    """Mean over the beats where each feature is present; NaN if absent on all."""
    values = np.array([[row[name] for name in MOR_NAMES] for row in per_beat],
                      dtype=np.float64)
    return aggregate_mor(values.reshape(len(per_beat), len(MOR_NAMES)))


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
        if family not in VALID_FAMILIES:
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
                    labels: dict[str, str]) -> FeatureMatrix:
    """Assemble the labeled matrix in catalog column order.

    window_rows carry (patient_id, window_index, feature values); `labels` maps
    each patient id to its class label, which is binarized. Rows are sorted by
    (patient_id, window_index) so assembly is deterministic; a feature absent
    from a row is missing.
    """
    ordered = sorted(window_rows, key=lambda r: (r[0], r[1]))
    pids, widxs, binary, rows = [], [], [], []
    for pid, widx, values in ordered:
        label = labels.get(pid)
        if label is None:
            raise DataError(f"window references unknown patient '{pid}'")
        pids.append(pid)
        widxs.append(widx)
        binary.append(binarize_label(label))
        rows.append([values.get(name, np.nan) for name in FEATURE_NAMES])
    values_arr = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(FEATURE_NAMES)))
    return FeatureMatrix(feature_names=list(FEATURE_NAMES), families=list(FEATURE_FAMILIES),
                         patient_ids=pids, window_indices=widxs,
                         labels=np.array(binary, dtype=np.int64), values=values_arr)
