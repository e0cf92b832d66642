import numpy as np
import pytest

from ppgtriage.config import RunConfig
from ppgtriage.features import FEATURE_FAMILIES, FEATURE_NAMES, FeatureMatrix
from ppgtriage.fiducials import MIN_BEAT_S, BeatSpan
from ppgtriage.pipeline import extract_matrix
from ppgtriage.synth import BeatModel, separated_cohort_spec, synth_beat, synth_cohort


@pytest.fixture(scope="session")
def small_cohort():
    spec = separated_cohort_spec(n_positive=6, n_negative=8, duration_s=95.0, seed=42)
    return synth_cohort(spec)


@pytest.fixture(scope="session")
def small_matrix(small_cohort):
    matrix, screening = extract_matrix(small_cohort, RunConfig(), workers=2)
    return matrix, screening


def make_beat(model: BeatModel, period_s: float = 0.85, fs: float = 1000.0) -> np.ndarray:
    t = np.arange(0.0, period_s, 1.0 / fs)
    return synth_beat(model, t)


def random_beat_model(rng) -> BeatModel:
    """Beat parameters in the calibrated range where every landmark exists."""
    sc = rng.uniform(0.26, 0.31)
    return BeatModel(
        systolic_amp=1.0,
        systolic_center=sc,
        systolic_width=rng.uniform(0.085, 0.105),
        diastolic_amp=rng.uniform(0.28, 0.46),
        diastolic_center=sc + rng.uniform(0.20, 0.27),
        diastolic_width=rng.uniform(0.050, 0.065),
    )


#: beat kinds of beat_train
BEAT_KINDS = ("pulse", "flat", "noise", "short")


def beat_train(fs: float, kinds, seed: int) -> tuple[np.ndarray, list[BeatSpan]]:
    """A window made of consecutive beats of the given kinds, with their spans.

    "pulse" is a two-Gaussian beat, "flat" a constant, "noise" white noise (at
    250 Hz and up, more second-derivative extrema than MAX_D2_EXTREMA allows)
    and "short" a pulse below MIN_BEAT_S. Lengths are drawn from `seed`; at
    20 Hz some beats are too short for the edge-guard zone.
    """
    rng = np.random.default_rng(seed)
    min_len = round(MIN_BEAT_S * fs)
    beats = []
    for kind in kinds:
        if kind == "short":
            n = int(rng.integers(2, max(3, min_len)))
        else:
            n = int(rng.integers(min_len, round(1.3 * fs) + 1))
        if kind == "flat":
            beats.append(np.full(n, rng.normal()))
        elif kind == "noise":
            beats.append(rng.normal(size=n))
        else:
            t = np.arange(n) / fs
            beats.append(synth_beat(random_beat_model(rng), t * (0.85 / (n / fs))))
    spans, onset = [], 0
    for beat in beats:
        spans.append(BeatSpan(onset=onset, next_onset=onset + len(beat),
                              systolic_peak=onset + int(np.argmax(beat[:-1]))))
        onset += len(beat)
    return np.concatenate(beats), spans


def synthetic_feature_matrix(n_pos=12, n_neg=18, windows=4, seed=0, shift=1.5,
                             informative=6):
    """A feature matrix straight from random numbers (no signal pipeline):
    the first `informative` MOR columns separate the classes by `shift`."""
    rng = np.random.default_rng(seed)
    pids, widx, labels, rows = [], [], [], []
    d = len(FEATURE_NAMES)
    mor_cols = [i for i, fam in enumerate(FEATURE_FAMILIES) if fam == "MOR"]
    for p in range(n_pos + n_neg):
        label = 1 if p < n_pos else 0
        pid = f"P{p:03d}"
        base = rng.normal(size=d)
        for w in range(windows):
            row = base + 0.3 * rng.normal(size=d)
            for j in mor_cols[:informative]:
                row[j] += shift * label
            pids.append(pid)
            widx.append(w)
            labels.append(label)
            rows.append(row)
    return FeatureMatrix(feature_names=list(FEATURE_NAMES), families=list(FEATURE_FAMILIES),
                         patient_ids=pids, window_indices=widx,
                         labels=np.array(labels, dtype=np.int64),
                         values=np.array(rows, dtype=np.float64))
