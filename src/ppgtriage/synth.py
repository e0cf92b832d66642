"""Synthetic PPG cohort generator.

Each beat is a sum of two Gaussian waves (systolic + diastolic); every pulse
landmark the feature catalog needs is well defined and numerically computable
on that shape. Beat-to-beat periods come from a per-recording seeded normal
draw (optionally AR(1)-correlated so short-term variability is controllable),
and recordings add white noise plus sinusoidal baseline wander.

Generation is a pure function of the cohort description including the seed:
each recording uses an independent substream keyed by (seed, patient index),
so parallel generation is deterministic regardless of schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import io
from .config import check_finite, from_document
from .errors import ConfigError
from .io import Recording
from .utils import pmap

MIN_PERIOD_S = 0.3
MAX_PERIOD_S = 2.0
# Upper bounds on a cohort spec, so an oversized spec is a configuration error
# rather than an allocation failure: 10^5 recordings, and 5*10^7 samples per
# recording (about 14 h at 1 kHz, 400 MB as float64).
MAX_RECORDINGS = 100_000
MAX_SAMPLES_PER_RECORDING = 50_000_000


@dataclass
class BeatModel:
    """Two-Gaussian pulse template, times in seconds from beat onset."""

    systolic_amp: float = 1.0
    systolic_center: float = 0.30
    systolic_width: float = 0.10
    diastolic_amp: float = 0.30
    diastolic_center: float = 0.56
    diastolic_width: float = 0.06

    def validate(self) -> None:
        check_finite(self)
        if self.systolic_width <= 0 or self.diastolic_width <= 0:
            raise ConfigError("beat widths must be positive")
        if self.systolic_amp <= 0:
            raise ConfigError("systolic amplitude must be positive")
        # a zero diastolic amplitude is allowed: it degenerates to a single wave
        if self.diastolic_amp < 0 or self.diastolic_amp >= self.systolic_amp:
            raise ConfigError("diastolic amplitude must be in [0, systolic_amp)")
        if not (0 < self.systolic_center < self.diastolic_center):
            raise ConfigError("need 0 < systolic_center < diastolic_center")


@dataclass
class ClassParams:
    """Per-class generation parameters: morphology, rate statistics, ages."""

    beat: BeatModel = field(default_factory=BeatModel)
    mean_hr_bpm: float = 70.0
    hr_sd_bpm: float = 2.0
    hr_ar: float = 0.0          # AR(1) coefficient on beat-period deviations
    age_range: tuple[float, float] = (60.0, 80.0)

    def validate(self) -> None:
        check_finite(self)
        self.beat.validate()
        if not (20.0 < self.mean_hr_bpm < 250.0):
            raise ConfigError(f"mean_hr_bpm must be in (20, 250), got {self.mean_hr_bpm}")
        if self.hr_sd_bpm < 0:
            raise ConfigError("hr_sd_bpm must be >= 0")
        if not (-1.0 < self.hr_ar < 1.0):
            raise ConfigError("hr_ar must be in (-1, 1)")
        if self.beat.diastolic_center >= 60.0 / self.mean_hr_bpm:
            raise ConfigError("diastolic_center must fall inside the nominal beat period")
        lo, hi = self.age_range
        if not (0 < lo <= hi):
            raise ConfigError(f"age_range must satisfy 0 < lo <= hi, got {self.age_range}")


@dataclass
class CohortSpec:
    """Complete description of a synthetic cohort, including the master seed."""

    n_positive: int = 25
    n_negative: int = 61
    duration_s: float = 600.0
    fs: float = 1000.0
    positive: ClassParams = field(default_factory=ClassParams)
    negative: ClassParams = field(default_factory=ClassParams)
    noise_sd: float = 0.01          # relative to the class systolic amplitude
    wander_amp: float = 0.1         # relative to the class systolic amplitude
    wander_freq_hz: float = 0.25
    male_fraction: float = 0.65
    seed: int = 0

    def validate(self) -> None:
        check_finite(self)
        if self.n_positive < 0 or self.n_negative < 0:
            raise ConfigError("cohort counts must be >= 0")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.fs <= 0:
            raise ConfigError("fs must be positive")
        if self.n_positive + self.n_negative > MAX_RECORDINGS:
            raise ConfigError(f"a cohort holds at most {MAX_RECORDINGS} recordings, "
                              f"got {self.n_positive + self.n_negative}")
        if self.duration_s * self.fs > MAX_SAMPLES_PER_RECORDING:
            raise ConfigError(f"duration_s * fs must be at most {MAX_SAMPLES_PER_RECORDING} "
                              f"samples per recording, got {self.duration_s * self.fs:g}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.noise_sd < 0 or self.wander_amp < 0 or self.wander_freq_hz < 0:
            raise ConfigError("noise_sd, wander_amp, wander_freq_hz must be >= 0")
        if not (0.0 <= self.male_fraction <= 1.0):
            raise ConfigError("male_fraction must be in [0, 1]")
        self.positive.validate()
        self.negative.validate()


def synth_beat(model: BeatModel, t) -> np.ndarray:
    """Evaluate the two-Gaussian pulse template at time(s) t seconds from onset."""
    t = np.asarray(t, dtype=np.float64)
    sys_wave = model.systolic_amp * np.exp(
        -((t - model.systolic_center) ** 2) / (2.0 * model.systolic_width**2))
    dia_wave = model.diastolic_amp * np.exp(
        -((t - model.diastolic_center) ** 2) / (2.0 * model.diastolic_width**2))
    return sys_wave + dia_wave


def _ar1(eps: np.ndarray, coef: float) -> np.ndarray:
    """AR(1) filter dev[i] = eps[i] + coef * dev[i-1], starting from rest.

    Bit for bit equal to scipy.signal.lfilter([1], [1, -coef], eps) whenever
    eps holds no negative zero, which a normal draw around 0.0 never yields;
    a plain loop over ~1000 periods costs far less than importing scipy.signal.
    """
    dev = []
    prev = 0.0
    for e in eps.tolist():
        prev = e + coef * prev
        dev.append(prev)
    return np.array(dev)


def _draw_periods(rng: np.random.Generator, params: ClassParams, duration_s: float) -> np.ndarray:
    """Beat periods covering at least duration_s, clamped to a physiologic range.

    Mean period is 60/mean_hr; the rate sd is mapped onto a period sd by the
    local linearization sd_period = 60*hr_sd/mean_hr^2. AR(1) innovations are
    scaled so the stationary sd equals sd_period.
    """
    mean_period = 60.0 / params.mean_hr_bpm
    sd_period = 60.0 * params.hr_sd_bpm / params.mean_hr_bpm**2
    n = int(duration_s / mean_period * 1.5) + 20
    periods = np.empty(0)
    while periods.sum() < duration_s:
        first = rng.normal(0.0, sd_period)
        eps = rng.normal(0.0, sd_period * math.sqrt(max(0.0, 1.0 - params.hr_ar**2)), n)
        eps[0] = first
        block = np.clip(mean_period + _ar1(eps, params.hr_ar), MIN_PERIOD_S, MAX_PERIOD_S)
        periods = np.concatenate([periods, block])
    return periods


def synth_recording(spec: CohortSpec, label: str, patient_id: str, stream: int) -> Recording:
    """Generate one recording; `stream` keys the independent RNG substream.

    Draw order is fixed (age, sex, wander phase, periods, noise) so outputs are
    reproducible for a given (spec.seed, stream) pair.
    """
    params = spec.positive if label == "LVO" else spec.negative
    rng = np.random.default_rng([spec.seed, stream])

    age = float(rng.uniform(*params.age_range))
    sex = "male" if rng.random() < spec.male_fraction else "female"
    phase = float(rng.uniform(0.0, 2.0 * math.pi))

    n_samples = round(spec.duration_s * spec.fs)
    periods = _draw_periods(rng, params, spec.duration_s)
    onsets = np.concatenate([[0.0], np.cumsum(periods)])

    mean_period = 60.0 / params.mean_hr_bpm
    signal = np.zeros(n_samples)
    for k in range(len(periods)):
        i0 = round(onsets[k] * spec.fs)
        i1 = min(round(onsets[k + 1] * spec.fs), n_samples)
        if i0 >= n_samples:
            break
        # stretch the nominal-period template onto this beat's drawn period
        t_local = np.arange(i0, i1) / spec.fs - onsets[k]
        signal[i0:i1] = synth_beat(params.beat, t_local * (mean_period / periods[k]))

    if spec.wander_amp > 0:
        t = np.arange(n_samples) / spec.fs
        signal = signal + spec.wander_amp * params.beat.systolic_amp * np.sin(
            2.0 * math.pi * spec.wander_freq_hz * t + phase)
    if spec.noise_sd > 0:
        signal = signal + rng.normal(0.0, spec.noise_sd * params.beat.systolic_amp, n_samples)

    return Recording(patient_id=patient_id, fs=spec.fs, samples=signal,
                     label=label, age=age, sex=sex)


def cohort_labels(spec: CohortSpec) -> list[str]:
    """Class label per patient index: positives first, negatives alternate NL/SM."""
    labels = ["LVO"] * spec.n_positive
    for j in range(spec.n_negative):
        labels.append("NL" if j % 2 == 0 else "SM")
    return labels


def synth_cohort(spec: CohortSpec) -> list[Recording]:
    """Generate the full cohort described by spec, deterministically."""
    spec.validate()
    labels = cohort_labels(spec)
    recordings = []
    for idx, label in enumerate(labels):
        pid = f"{label}-{idx:04d}"
        recordings.append(synth_recording(spec, label, pid, stream=idx))
    return recordings


def _synth_and_write(task: tuple, out_dir: str) -> dict:
    spec, label, index = task
    patient_id = f"{label}-{index:04d}"
    # synth_recording, and io.write_samples inside io.write_recording, are
    # looked up through their modules at call time, so instrumentation that
    # replaces the module attributes sees every call
    return io.write_recording(synth_recording(spec, label, patient_id, stream=index), out_dir)


def synth_cohort_to_dir(spec: CohortSpec, out_dir: Path | str,
                        workers: int | None = 1) -> Path:
    """Generate a cohort straight to disk (manifest + sample files)."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(spec, label, idx) for idx, label in enumerate(cohort_labels(spec))]
    entries = pmap(partial(_synth_and_write, out_dir=str(out_dir)), tasks, workers=workers)
    return io.write_manifest(entries, out_dir)


def separated_cohort_spec(n_positive: int = 25, n_negative: int = 61,
                          duration_s: float = 600.0, fs: float = 1000.0,
                          seed: int = 0) -> CohortSpec:
    """Cohort whose classes differ strongly in morphology and rate variability:
    the positive class has a larger, earlier reflected wave and steadier rhythm."""
    positive = ClassParams(
        beat=BeatModel(1.0, 0.28, 0.09, 0.45, 0.50, 0.055),
        mean_hr_bpm=78.0, hr_sd_bpm=1.2)
    negative = ClassParams(
        beat=BeatModel(1.0, 0.30, 0.10, 0.30, 0.56, 0.06),
        mean_hr_bpm=70.0, hr_sd_bpm=3.0)
    return CohortSpec(n_positive=n_positive, n_negative=n_negative, duration_s=duration_s,
                      fs=fs, positive=positive, negative=negative, seed=seed)


def matched_cohort_spec(n_positive: int = 25, n_negative: int = 61,
                        duration_s: float = 600.0, fs: float = 1000.0,
                        seed: int = 0) -> CohortSpec:
    """Cohort with identical parameters for both classes: no real signal."""
    params = ClassParams(beat=BeatModel(1.0, 0.30, 0.10, 0.30, 0.56, 0.06),
                         mean_hr_bpm=72.0, hr_sd_bpm=2.2)
    return CohortSpec(n_positive=n_positive, n_negative=n_negative, duration_s=duration_s,
                      fs=fs, positive=params,
                      negative=ClassParams(beat=BeatModel(1.0, 0.30, 0.10, 0.30, 0.56, 0.06),
                                           mean_hr_bpm=72.0, hr_sd_bpm=2.2),
                      seed=seed)


def spec_from_dict(doc: dict, where: str = "cohort spec") -> CohortSpec:
    return from_document(CohortSpec, doc, where)
