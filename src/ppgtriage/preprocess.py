"""Zero-phase bandpass filtering, fixed-length windowing, and quality screening.

The filter is a fourth-order Butterworth bandpass (0.5-12 Hz by default)
realized as second-order sections and applied forward-backward, so the net
phase shift is zero and the effective magnitude response is the square of the
one-pass response. Edges are reflect-padded by three times the settling length
of the cascade's step response (settling: within 1% of the final value).

Window screening combines three checks: enough detected beats, bounded
beat-amplitude modulation (max/min systolic-peak-to-onset amplitude), and a
template-correlation score (each beat resampled to a fixed length and
correlated against the window's mean beat).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .config import RunConfig
from .errors import ConfigError, SignalTooShortError
from .fiducials import BeatSpan, detect_beats
from .io import Recording

TEMPLATE_LEN = 100

KEPT = "kept"
REJECT_FLATLINE = "flatline"
REJECT_TOO_FEW_BEATS = "too_few_beats"
REJECT_AMPLITUDE_MODULATION = "amplitude_modulation"
REJECT_LOW_CORRELATION = "low_correlation"


@dataclass(frozen=True)
class FilterDesign:
    """Stable second-order-section cascade plus its padding requirement.

    design_bandpass hands one design to every caller with the same (fs, band,
    order), so a design is immutable, its read-only `sos` included. scipy's
    sosfilt takes only a writable cascade: pass it `design.sos.copy()`.
    """

    fs: float
    band: tuple[float, float]
    order: int
    sos: np.ndarray
    settle_len: int         # samples until the step response stays within 1% of final

    @property
    def pad_len(self) -> int:
        return 3 * self.settle_len


@dataclass
class SqiResult:
    score: float | None                       # mean per-beat template correlation
    amplitude_modulation_ratio: float | None  # max/min peak-to-onset amplitude
    n_beats: int
    verdict: str                              # KEPT or a rejection reason

    @property
    def kept(self) -> bool:
        return self.verdict == KEPT


@dataclass
class Window:
    """One contiguous fixed-length segment of a filtered recording."""

    patient_id: str
    window_index: int
    fs: float
    samples: np.ndarray


@lru_cache(maxsize=64)
def design_bandpass(fs: float, low: float = RunConfig.band_low_hz,
                    high: float = RunConfig.band_high_hz,
                    order: int = RunConfig.filter_order) -> FilterDesign:
    """Design the Butterworth bandpass for a given sampling rate.

    `order` is the overall filter order (must be even: a bandpass of order 2N
    comes from an N-th order prototype). Designs are cached: repeated calls
    with the same arguments return the same FilterDesign object.
    """
    if order < 2 or order % 2:
        raise ConfigError(f"filter order must be even and >= 2, got {order}")
    if not (0 < low < high):
        raise ConfigError(f"need 0 < low < high, got band ({low}, {high})")
    if fs <= 2 * high:
        raise ConfigError(f"fs={fs} too low for band ({low}, {high}): "
                          f"upper edge must sit below Nyquist")
    sos = sps.butter(order // 2, [low, high], btype="bandpass", output="sos", fs=fs)
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise ConfigError(f"unstable filter design for fs={fs}, band ({low}, {high})")
    settle_len = _settle_length(sos, fs)
    sos.setflags(write=False)
    return FilterDesign(fs=fs, band=(low, high), order=order, sos=sos, settle_len=settle_len)


def _settle_length(sos: np.ndarray, fs: float) -> int:
    """Samples until |step response| stays within 1% of its settled value (zero
    for a bandpass, which blocks DC)."""
    horizon = int(10 * fs)
    while True:
        step = sps.sosfilt(sos, np.ones(horizon))
        peak = np.max(np.abs(step))
        above = np.flatnonzero(np.abs(step) >= 0.01 * peak)
        settle = int(above[-1]) + 1 if len(above) else 1
        if settle < 0.9 * horizon:
            return settle
        horizon *= 2
        if horizon > 600 * fs:
            raise ConfigError("filter step response does not settle; design unusable")


def zero_phase_filter(samples: np.ndarray, design: FilterDesign) -> np.ndarray:
    """Forward-backward filtering with reflect padding; zero net phase shift."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) <= design.pad_len:
        raise SignalTooShortError(
            f"need more than {design.pad_len} samples to filter, got {len(samples)}")
    return sps.sosfiltfilt(design.sos.copy(), samples, padtype="even", padlen=design.pad_len)


def filter_recording(recording: Recording, design: FilterDesign) -> Recording:
    """Return a copy of the recording with bandpass-filtered samples."""
    filtered = zero_phase_filter(recording.samples, design)
    return Recording(patient_id=recording.patient_id, fs=recording.fs, samples=filtered,
                     label=recording.label, age=recording.age, sex=recording.sex)


def segment_windows(recording: Recording, window_s: float = RunConfig.window_s) -> list[Window]:
    """Split a recording into contiguous non-overlapping windows of
    round(window_s * fs) samples; a trailing partial segment is discarded."""
    n = round(window_s * recording.fs)
    if n < 1:
        raise ConfigError(f"window_s={window_s} at fs={recording.fs} gives windows "
                          f"of {n} samples; need at least 1")
    count = len(recording.samples) // n
    return [
        Window(patient_id=recording.patient_id, window_index=i, fs=recording.fs,
               samples=recording.samples[i * n:(i + 1) * n])
        for i in range(count)
    ]


def _resample_beat(seg: np.ndarray, length: int) -> np.ndarray:
    return np.interp(np.linspace(0.0, len(seg) - 1.0, length), np.arange(len(seg)), seg)


def _template_correlations(x: np.ndarray, spans: list[BeatSpan]) -> np.ndarray:
    beats = np.stack([_resample_beat(x[s.onset:s.next_onset], TEMPLATE_LEN) for s in spans])
    beats = beats - beats.mean(axis=1, keepdims=True)
    template = beats.mean(axis=0)
    norms = np.linalg.norm(beats, axis=1) * np.linalg.norm(template)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = beats @ template / norms
    return np.where(np.isfinite(corr), corr, 0.0)


def compute_sqi(window: Window, spans: list[BeatSpan] | None = None,
                sqi_threshold: float = RunConfig.sqi_threshold,
                am_threshold: float = RunConfig.am_threshold,
                min_beats: int = RunConfig.min_beats) -> SqiResult:
    """Score one filtered window and decide whether it is usable.

    Checks are applied in a fixed order and the first failure names the
    rejection reason: flatline, too few beats, amplitude modulation, then
    template correlation. A window with no detected beat has too few beats
    whatever `min_beats` is.
    """
    x = np.asarray(window.samples, dtype=np.float64)
    if len(x) == 0 or np.ptp(x) == 0:
        return SqiResult(score=None, amplitude_modulation_ratio=None, n_beats=0,
                         verdict=REJECT_FLATLINE)
    if spans is None:
        spans = detect_beats(x, window.fs)
    if not spans or len(spans) < min_beats:
        return SqiResult(score=None, amplitude_modulation_ratio=None, n_beats=len(spans),
                         verdict=REJECT_TOO_FEW_BEATS)

    amplitudes = np.array([x[s.systolic_peak] - x[s.onset] for s in spans])
    if np.min(amplitudes) <= 0:
        am_ratio = float("inf")
    else:
        am_ratio = float(np.max(amplitudes) / np.min(amplitudes))
    score = float(np.mean(_template_correlations(x, spans)))

    if am_ratio > am_threshold:
        verdict = REJECT_AMPLITUDE_MODULATION
    elif score < sqi_threshold:
        verdict = REJECT_LOW_CORRELATION
    else:
        verdict = KEPT
    return SqiResult(score=score, amplitude_modulation_ratio=am_ratio,
                     n_beats=len(spans), verdict=verdict)
