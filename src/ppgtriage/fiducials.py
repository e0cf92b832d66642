"""Beat detection and per-beat pulse landmark location.

Landmarks per beat, all indices relative to the beat onset:

* ``sp``  systolic peak (pulse maximum)
* ``dn``  dicrotic notch, ``dp`` diastolic peak
* ``a..e`` alternating extrema of the second derivative (acceleration wave):
  a = first significant local maximum after onset, b = first minimum after a,
  c = next maximum, d = next minimum, e = next maximum
* ``u/v/w`` first-derivative landmarks: u = maximum slope on the rising edge,
  v = steepest fall after the systolic peak, w = next slope maximum after v
* ``p1/p2`` early/late systolic peaks of the pulse wave: p1 at the first
  significant local maximum of the third derivative after b, p2 at the d-point

Derivative samples within the edge-guard zone of a span are excluded from
landmark candidacy (one-sided differences and smoothing make them boundary
artifacts), and candidate extrema whose prominence falls below EXTREMUM_FLOOR
of the interior derivative range are treated as noise riding the true wave. A
landmark that cannot be located under these rules is reported absent, never
fabricated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter1d
from scipy.signal import find_peaks

from .errors import SignalTooShortError

#: moving-average smoothing length applied before differentiation, seconds
SMOOTH_S = 0.010
#: minimum spacing between systolic peaks, seconds
REFRACTORY_S = 0.3
#: moving-quantile threshold for systolic peak candidates
PEAK_QUANTILE = 0.70
PEAK_QUANTILE_WIN_S = 3.0
#: most samples one batched moving-quantile call copies (8 MB of float64)
QUANTILE_BLOCK = 1 << 20
#: candidate extrema with prominence below this fraction of the interior range are noise
EXTREMUM_FLOOR = 0.05
#: extra samples excluded beyond the smoothing length at each span edge
EDGE_MARGIN = 2
#: more prominent second-derivative alternations than this means the beat has
#: no acceleration-wave structure at all (a real pulse shows at most ~9)
MAX_D2_EXTREMA = 12
#: minimum beat length accepted for derivative analysis, seconds
MIN_BEAT_S = 0.3


@dataclass
class BeatSpan:
    """One beat, window-absolute sample indices: onset <= systolic_peak < next_onset."""

    onset: int
    next_onset: int
    systolic_peak: int

    @property
    def length(self) -> int:
        return self.next_onset - self.onset


@dataclass
class FiducialSet:
    """Per-beat landmark indices relative to the beat onset; None = absent."""

    sp: int | None = None
    dn: int | None = None
    dp: int | None = None
    a: int | None = None
    b: int | None = None
    c: int | None = None
    d: int | None = None
    e: int | None = None
    u: int | None = None
    v: int | None = None
    w: int | None = None
    p1: int | None = None
    p2: int | None = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def smooth_len(fs: float) -> int:
    return max(1, round(fs * SMOOTH_S))


def edge_guard(fs: float) -> int:
    return smooth_len(fs) + EDGE_MARGIN


def _smooth(x: np.ndarray, fs: float) -> np.ndarray:
    return uniform_filter1d(np.asarray(x, dtype=np.float64), smooth_len(fs), mode="nearest")


def _moving_quantile(x: np.ndarray, fs: float, q: float, win_s: float,
                     stride_s: float = 0.25) -> np.ndarray:
    """Quantile of x over a centered moving window, evaluated coarsely and
    linearly interpolated back to full length."""
    n = len(x)
    half = max(1, round(win_s * fs / 2))
    stride = max(1, round(stride_s * fs))
    centers = np.arange(0, n, stride)
    vals = np.empty(len(centers))
    # centres whose window lies inside x go through batched quantile calls over
    # a sliding-window view, in row blocks that bound the temporary copy; only
    # the clipped edge centres need a call each
    full = (centers >= half) & (centers + half < n)
    if full.any():
        view = sliding_window_view(x, 2 * half + 1)
        starts = centers[full] - half
        rows = max(1, QUANTILE_BLOCK // (2 * half + 1))
        vals[full] = np.concatenate([np.quantile(view[starts[i:i + rows]], q, axis=1)
                                     for i in range(0, len(starts), rows)])
    for k in np.flatnonzero(~full):
        c = centers[k]
        vals[k] = np.quantile(x[max(0, c - half):min(n, c + half + 1)], q)
    if len(centers) == 1:
        return np.full(n, vals[0])
    return np.interp(np.arange(n), centers, vals)


def detect_beats(x: np.ndarray, fs: float) -> list[BeatSpan]:
    """Detect beats: systolic peaks above a moving-quantile threshold with a
    refractory period, onsets at the minima between consecutive peaks plus the
    pre-first-peak minimum. The last peak has no following onset, so n peaks
    yield n-1 complete spans. Zero-variance input yields no beats.

    A first span whose onset-to-peak rise is under half the median rise of the
    remaining spans is a boundary-truncated beat (the segment started mid-pulse)
    and is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 3 or np.ptp(x) == 0:
        return []
    thr = _moving_quantile(x, fs, PEAK_QUANTILE, PEAK_QUANTILE_WIN_S)
    peaks, _ = find_peaks(x, distance=max(1, round(REFRACTORY_S * fs)))
    peaks = peaks[x[peaks] >= thr[peaks]]
    if len(peaks) < 2:
        return []
    onsets = [int(np.argmin(x[:peaks[0] + 1]))]
    for j in range(len(peaks) - 1):
        seg = x[peaks[j]:peaks[j + 1] + 1]
        onsets.append(int(peaks[j] + np.argmin(seg)))
    spans = []
    for j in range(len(peaks) - 1):
        if onsets[j] < peaks[j] < onsets[j + 1]:
            spans.append(BeatSpan(onset=onsets[j], next_onset=onsets[j + 1],
                                  systolic_peak=int(peaks[j])))
    if len(spans) >= 3:
        rises = [span.systolic_peak - span.onset for span in spans]
        if rises[0] < 0.5 * float(np.median(rises[1:])):
            spans = spans[1:]
    return spans


def smooth_derivatives(beat: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First, second, third derivatives of a beat: moving-average smoothing then
    repeated central differences (one-sided at the endpoints)."""
    beat = np.asarray(beat, dtype=np.float64)
    if len(beat) < round(MIN_BEAT_S * fs):
        raise SignalTooShortError(
            f"beat of {len(beat)} samples is below the {MIN_BEAT_S}s minimum at fs={fs}")
    s = _smooth(beat, fs)
    d1 = np.gradient(s) * fs
    d2 = np.gradient(d1) * fs
    d3 = np.gradient(d2) * fs
    return d1, d2, d3


def _candidate_maxima(y: np.ndarray, guard: int, floor_frac: float = EXTREMUM_FLOOR
                      ) -> np.ndarray:
    """Indices of significant local maxima of y (pass -y for minima): edge-guard
    zone excluded, prominence at least floor_frac of the interior peak-to-peak
    range."""
    n = len(y)
    if n - 2 * guard < 3:
        return np.empty(0, dtype=int)
    lo, hi = guard, n - guard
    floor = floor_frac * np.ptp(y[lo:hi])
    maxima, _ = find_peaks(y, prominence=floor)
    return maxima[(maxima >= lo) & (maxima < hi)]


def _first_after(indices: np.ndarray, pos: int) -> int | None:
    after = indices[indices > pos]
    return int(after[0]) if len(after) else None


def locate_fiducials(beat: np.ndarray, fs: float,
                     derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                     ) -> FiducialSet:
    """Locate all landmarks on one beat (samples from onset to next onset).

    Indices are relative to the beat onset. Landmarks that cannot be located
    are left as None; a pure-noise beat yields an all-absent set, not an error.
    """
    beat = np.asarray(beat, dtype=np.float64)
    if derivatives is None:
        derivatives = smooth_derivatives(beat, fs)
    d1, d2, d3 = derivatives
    guard = edge_guard(fs)
    fid = FiducialSet()
    if np.ptp(beat) == 0:
        return fid

    d2_max, d2_min = _candidate_maxima(d2, guard), _candidate_maxima(-d2, guard)
    if len(d2_max) + len(d2_min) > MAX_D2_EXTREMA:
        return fid      # structureless (noise) beat: report nothing

    fid.sp = int(np.argmax(beat))

    fid.a = _first_after(d2_max, 0)
    if fid.a is not None:
        fid.b = _first_after(d2_min, fid.a)
    if fid.b is not None:
        fid.c = _first_after(d2_max, fid.b)
    if fid.c is not None:
        fid.d = _first_after(d2_min, fid.c)
    if fid.d is not None:
        fid.e = _first_after(d2_max, fid.d)

    # slope landmarks: u on the rising edge, v/w after the systolic peak
    if fid.sp > guard:
        fid.u = guard + int(np.argmax(d1[guard:fid.sp + 1]))
    tail_lo, tail_hi = fid.sp + 1, len(beat) - guard
    if tail_hi - tail_lo > 0:
        fid.v = tail_lo + int(np.argmin(d1[tail_lo:tail_hi]))
        d1_max = _candidate_maxima(d1, guard)
        fid.w = _first_after(d1_max, fid.v)

    # dicrotic notch: the pulse minimum nearest the e-point; when the pulse
    # decays monotonically the notch merges into the acceleration e-wave
    s = _smooth(beat, fs)
    s_max = np.flatnonzero((s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])) + 1
    s_min = np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1
    notch_cands = s_min[(s_min > fid.sp) & (s_min < len(beat) - guard)]
    if len(notch_cands):
        if fid.e is not None:
            fid.dn = int(notch_cands[np.argmin(np.abs(notch_cands - fid.e))])
        else:
            fid.dn = int(notch_cands[0])
    elif fid.e is not None and fid.e > fid.sp:
        fid.dn = fid.e
    if fid.dn is not None:
        dp_cands = s_max[(s_max > fid.dn) & (s_max < len(beat) - guard)]
        if len(dp_cands):
            fid.dp = int(dp_cands[0])

    # early/late systolic peaks on the pulse wave
    if fid.d is not None:
        fid.p2 = fid.d
    if fid.b is not None:
        d3_max = _candidate_maxima(d3, guard)
        p1 = _first_after(d3_max, fid.b)
        if p1 is not None and (fid.p2 is None or p1 <= fid.p2):
            fid.p1 = p1
    return fid
