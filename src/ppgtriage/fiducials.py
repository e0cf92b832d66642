"""Beat detection and pulse landmark location.

Beats are processed per window: the kept beats of a window form one BeatBatch
(rows padded to the longest beat), which is smoothed, differentiated and
searched for landmarks with one set of array operations. Every beat gets
bitwise the result it gets on its own, so outputs do not depend on the
batching; smooth_derivatives and locate_fiducials are that kernel on a batch of
one beat.

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
from scipy.signal import find_peaks, peak_prominences

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


#: the index that marks a landmark as not located in batch results
ABSENT = -1


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


def _min_beat_len(fs: float) -> int:
    return max(2, round(MIN_BEAT_S * fs))     # a derivative needs two samples


@dataclass
class BeatBatch:
    """Beats as the rows of matrices padded to the longest beat.

    Row i holds beat i in its first ``lengths[i]`` columns and repeats the
    beat's last sample after them. Such padding changes no ``mode="nearest"``
    smoothing value, peak-to-peak range or first argmax of the real columns,
    so every real column of ``s`` (the smoothed beat) and ``d1``/``d2``/``d3``
    equals what the beat gives on its own, bit for bit.
    """

    fs: float
    y: np.ndarray
    lengths: np.ndarray
    s: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)


def _derivative(f: np.ndarray, last: np.ndarray, fs: float) -> np.ndarray:
    """np.gradient along each row, whose real samples end at column `last`,
    times fs: central differences, one-sided at both row ends."""
    g = np.empty_like(f)
    g[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / 2.0
    g[:, 0] = f[:, 1] - f[:, 0]
    rows = np.arange(len(f))
    g[rows, last] = f[rows, last] - f[rows, last - 1]
    return g * fs


def beat_batch(beats: list[np.ndarray], fs: float) -> BeatBatch:
    """Pad beats into a batch and differentiate all of them at once: moving-
    average smoothing, then repeated central differences (one-sided at each
    beat's ends). A beat below MIN_BEAT_S raises SignalTooShortError."""
    lengths = np.array([len(beat) for beat in beats], dtype=np.intp)
    short = lengths < _min_beat_len(fs)
    if short.any():
        raise SignalTooShortError(f"beat of {lengths[short][0]} samples is below the "
                                  f"{MIN_BEAT_S}s minimum at fs={fs}")
    starts = np.cumsum(lengths) - lengths
    width = int(lengths.max(initial=2))
    cols = np.minimum(np.arange(width), lengths[:, None] - 1)
    flat = np.concatenate(beats).astype(np.float64) if len(beats) else np.empty(0)
    y = flat[starts[:, None] + cols]
    s = _smooth(y, fs)
    last = lengths - 1
    d1 = _derivative(s, last, fs)
    d2 = _derivative(d1, last, fs)
    return BeatBatch(fs, y, lengths, s, d1, d2, _derivative(d2, last, fs))


def window_beats(samples: np.ndarray, spans: list[BeatSpan], fs: float) -> BeatBatch:
    """The batch of a window's beats, leaving out beats below MIN_BEAT_S."""
    keep = _min_beat_len(fs)
    return beat_batch([samples[s.onset:s.next_onset] for s in spans if s.length >= keep], fs)


def smooth_derivatives(beat: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First, second, third derivatives of one beat (see beat_batch)."""
    batch = beat_batch([np.asarray(beat, dtype=np.float64)], fs)
    return batch.d1[0], batch.d2[0], batch.d3[0]


def _candidate_maxima(y: np.ndarray, lengths: np.ndarray, guard: int) -> np.ndarray:
    """Significant local maxima of each row of y (pass -y for minima), as a
    boolean matrix: edge-guard zone excluded, prominence at least
    EXTREMUM_FLOOR of the row's interior peak-to-peak range. A row shorter
    than 2 * guard + 3 samples has none.

    One find_peaks call covers every row: the rows are laid end to end, each
    followed by a +inf separator. A separator stops the base search of every
    peak at its row's edge, so each prominence is the one of the row alone.
    Separators are themselves peaks, and their base searches would run back
    to the start of the array, so they are dropped before peak_prominences.
    """
    n_rows, width = y.shape
    cols = np.arange(width + 1)
    interior = ((cols >= guard) & (cols < (lengths - guard)[:, None])
                & (lengths - 2 * guard >= 3)[:, None])
    inner = interior[:, :width]
    floor = EXTREMUM_FLOOR * (np.where(inner, y, -np.inf).max(axis=1)
                              - np.where(inner, y, np.inf).min(axis=1))
    real = cols[:width] < lengths[:, None]
    padded = np.full((n_rows, width + 1), np.inf)
    padded[:, :width][real] = y[real]
    flat = padded[cols <= lengths[:, None]]     # each row's samples, then its separator
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    peaks, _ = find_peaks(flat)
    row = np.searchsorted(starts, peaks, side="right") - 1
    col = peaks - starts[row]
    inside = interior[row, col]         # never a separator: its column is the row length
    peaks, row, col = peaks[inside], row[inside], col[inside]
    significant = peak_prominences(flat, peaks)[0] >= floor[row]
    out = np.zeros((n_rows, width), dtype=bool)
    out[row[significant], col[significant]] = True
    return out


def _first_after(candidates: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per row, the first candidate column after pos; ABSENT where pos is
    ABSENT or no candidate follows it."""
    after = candidates & (np.arange(candidates.shape[1]) > pos[:, None])
    first = after.argmax(axis=1)
    return np.where((pos != ABSENT) & after.any(axis=1), first, ABSENT)


def locate_batch(batch: BeatBatch) -> dict[str, np.ndarray]:
    """Locate all landmarks on every beat of a batch.

    Returns one int array per FiducialSet field, indices relative to each beat
    onset and ABSENT where a landmark cannot be located. A flat beat, or one
    whose second derivative has more than MAX_D2_EXTREMA significant extrema
    (a pure-noise beat), has every landmark absent.
    """
    y, n, guard = batch.y, batch.lengths, edge_guard(batch.fs)
    cols = np.arange(y.shape[1])
    d2_max = _candidate_maxima(batch.d2, n, guard)
    d2_min = _candidate_maxima(-batch.d2, n, guard)
    located = (np.ptp(y, axis=1) > 0) & (d2_max.sum(axis=1) + d2_min.sum(axis=1)
                                          <= MAX_D2_EXTREMA)
    sp = np.where(located, y.argmax(axis=1), ABSENT)

    a = _first_after(d2_max, np.where(located, 0, ABSENT))
    b = _first_after(d2_min, a)
    c = _first_after(d2_max, b)
    d = _first_after(d2_min, c)
    e = _first_after(d2_max, d)

    # slope landmarks: u on the rising edge, v/w after the systolic peak
    d1 = batch.d1
    rising = (cols >= guard) & (cols <= sp[:, None])
    u = np.where(sp > guard, np.where(rising, d1, -np.inf).argmax(axis=1), ABSENT)
    tail = (cols > sp[:, None]) & (cols < (n - guard)[:, None]) & located[:, None]
    v = np.where(tail.any(axis=1), np.where(tail, d1, np.inf).argmin(axis=1), ABSENT)
    w = _first_after(_candidate_maxima(d1, n, guard), v)

    # dicrotic notch: the pulse minimum nearest the e-point; when the pulse
    # decays monotonically the notch merges into the acceleration e-wave
    s = batch.s
    s_max = np.zeros(s.shape, dtype=bool)
    s_min = np.zeros(s.shape, dtype=bool)
    s_max[:, 1:-1] = (s[:, 1:-1] > s[:, :-2]) & (s[:, 1:-1] > s[:, 2:])
    s_min[:, 1:-1] = (s[:, 1:-1] < s[:, :-2]) & (s[:, 1:-1] < s[:, 2:])
    notch = s_min & tail
    nearest = np.where(notch, np.abs(cols - e[:, None]), y.shape[1]).argmin(axis=1)
    dn = np.where(e != ABSENT, nearest, notch.argmax(axis=1))
    dn = np.where(notch.any(axis=1), dn, np.where((e != ABSENT) & (e > sp), e, ABSENT))
    dp = _first_after(s_max & (cols < (n - guard)[:, None]), dn)

    # early/late systolic peaks on the pulse wave
    p1 = _first_after(_candidate_maxima(batch.d3, n, guard), b)
    p1 = np.where((d == ABSENT) | (p1 <= d), p1, ABSENT)
    return {"sp": sp, "dn": dn, "dp": dp, "a": a, "b": b, "c": c, "d": d, "e": e,
            "u": u, "v": v, "w": w, "p1": p1, "p2": d}


def locate_fiducials(beat: np.ndarray, fs: float,
                     derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                     ) -> FiducialSet:
    """Locate all landmarks on one beat (samples from onset to next onset).

    Indices are relative to the beat onset. Landmarks that cannot be located
    are left as None; a pure-noise beat yields an all-absent set, not an error.
    """
    beat = np.asarray(beat, dtype=np.float64)
    if derivatives is None:
        batch = beat_batch([beat], fs)
    else:
        batch = BeatBatch(fs, beat[None], np.array([len(beat)]), _smooth(beat, fs)[None],
                          *(np.asarray(d, dtype=np.float64)[None] for d in derivatives))
    return FiducialSet(**{name: None if idx[0] == ABSENT else int(idx[0])
                          for name, idx in locate_batch(batch).items()})
