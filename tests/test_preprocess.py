import dataclasses

import numpy as np
import pytest

from ppgtriage.errors import ConfigError, SignalTooShortError
from ppgtriage.io import Recording
from ppgtriage.preprocess import (KEPT, REJECT_AMPLITUDE_MODULATION, REJECT_FLATLINE,
                                  REJECT_TOO_FEW_BEATS, Window, compute_sqi, design_bandpass,
                                  segment_windows, zero_phase_filter)
from ppgtriage.synth import separated_cohort_spec, synth_recording

from .oracles import band_power

FS = 1000.0


@pytest.fixture(scope="module")
def design():
    return design_bandpass(FS)


@pytest.fixture(scope="module")
def clean_window(design):
    import dataclasses

    spec = separated_cohort_spec(n_positive=1, n_negative=0, duration_s=40.0, seed=77)
    spec = dataclasses.replace(spec, noise_sd=0.0)
    rec = synth_recording(spec, "LVO", "P0", 0)
    filtered = zero_phase_filter(rec.samples, design)
    return Window(patient_id="P0", window_index=0, fs=FS, samples=filtered[:30000])


def _impulse_response_db(design, freqs):
    """Magnitude response measured in the time domain, not via the design path.
    Returns (grid frequencies actually evaluated, dB values there)."""
    from scipy.signal import sosfilt

    n = 2 ** 18
    # the shared design is read-only, and scipy's sosfilt takes a writable cascade
    h = sosfilt(design.sos.copy(), np.concatenate([[1.0], np.zeros(n - 1)]))
    spectrum = np.fft.rfft(h)
    grid = np.fft.rfftfreq(n, d=1.0 / design.fs)
    idx = [int(np.argmin(np.abs(grid - f))) for f in freqs]
    return grid[idx], 20.0 * np.log10(np.abs(spectrum[idx]))


def test_single_pass_magnitude_meets_band_spec(design):
    grid_freqs, db = _impulse_response_db(design, [5.0, 0.05, 40.0])
    assert abs(db[0]) < 1.0          # passband flat at 5 Hz
    assert db[1] <= -20.0            # drift rejection
    assert db[2] <= -20.0            # high-frequency rejection
    from scipy.signal import sosfreqz

    _, h = sosfreqz(design.sos, worN=2.0 * np.pi * grid_freqs / design.fs)
    assert np.allclose(db, 20.0 * np.log10(np.abs(h)), atol=0.05)


def test_design_is_stable(design):
    for section in design.sos:
        assert np.all(np.abs(np.roots(section[3:])) < 1.0)


def test_design_rejects_low_sampling_rate():
    with pytest.raises(ConfigError, match="too low"):
        design_bandpass(20.0)


def test_design_rejects_odd_order():
    with pytest.raises(ConfigError):
        design_bandpass(FS, order=3)


def test_zero_input_gives_zero_output(design):
    out = zero_phase_filter(np.zeros(30000), design)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_sine_peaks_not_shifted(design):
    t = np.arange(0, 20.0, 1 / FS)
    x = np.sin(2 * np.pi * 5.0 * t)
    y = zero_phase_filter(x, design)
    lag = int(np.argmax(np.correlate(y, x, mode="full"))) - (len(x) - 1)
    assert lag == 0
    peaks_in = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    peaks_out = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
    core = (peaks_in > 2000) & (peaks_in < len(x) - 2000)
    for p in peaks_in[core]:
        assert np.min(np.abs(peaks_out - p)) <= 1


def test_drift_removed_signal_preserved(design):
    t = np.arange(0, 40.0, 1 / FS)
    sine = np.sin(2 * np.pi * 5.0 * t)
    drift = np.sin(2 * np.pi * 0.1 * t)
    y = zero_phase_filter(sine + drift, design)
    drift_ratio = band_power(y, FS, 0.05, 0.2) / band_power(drift, FS, 0.05, 0.2)
    assert 10 * np.log10(drift_ratio) <= -20.0
    sine_ratio = band_power(y, FS, 4.5, 5.5) / band_power(sine, FS, 4.5, 5.5)
    assert abs(10 * np.log10(sine_ratio)) <= 2.0


def test_forward_backward_symmetry(design):
    rng = np.random.default_rng(3)
    x = rng.normal(size=30000)
    direct = zero_phase_filter(x, design)
    reversed_route = zero_phase_filter(x[::-1], design)[::-1]
    assert np.allclose(direct, reversed_route, atol=1e-6)
    pad = design.pad_len
    assert np.allclose(direct[pad:-pad], reversed_route[pad:-pad], atol=1e-9)


def test_design_is_shared_and_read_only():
    first = design_bandpass(250.0, 0.5, 12.0, 4)
    assert design_bandpass(250.0, 0.5, 12.0, 4) is first
    with pytest.raises(ValueError):
        first.sos[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.settle_len = 1
    assert design_bandpass(500.0, 0.5, 12.0, 4) is not first


def test_filter_rejects_short_input(design):
    with pytest.raises(SignalTooShortError):
        zero_phase_filter(np.zeros(design.pad_len), design)


def _dummy_recording(duration_s, fs=10.0):
    n = round(duration_s * fs)
    return Recording("P", fs, np.arange(n, dtype=float), "NL")


def test_window_counts():
    assert len(segment_windows(_dummy_recording(600.0))) == 20
    assert len(segment_windows(_dummy_recording(45.0))) == 1
    assert len(segment_windows(_dummy_recording(29.0))) == 0


def test_windows_partition_recording_exactly():
    rec = _dummy_recording(95.0)
    windows = segment_windows(rec)
    n = round(30.0 * rec.fs)
    rebuilt = np.concatenate([w.samples for w in windows] + [rec.samples[len(windows) * n:]])
    assert np.array_equal(rebuilt, rec.samples)
    assert [w.window_index for w in windows] == [0, 1, 2]


def test_zero_length_window_is_config_error():
    with pytest.raises(ConfigError, match=r"window_s=0\.01 at fs=10\.0"):
        segment_windows(_dummy_recording(30.0), window_s=0.01)
    assert len(segment_windows(_dummy_recording(30.0), window_s=0.1)) == 300


def test_clean_window_kept_with_high_score(clean_window):
    sqi = compute_sqi(clean_window)
    assert sqi.verdict == KEPT
    assert sqi.score >= 0.99
    assert sqi.amplitude_modulation_ratio < 1.5


def test_amplitude_modulated_window_rejected(clean_window):
    x = clean_window.samples.copy()
    x[len(x) // 2:] *= 5.0
    sqi = compute_sqi(Window("P0", 0, FS, x))
    assert sqi.verdict == REJECT_AMPLITUDE_MODULATION
    assert sqi.amplitude_modulation_ratio >= 5.0


def test_flatline_rejected():
    sqi = compute_sqi(Window("P0", 0, FS, np.full(30000, 3.7)))
    assert sqi.verdict == REJECT_FLATLINE


def test_too_few_beats_rejected(clean_window):
    x = np.concatenate([clean_window.samples[:6000],
                        np.linspace(0, 0.3, 24000)])
    sqi = compute_sqi(Window("P0", 0, FS, x))
    assert sqi.verdict == REJECT_TOO_FEW_BEATS
    assert sqi.n_beats < 12


def test_screening_partitions_and_counts(clean_window):
    bad = Window("P0", 1, FS, np.full(30000, 1.0))
    modulated = Window("P0", 2, FS, clean_window.samples *
                       np.linspace(1.0, 6.0, 30000))
    verdicts = [compute_sqi(w).verdict for w in (clean_window, bad, modulated)]
    assert verdicts[0] == KEPT
    assert verdicts[1] == REJECT_FLATLINE
    assert verdicts[2] not in (KEPT, REJECT_FLATLINE)


def test_all_clean_windows_yield_empty_exclusions(clean_window):
    sqi = compute_sqi(clean_window)
    assert sqi.kept and sqi.verdict == KEPT


def test_vacuous_thresholds_keep_everything_with_beats(clean_window):
    noisy = Window("P0", 1, FS, clean_window.samples +
                   np.random.default_rng(0).normal(0, 0.3, 30000))
    for window in (clean_window, noisy):
        sqi = compute_sqi(window, sqi_threshold=-1.0, am_threshold=float("inf"), min_beats=1)
        assert sqi.kept


def test_screening_is_order_independent(clean_window):
    rng = np.random.default_rng(1)
    windows = [Window("P0", i, FS, clean_window.samples +
                      rng.normal(0, 0.02 * i, 30000)) for i in range(4)]
    verdict_fwd = {w.window_index: compute_sqi(w).verdict for w in windows}
    verdict_rev = {w.window_index: compute_sqi(w).verdict for w in reversed(windows)}
    assert verdict_fwd == verdict_rev


def test_noise_never_raises_score_statistically(clean_window):
    levels = [0.0, 0.03, 0.08, 0.15, 0.3]
    comparisons = 0
    holds = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=len(clean_window.samples))
        scores = []
        for level in levels:
            w = Window("P0", 0, FS, clean_window.samples + level * noise)
            scores.append(compute_sqi(w, min_beats=1).score)
        for a, b in zip(scores, scores[1:]):
            comparisons += 1
            if b <= a + 1e-12:
                holds += 1
    assert holds / comparisons >= 0.95


def test_beatless_window_has_too_few_beats_even_at_min_beats_zero():
    t = np.arange(30000) / FS
    window = Window("P0", 0, FS, np.sin(2 * np.pi * 0.05 * t))
    sqi = compute_sqi(window, spans=[], min_beats=0)
    assert sqi.verdict == REJECT_TOO_FEW_BEATS
    assert sqi.n_beats == 0 and sqi.score is None
