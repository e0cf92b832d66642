from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgtriage import fiducials
from ppgtriage.errors import SignalTooShortError
from ppgtriage.fiducials import (ABSENT, EXTREMUM_FLOOR, MAX_D2_EXTREMA, MIN_BEAT_S,
                                 _moving_quantile, beat_batch, detect_beats, edge_guard,
                                 locate_batch, locate_fiducials, smooth_derivatives,
                                 window_beats)
from ppgtriage.synth import BeatModel, ClassParams, CohortSpec, synth_beat, synth_recording

from .conftest import BEAT_KINDS, beat_train, make_beat, random_beat_model
from .oracles import chain_abcde

FS = 1000.0


def _steady_window(duration_s=30.0, hr=60.0, noise=0.0):
    params = ClassParams(mean_hr_bpm=hr, hr_sd_bpm=0.0)
    spec = CohortSpec(duration_s=duration_s + 2.0, fs=FS, positive=params,
                      noise_sd=noise, wander_amp=0.0, seed=5)
    rec = synth_recording(spec, "LVO", "P0", 0)
    return rec.samples[:round(duration_s * FS)]


def test_sixty_bpm_window_span_count_and_intervals():
    x = _steady_window()
    spans = detect_beats(x, FS)
    assert 29 <= len(spans) <= 30
    intervals = np.diff([s.onset for s in spans])
    assert np.all(np.abs(intervals - 1000) <= 1)


def test_constant_signal_has_no_beats():
    assert detect_beats(np.full(5000, 2.0), FS) == []


def test_two_beats_give_one_complete_span():
    t = np.arange(0, 2.2, 1 / FS)
    model = BeatModel()
    x = synth_beat(model, t) + synth_beat(model, t - 1.0)
    spans = detect_beats(x, FS)
    assert len(spans) == 1
    assert spans[0].onset < spans[0].systolic_peak < spans[0].next_onset


def test_spans_ordered_and_non_overlapping():
    spans = detect_beats(_steady_window(noise=0.01), FS)
    for a, b in zip(spans, spans[1:]):
        assert a.next_onset == b.onset
        assert a.onset < a.systolic_peak < a.next_onset


def test_truncated_first_beat_dropped():
    x = _steady_window()
    spans_full = detect_beats(x, FS)
    cut = x[spans_full[2].systolic_peak - 120:]    # start mid-rise
    spans_cut = detect_beats(cut, FS)
    rises = [s.systolic_peak - s.onset for s in spans_cut]
    assert min(rises) > 0.5 * np.median(rises)


def test_derivative_amplitude_of_sine():
    t = np.arange(0, 2.0, 1 / FS)
    amp = 0.8
    d1, _, _ = smooth_derivatives(amp * np.sin(2 * np.pi * 1.0 * t), FS)
    interior = d1[100:-100]
    assert abs(interior.max() - 2 * np.pi * amp) / (2 * np.pi * amp) < 0.01


def test_second_derivative_of_ramp_is_zero():
    slope = 3.0
    _, d2, _ = smooth_derivatives(slope * np.arange(1000) / FS, FS)
    guard = edge_guard(FS)
    assert np.max(np.abs(d2[guard:-guard])) < 1e-6 * slope * FS


def test_third_derivative_of_quadratic_is_zero():
    t = np.arange(1000) / FS
    _, _, d3 = smooth_derivatives(5.0 * t**2, FS)
    guard = edge_guard(FS)
    scale = 10.0 * FS    # second derivative magnitude of the input
    assert np.max(np.abs(d3[guard:-guard])) < 1e-6 * scale * FS


def test_short_beat_rejected():
    with pytest.raises(SignalTooShortError):
        smooth_derivatives(np.zeros(200), FS)


def test_fiducial_chain_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    guard = edge_guard(FS)
    complete = 0
    for _ in range(60):
        beat = make_beat(random_beat_model(rng), period_s=rng.uniform(0.75, 0.95))
        derivs = smooth_derivatives(beat, FS)
        fid = locate_fiducials(beat, FS)
        expected = chain_abcde(derivs[1], guard, EXTREMUM_FLOOR, MAX_D2_EXTREMA)
        assert {k: getattr(fid, k) for k in "abcde"} == expected
        if all(expected[k] is not None for k in "abcde"):
            complete += 1
            assert 0 <= fid.a < fid.b < fid.c < fid.d < fid.e < len(beat)
    assert complete >= 55


def test_fiducial_ordering_invariants():
    rng = np.random.default_rng(33)
    for _ in range(25):
        beat = make_beat(random_beat_model(rng))
        fid = locate_fiducials(beat, FS)
        if fid.dn is not None:
            assert fid.sp < fid.dn or fid.dn == fid.e
        if fid.dn is not None and fid.dp is not None:
            assert fid.dn <= fid.dp
        if fid.u is not None and fid.v is not None:
            assert fid.u < fid.v
        if fid.p1 is not None and fid.p2 is not None:
            assert fid.p1 <= fid.p2


def test_symmetric_beat_peak_at_center():
    fs = 1000.0
    t = np.arange(0, 1.0, 1 / fs)
    beat = np.exp(-((t - 0.5) ** 2) / (2 * 0.1**2))
    fid = locate_fiducials(beat, fs)
    assert abs(fid.sp - 500) <= 1


def test_pure_noise_beat_reports_nothing():
    for seed in range(10):
        noise = np.random.default_rng(seed).normal(size=800)
        fid = locate_fiducials(noise, FS)
        assert all(v is None for v in fid.as_dict().values())


def test_indices_invariant_to_scale_and_shift():
    rng = np.random.default_rng(7)
    beat = make_beat(random_beat_model(rng))
    base = locate_fiducials(beat, FS).as_dict()
    assert locate_fiducials(3.0 * beat, FS).as_dict() == base
    assert locate_fiducials(beat + 5.0, FS).as_dict() == base
    spans = detect_beats(_steady_window(), FS)
    spans_scaled = detect_beats(2.0 * _steady_window() + 1.0, FS)
    assert [(s.onset, s.systolic_peak, s.next_onset) for s in spans] == \
           [(s.onset, s.systolic_peak, s.next_onset) for s in spans_scaled]


def _moving_quantile_per_centre(x, fs, q, win_s, stride_s=0.25):
    """Reference: one np.quantile call per centre."""
    n = len(x)
    half = max(1, round(win_s * fs / 2))
    stride = max(1, round(stride_s * fs))
    centers = np.arange(0, n, stride)
    vals = np.array([np.quantile(x[max(0, c - half):min(n, c + half + 1)], q) for c in centers])
    if len(centers) == 1:
        return np.full(n, vals[0])
    return np.interp(np.arange(n), centers, vals)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=400),
       fs=st.sampled_from([10.0, 40.0, 100.0]), q=st.floats(0.0, 1.0),
       win_s=st.floats(0.05, 8.0), stride_s=st.floats(0.01, 1.0),
       block=st.sampled_from([1, 40, fiducials.QUANTILE_BLOCK]))
def test_batched_moving_quantile_matches_per_centre_bitwise(x, fs, q, win_s, stride_s, block):
    # windows longer than x (no full-width centre) and blocks of one row are included
    x = np.array(x)
    expected = _moving_quantile_per_centre(x, fs, q, win_s, stride_s)
    with mock.patch.object(fiducials, "QUANTILE_BLOCK", block):
        got = _moving_quantile(x, fs, q, win_s, stride_s)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(fs=st.sampled_from([20.0, 250.0, 1000.0]),
       kinds=st.lists(st.sampled_from(BEAT_KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(fs=1000.0, kinds=["pulse", "noise", "flat", "short", "pulse"], seed=3)
@example(fs=20.0, kinds=["pulse", "short", "flat", "noise"], seed=4)
@example(fs=250.0, kinds=["pulse"], seed=5)
def test_window_kernel_equals_each_beat_alone(fs, kinds, seed):
    """Every beat of a window batch gets bitwise the derivatives and the
    landmarks it gets alone; beats below MIN_BEAT_S are left out."""
    samples, spans = beat_train(fs, kinds, seed)
    batch = window_beats(samples, spans, fs)
    beats = [samples[s.onset:s.next_onset] for s in spans
             if s.length >= round(MIN_BEAT_S * fs)]
    assert list(batch.lengths) == [len(b) for b in beats]
    landmarks = locate_batch(batch)
    for i, beat in enumerate(beats):
        n = len(beat)
        alone = smooth_derivatives(beat, fs)
        for batched, single in zip((batch.d1, batch.d2, batch.d3), alone):
            assert batched[i, :n].tobytes() == single.tobytes()
        assert batch.y[i, :n].tobytes() == beat.tobytes()
        got = {name: None if idx[i] == ABSENT else int(idx[i])
               for name, idx in landmarks.items()}
        assert got == locate_fiducials(beat, fs).as_dict()


def test_window_kernel_meets_each_edge_case():
    # the cases the property draws, each shown to occur: a flat beat and a
    # noise beat get no landmark, a beat shorter than the guard zone gets no
    # candidate extremum, a beat below MIN_BEAT_S is left out
    samples, spans = beat_train(1000.0, ["pulse", "noise", "flat", "short"], 3)
    batch = window_beats(samples, spans, 1000.0)
    landmarks = locate_batch(batch)
    assert len(batch) == 3
    assert landmarks["sp"][0] != ABSENT and landmarks["sp"][1] == landmarks["sp"][2] == ABSENT
    fs = 20.0
    guard = edge_guard(fs)
    beat = np.sin(np.linspace(0.0, np.pi, 2 * guard + 2))
    assert len(beat) >= round(MIN_BEAT_S * fs)
    fid = locate_fiducials(beat, fs)
    assert fid.sp is not None and all(getattr(fid, k) is None for k in "abcde")


def test_beat_batch_rejects_a_beat_below_the_minimum():
    with pytest.raises(SignalTooShortError):
        beat_batch([np.zeros(400), np.zeros(200)], FS)
