"""Golden extraction outputs: `features.csv` and `screening.json` of a small
fixed cohort must keep their exact bytes.

The cohort mixes sampling rates and signal quality so that the beat kernel
meets every branch: a clean 1-kHz recording, a noisy 250-Hz one whose beats
often exceed MAX_D2_EXTREMA, and a 1-kHz one with a x5 amplitude step in one
window. The hashes were recorded before the window-batched beat kernel
replaced the per-beat one, so they pin that the kernel changed no output bit.
"""
import hashlib
from dataclasses import replace

import pytest

from ppgtriage import cli
from ppgtriage.io import write_cohort
from ppgtriage.synth import separated_cohort_spec, synth_recording

GOLDEN_SHA256 = {
    "features.csv": "2c5d88682d5b41e496d6375beae98952943bcdf5e0741fc8a51ce4cf840c6296",
    "screening.json": "9cb8de5a5ed0f59d5e904a394122f7e7039a321b74d7331dc68e0344dd37d7bc",
}


def golden_cohort():
    clean = separated_cohort_spec(n_positive=1, n_negative=2, duration_s=95.0, seed=31)
    noisy = replace(clean, fs=250.0, duration_s=125.0, noise_sd=0.05)
    step = synth_recording(clean, "SM", "SM-0002", stream=2)
    n = round(30.0 * step.fs)
    step.samples[n + round(0.3 * n):n + round(0.6 * n)] *= 5.0
    return [synth_recording(clean, "LVO", "LVO-0000", stream=0),
            synth_recording(noisy, "NL", "NL-0001", stream=1),
            step]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_extract_outputs_match_golden_hashes(tmp_path, workers):
    manifest = write_cohort(golden_cohort(), tmp_path / "cohort")
    out = tmp_path / "out"
    assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out),
                     "--workers", workers]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
