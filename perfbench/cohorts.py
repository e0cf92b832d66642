"""Workload inputs: cohort specs, the weak-signal cohort and artifact injection.

Every input is a pure function of the workload seed. The program under test
receives only the files written from these inputs. Program functions are
looked up on their module at call time, so the traced run sees these calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ppgtriage import synth
from ppgtriage.io import Recording
from ppgtriage.synth import BeatModel, ClassParams, CohortSpec, cohort_labels

WINDOW_S = 30.0

#: the README quick-start spec: the separated classes
QUICK_START_CLASSES = {
    "positive": {"mean_hr_bpm": 78, "hr_sd_bpm": 1.2,
                 "beat": {"systolic_center": 0.28, "systolic_width": 0.09,
                          "diastolic_amp": 0.45, "diastolic_center": 0.50,
                          "diastolic_width": 0.055}},
    "negative": {"mean_hr_bpm": 70, "hr_sd_bpm": 3.0,
                 "beat": {"diastolic_amp": 0.30, "diastolic_center": 0.56,
                          "diastolic_width": 0.06}},
}

#: evaluate_weak per-patient parameter ranges, shared by both classes
WEAK_RANGES = {
    "systolic_center": (0.27, 0.31),
    "systolic_width": (0.085, 0.105),
    "diastolic_amp": (0.30, 0.40),
    "diastolic_lag": (0.22, 0.27),      # diastolic_center - systolic_center
    "diastolic_width": (0.050, 0.065),
    "mean_hr_bpm": (64.0, 82.0),
    "hr_sd_bpm": (1.5, 3.0),
}
#: seeds the evaluate_weak parameter design, which every workload seed shares
WEAK_DESIGN_SEED = 20250
#: added to the positive class's diastolic amplitude
WEAK_DIASTOLIC_SHIFT = 0.06

#: extract_artifact: every odd window carries one artifact, the even ones are clean
STEP_FACTOR = 5.0
STEP_SPAN = (0.25, 0.75)        # fraction of the window multiplied by STEP_FACTOR
DROPOUT_SPAN = (0.10, 0.90)     # fraction of the window held flat
STEP = "step"
DROPOUT = "dropout"


@dataclass(frozen=True)
class Sizes:
    """How big one workload's inputs and its evaluate run are."""

    n_positive: int
    n_negative: int
    duration_s: float
    fs: float
    n_iter: int
    setups: int         # set-ups per run; setup_s is their median

    @property
    def n_patients(self) -> int:
        return self.n_positive + self.n_negative

    @property
    def windows_per_patient(self) -> int:
        return int(self.duration_s // WINDOW_S)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    tiny: Sizes             # the self-check's size
    auroc_range: tuple[float, float]    # where the ALL AUROC median must lie
    auroc_open: bool        # the range excludes its ends

    def scaled(self, tiny: bool) -> Sizes:
        return self.tiny if tiny else self.sizes


WORKLOADS = {
    "paper_flow": Workload(
        "paper_flow",
        Sizes(n_positive=2, n_negative=2, duration_s=600.0, fs=1000.0, n_iter=10, setups=3),
        Sizes(n_positive=2, n_negative=2, duration_s=95.0, fs=500.0, n_iter=3, setups=2),
        auroc_range=(0.95, 1.0), auroc_open=False),
    "evaluate_weak": Workload(
        "evaluate_weak",
        Sizes(n_positive=25, n_negative=61, duration_s=65.0, fs=250.0, n_iter=30, setups=2),
        Sizes(n_positive=25, n_negative=61, duration_s=35.0, fs=250.0, n_iter=4, setups=2),
        auroc_range=(0.5, 1.0), auroc_open=True),
    "extract_artifact": Workload(
        "extract_artifact",
        Sizes(n_positive=2, n_negative=2, duration_s=600.0, fs=1000.0, n_iter=5, setups=3),
        Sizes(n_positive=2, n_negative=2, duration_s=125.0, fs=500.0, n_iter=3, setups=2),
        auroc_range=(0.95, 1.0), auroc_open=False),
}


def quick_start_spec(sizes: Sizes, seed: int) -> dict:
    """The README quick-start cohort spec, resized."""
    return {"n_positive": sizes.n_positive, "n_negative": sizes.n_negative,
            "duration_s": sizes.duration_s, "fs": sizes.fs, "noise_sd": 0.01,
            "seed": seed, **QUICK_START_CLASSES}


def quick_start_config(sizes: Sizes) -> dict:
    """The README quick-start run config with the workload's iteration count."""
    return {"n_iter": sizes.n_iter, "seed": 11, "lambda": 1.0, "rfe_k": 10}


def patient_ids(sizes: Sizes) -> list[tuple[str, str]]:
    """(patient_id, label) in generation order, as the synth CLI names them."""
    spec = CohortSpec(n_positive=sizes.n_positive, n_negative=sizes.n_negative)
    return [(f"{label}-{idx:04d}", label) for idx, label in enumerate(cohort_labels(spec))]


def class_heart_rates(sizes: Sizes) -> dict[str, float]:
    """Generator heart rate per patient for the separated (quick-start) classes."""
    return {pid: float(QUICK_START_CLASSES["positive" if label == "LVO" else "negative"]
                       ["mean_hr_bpm"])
            for pid, label in patient_ids(sizes)}


def weak_params(sizes: Sizes) -> list[ClassParams]:
    """Per-patient beat and rate parameters for evaluate_weak, in generation order.

    Each class holds a fixed Latin-hypercube design over the shared ranges:
    one value per equal-probability stratum, strata paired at random across
    parameters. The design is the same for every workload seed, which still
    draws each recording's beat periods, noise, wander phase, age and sex.
    Letting the seed reassign the design rows to patients doubled the spread
    of the ALL AUROC between seeds. The classes differ only by
    WEAK_DIASTOLIC_SHIFT.
    """
    rng = np.random.default_rng(WEAK_DESIGN_SEED)
    labels = [label for _, label in patient_ids(sizes)]
    draws: list[dict] = [{} for _ in labels]
    for positive in (True, False):
        members = [i for i, label in enumerate(labels) if (label == "LVO") == positive]
        n = len(members)
        for key, (lo, hi) in WEAK_RANGES.items():
            u = (rng.permutation(n) + rng.uniform(size=n)) / n
            for i, value in zip(members, lo + u * (hi - lo)):
                draws[i][key] = float(value)
    params = []
    for r, label in zip(draws, labels):
        shift = WEAK_DIASTOLIC_SHIFT if label == "LVO" else 0.0
        beat = BeatModel(systolic_amp=1.0, systolic_center=r["systolic_center"],
                         systolic_width=r["systolic_width"],
                         diastolic_amp=r["diastolic_amp"] + shift,
                         diastolic_center=r["systolic_center"] + r["diastolic_lag"],
                         diastolic_width=r["diastolic_width"])
        params.append(ClassParams(beat=beat, mean_hr_bpm=r["mean_hr_bpm"],
                                  hr_sd_bpm=r["hr_sd_bpm"]))
    return params


def weak_cohort(sizes: Sizes, seed: int) -> tuple[list[Recording], dict[str, float]]:
    """Overlapping per-patient parameters plus a small class shift.

    Returns the recordings and each patient's generator heart rate.
    """
    base = CohortSpec(n_positive=sizes.n_positive, n_negative=sizes.n_negative,
                      duration_s=sizes.duration_s, fs=sizes.fs, seed=seed)
    recordings, rates = [], {}
    for idx, ((pid, label), params) in enumerate(zip(patient_ids(sizes), weak_params(sizes))):
        spec = replace(base, positive=params, negative=params)
        spec.validate()
        recordings.append(synth.synth_recording(spec, label, pid, stream=idx))
        rates[pid] = params.mean_hr_bpm
    return recordings, rates


def artifact_plan(sizes: Sizes, seed: int) -> dict[tuple[str, int], str]:
    """(patient_id, window_index) -> artifact kind; odd windows only."""
    rng = np.random.default_rng([seed, 2])
    plan = {}
    for pid, _ in patient_ids(sizes):
        for widx in range(1, sizes.windows_per_patient, 2):
            plan[(pid, widx)] = STEP if rng.random() < 0.5 else DROPOUT
    return plan


def inject(samples: np.ndarray, fs: float, window_index: int, kind: str) -> None:
    """Write one artifact into the raw samples of one window, in place."""
    n = round(WINDOW_S * fs)
    start = window_index * n
    span = STEP_SPAN if kind == STEP else DROPOUT_SPAN
    i0, i1 = start + round(span[0] * n), start + round(span[1] * n)
    if kind == STEP:
        samples[i0:i1] *= STEP_FACTOR
    else:
        samples[i0:i1] = samples[i0]


def artifact_cohort(sizes: Sizes, seed: int
                    ) -> tuple[list[Recording], dict[tuple[str, int], str], dict[str, float]]:
    """Separated cohort whose raw samples carry artifacts in known windows."""
    spec = synth.separated_cohort_spec(n_positive=sizes.n_positive, n_negative=sizes.n_negative,
                                 duration_s=sizes.duration_s, fs=sizes.fs, seed=seed)
    plan = artifact_plan(sizes, seed)
    recordings = []
    for idx, (pid, label) in enumerate(patient_ids(sizes)):
        rec = synth.synth_recording(spec, label, pid, stream=idx)
        for (p, widx), kind in plan.items():
            if p == pid:
                inject(rec.samples, rec.fs, widx, kind)
        recordings.append(rec)
    return recordings, plan, class_heart_rates(sizes)
