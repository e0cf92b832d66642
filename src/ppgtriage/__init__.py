"""PPG-based stroke triage pipeline.

Raw pulse waveforms in, evaluation report out: zero-phase bandpass filtering,
30-second windowing with quality screening, per-beat landmark detection,
morphology / rate-variability / covariate features, and a repeated stratified
patient-level logistic-regression harness with recursive feature elimination.
A synthetic cohort generator makes the whole pipeline testable without
clinical data.
"""

import importlib

# Public name -> defining module. Names load on first access (PEP 562), so
# importing the package, or a command that needs only part of it, does not
# pull in scipy through the signal-processing modules.
_EXPORTS = {
    "config": ("RunConfig", "load_config"),
    "errors": ("ConfigError", "DataError", "EvaluationError", "SignalTooShortError"),
    "evaluate": ("EvalReport", "plan_splits", "run_experiment"),
    "features": ("CATALOG", "FeatureMatrix", "assemble_matrix"),
    "io": ("Recording", "binarize_label", "load_cohort", "read_report", "write_cohort",
           "write_report"),
    "model": ("LogisticModel", "fit_logistic", "predict_proba", "rfe", "train_model"),
    "pipeline": ("extract_cohort", "extract_matrix", "synth_cohort_to_dir"),
    "synth": ("BeatModel", "ClassParams", "CohortSpec", "synth_beat", "synth_cohort",
              "synth_recording"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
