"""Command-line entry point: synthesize, extract, evaluate.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 degenerate
evaluation. Errors print one machine-parsable line: ``error[<kind>]: <detail>``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import VALID_FAMILIES, VALID_METRIC_LEVELS, RunConfig, load_config
from .errors import ConfigError, DataError, EvaluationError
from .evaluate import run_experiment
from .features import FeatureMatrix
from .io import read_json_object, require_finite, write_report
from .utils import single_thread_blas


# The extract stage loads scipy and the synth stage its generator, neither of
# which `evaluate` needs, so each is imported on first call. They stay
# attributes of this module because instrumentation (the tracer in perfbench/)
# wraps each stage where the commands look it up.
def synth_cohort_to_dir(*args, **kwargs):
    from .synth import synth_cohort_to_dir as stage

    return stage(*args, **kwargs)


def extract_cohort(*args, **kwargs):
    from .pipeline import extract_cohort as stage

    return stage(*args, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ppgtriage",
                                     description="PPG stroke-triage pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort")
    p_synth.add_argument("--spec", required=True, help="cohort spec JSON file")
    p_synth.add_argument("--out", required=True, help="output cohort directory")
    p_synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_synth.add_argument("--workers", type=int, default=None)

    p_extract = sub.add_parser("extract", help="extract the feature matrix from a cohort")
    p_extract.add_argument("--manifest", required=True, help="cohort manifest JSON")
    p_extract.add_argument("--config", default=None, help="run config JSON")
    p_extract.add_argument("--out", required=True, help="output directory")
    p_extract.add_argument("--workers", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="run the repeated-split evaluation")
    p_eval.add_argument("--matrix", required=True, help="feature matrix CSV")
    p_eval.add_argument("--config", default=None, help="run config JSON")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_eval.add_argument("--families", default=None,
                        help=f"comma-separated subset of {','.join(VALID_FAMILIES)}")
    p_eval.add_argument("--metric-level", default=None, choices=VALID_METRIC_LEVELS)
    p_eval.add_argument("--screening", default=None,
                        help="screening log JSON to embed in the report")
    p_eval.add_argument("--workers", type=int, default=None)
    return parser


def _effective_workers(cli_workers: int | None, config: RunConfig) -> int | None:
    return cli_workers if cli_workers is not None else config.workers


def cmd_synth(args) -> int:
    from .synth import spec_from_dict

    doc = read_json_object(args.spec, "cohort spec", ConfigError)
    if args.seed is None and "seed" not in doc:
        raise ConfigError("a seed is required: set 'seed' in the spec or pass --seed")
    spec = spec_from_dict(doc, f"cohort spec {args.spec}")
    if args.seed is not None:
        spec.seed = args.seed
    manifest = synth_cohort_to_dir(spec, args.out, workers=args.workers)
    n_sm = spec.n_negative // 2
    n_nl = spec.n_negative - n_sm
    print(f"wrote {spec.n_positive} C1 / {spec.n_negative} C0 recordings "
          f"({spec.n_positive} LVO, {n_nl} NL, {n_sm} SM) to {manifest.parent}")
    return 0


def cmd_extract(args) -> int:
    config = load_config(args.config)
    workers = _effective_workers(args.workers, config)
    matrix, screening = extract_cohort(args.manifest, config, workers=workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix.to_csv(out_dir / "features.csv")
    (out_dir / "screening.json").write_text(
        json.dumps(screening, indent=2, sort_keys=True) + "\n")
    reasons = ", ".join(f"{k}={v}" for k, v in screening["excluded_by_reason"].items()) or "none"
    print(f"windows: {screening['windows_total']} total, {screening['kept']} kept, "
          f"{screening['excluded']} excluded ({reasons})")
    print(f"feature matrix: {matrix.n_rows} rows x {len(matrix.feature_names)} features "
          f"-> {out_dir / 'features.csv'}")
    return 0


def _fmt(value, digits: int = 2) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"


def _print_summary(report) -> None:
    print(f"{'family':<8}{'sens':>8}{'spec':>8}{'prec':>8}{'f1':>8}  auroc (p25-p75)")
    for row in report.summary_rows():
        auroc_txt = "n/a"
        if row["auroc_median"] is not None:
            auroc_txt = (f"{row['auroc_median']:.2f} "
                         f"({_fmt(row['auroc_p25'])}-{_fmt(row['auroc_p75'])})")
        print(f"{row['family']:<8}{_fmt(row['sensitivity']):>8}{_fmt(row['specificity']):>8}"
              f"{_fmt(row['precision']):>8}{_fmt(row['f1']):>8}  {auroc_txt}")


def _write_roc_csv(path: Path, roc: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr_median", "tpr_p25", "tpr_p75"])
        for row in zip(roc["fpr_grid"], roc["tpr_median"], roc["tpr_p25"], roc["tpr_p75"]):
            writer.writerow([repr(v) for v in row])


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if config.seed is None:
        raise ConfigError("a seed is required: set 'seed' in the config or pass --seed")
    if args.families is not None:
        config = replace(config, families=tuple(args.families.split(",")))
    if args.metric_level is not None:
        config = replace(config, metric_level=args.metric_level)
    config.validate()

    matrix = FeatureMatrix.from_csv(args.matrix)
    screening = None
    if args.screening is not None:
        screening = read_json_object(args.screening, "screening log", DataError)
        # the report embeds the log, and a report holds finite numbers only
        require_finite(screening, f"screening log {args.screening}", DataError)

    workers = _effective_workers(args.workers, config)
    report = run_experiment(
        matrix, n_iter=config.n_iter, train_fraction=config.train_fraction,
        lam=config.lam, rfe_k=config.rfe_k, seed=config.seed,
        families=config.families, metric_level=config.metric_level,
        screening=screening, workers=workers)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json")
    for family, block in report.families.items():
        for level in ("window", "patient"):
            agg = block.get(level)
            if agg is not None:
                suffix = "" if level == "window" else "_patient"
                _write_roc_csv(out_dir / f"roc_{family}{suffix}.csv", agg["roc"])
    with open(out_dir / "selection_frequencies.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "feature", "count"])
        for family, block in report.families.items():
            for name, count in block["selection_frequency"].items():
                writer.writerow([family, name, count])
    (out_dir / "distributions.json").write_text(
        json.dumps(report.distributions, indent=2, sort_keys=True) + "\n")

    _print_summary(report)
    print(f"report -> {out_dir / 'report.json'}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "extract":
        from . import pipeline  # noqa: F401  (scipy brings its own OpenBLAS)
    # Pool workers already run one BLAS thread each; the CLI's own process
    # does too, once every library the stage uses is loaded.
    single_thread_blas()
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"error[evaluation]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
