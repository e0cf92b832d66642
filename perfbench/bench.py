"""The benchmark's runs: set-up, timed rounds of CLI stages, and the traced run.

perfbench/run.py is the command-line entry; perfbench/selfcheck.py calls
``run`` on tiny cohorts.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from perfbench import checks, cohorts
from perfbench.checks import CheckFailed, require
from perfbench.stages import run_cli
from perfbench.tracing import Tracer
from ppgtriage import cli
from ppgtriage.config import load_config
from ppgtriage.evaluate import run_experiment
from ppgtriage.features import FeatureMatrix
from ppgtriage.io import write_cohort, write_report
from ppgtriage.pipeline import extract_cohort

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
FAMILIES = ("MOR", "BRV", "META", "ALL")
CLI_WORKERS = 2             # --workers of every timed CLI stage: the machine's 2 cores
STARTUP_REPEATS = 3
FAMILY_ITERATIONS = 5       # iterations per single-family run in the traced run


def machine_facts() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }


@dataclass
class Inputs:
    """One set-up's outputs: the cohort and what the checks need to know about it."""

    cohort: Path
    heart_rates: dict
    injected: dict | None = None
    features: Path | None = None    # evaluate_weak extracts in set-up


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    extract_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    auroc_all: float | None = None

    def stage(self, run, operations: int, times: list) -> bool:
        """Count one CLI stage; a non-zero exit fails all of its operations."""
        self.attempted += operations
        times.append(run.wall_s)
        self.peak_rss_mb = max(self.peak_rss_mb, run.peak_rss_mb)
        if run.exit_code != 0:
            self.failed += operations
            return False
        return True


class Bench:
    """One workload at one seed, inside a fresh work directory."""

    def __init__(self, workload: cohorts.Workload, sizes: cohorts.Sizes, seed: int,
                 run_dir: Path):
        self.w = workload
        self.sizes = sizes
        self.seed = seed
        self.run_dir = run_dir
        self.work = run_dir / "work"
        self.log = run_dir / "cli.log"
        self.catalog = checks.catalog(ROOT)
        self.expected_patients = cohorts.patient_ids(sizes)
        self.config = cohorts.quick_start_config(sizes)
        self.config_path = self.work / "config.json"
        self.work.mkdir(parents=True)
        self.config_path.write_text(json.dumps(self.config) + "\n")
        self.evaluate_ops = sizes.n_iter * len(FAMILIES)
        self.reference: Path | None = None     # the first round's outputs
        self.degenerate = 0                     # degenerate iterations x families per round

    # --- program calls -------------------------------------------------------

    def cli(self, *args: str):
        return run_cli(list(args), SRC, self.log)

    def in_process_cli(self, *args: str) -> float:
        """Run the CLI's main() in this process; returns wall seconds."""
        with open(self.log, "a") as log, contextlib.redirect_stdout(log):
            start = time.perf_counter()
            code = cli.main(list(args))
            wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"in-process ppgtriage {args[0]} exited {code}")
        return wall

    def extract_args(self, cohort: Path, out: Path, workers: int) -> list[str]:
        return ["extract", "--manifest", str(cohort / "manifest.json"),
                "--config", str(self.config_path), "--out", str(out), "--workers", str(workers)]

    def evaluate_args(self, features: Path, out: Path, workers: int) -> list[str]:
        return ["evaluate", "--matrix", str(features / "features.csv"),
                "--config", str(self.config_path), "--screening",
                str(features / "screening.json"), "--out", str(out),
                "--workers", str(workers)]

    # --- inputs --------------------------------------------------------------

    def generate(self, out: Path, in_process: bool = False) -> Inputs:
        """Make the workload's cohort with the program, as a user would.

        paper_flow runs ``ppgtriage synth`` (``in_process``: its main() at one
        worker); the others generate with the synth API and write_cohort.
        """
        if self.w.name == "paper_flow":
            spec_path = self.work / "spec.json"
            spec_path.write_text(json.dumps(cohorts.quick_start_spec(self.sizes, self.seed)))
            if in_process:
                self.in_process_cli("synth", "--spec", str(spec_path), "--out", str(out),
                                    "--workers", "1")
            else:
                run = self.cli("synth", "--spec", str(spec_path), "--out", str(out),
                               "--workers", str(CLI_WORKERS))
                if run.exit_code != 0:
                    raise RuntimeError(f"ppgtriage synth exited {run.exit_code}")
            return Inputs(out, cohorts.class_heart_rates(self.sizes))
        if self.w.name == "evaluate_weak":
            recordings, rates = cohorts.weak_cohort(self.sizes, self.seed)
            write_cohort(recordings, out)
            return Inputs(out, rates)
        recordings, plan, rates = cohorts.artifact_cohort(self.sizes, self.seed)
        write_cohort(recordings, out)
        return Inputs(out, rates, injected=plan)

    def check_cohort(self, inputs: Inputs) -> list[dict]:
        return checks.check_cohort(inputs.cohort, self.sizes, self.expected_patients)

    def check_extract(self, inputs: Inputs, entries: list[dict], features: Path) -> None:
        checks.check_extract(features, entries, self.sizes, inputs.heart_rates, self.catalog,
                             inputs.injected)

    def check_report(self, results: Path) -> tuple[float, int]:
        return checks.check_report(results, self.config, self.catalog, self.w.auroc_range,
                                   self.w.auroc_open)

    # --- the timed run -------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        tally = Tally()
        setup_s, sets = [], []
        for k in range(self.sizes.setups):
            start = time.perf_counter()
            inputs = self.generate(self.work / f"cohort{k}")
            if self.w.name == "evaluate_weak":
                inputs.features = self.work / f"features{k}"
                run = self.cli(*self.extract_args(inputs.cohort, inputs.features, CLI_WORKERS))
                tally.stage(run, self.sizes.n_patients, tally.extract_s)
            setup_s.append(time.perf_counter() - start)
            sets.append(inputs)
        first = sets[0]
        entries = self.check_cohort(first)
        for other in sets[1:]:
            require_same_tree(first.cohort, other.cohort, "cohort set-ups")
            if first.features is not None:
                require_same_tree(first.features, other.features, "set-up extracts")
            shutil.rmtree(other.cohort)
        if first.features is not None:
            self.check_extract(first, entries, first.features)

        rounds = 0
        start = time.perf_counter()
        while True:
            self.round(first, entries, rounds, tally)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "extract_s": (statistics.median(tally.extract_s), "s"),
            "evaluate_s": (statistics.median(tally.evaluate_s), "s"),
            "peak_rss_mb": (tally.peak_rss_mb, "MB"),
            "auroc_all": (tally.auroc_all, "ratio"),
        }
        detail = {"rounds": rounds, "setup_s": setup_s, "extract_s": tally.extract_s,
                  "evaluate_s": tally.evaluate_s}
        return _result(tally, metrics, detail)

    def round(self, inputs: Inputs, entries: list[dict], index: int, tally: Tally) -> None:
        """One round of the workload's timed stages; checks the first round in
        full and requires every later round to repeat its bytes."""
        out = self.work / f"round{index}"
        features = inputs.features
        if features is None:
            features = out / "features"
            run = self.cli(*self.extract_args(inputs.cohort, features, CLI_WORKERS))
            if not tally.stage(run, self.sizes.n_patients, tally.extract_s):
                tally.attempted += self.evaluate_ops
                tally.failed += self.evaluate_ops
                return
        results = out / "results"
        run = self.cli(*self.evaluate_args(features, results, CLI_WORKERS))
        if not tally.stage(run, self.evaluate_ops, tally.evaluate_s):
            return
        if index == 0:
            if inputs.features is None:
                self.check_extract(inputs, entries, features)
            tally.auroc_all, self.degenerate = self.check_report(results)
            self.reference = out
        else:
            require_same_tree(self.reference, out, f"round {index} outputs")
            shutil.rmtree(out)
        tally.failed += self.degenerate

    # --- the traced run ------------------------------------------------------

    def traced(self) -> tuple[dict, Tracer]:
        tally = Tally()
        tracer, watch = Tracer(), Tracer()
        metrics = {}

        startup = []
        for _ in range(STARTUP_REPEATS):
            run = run_cli(["--help"], SRC, self.log)
            startup.append(run.wall_s)
        metrics["cli.startup_s"] = (statistics.median(startup), "s")

        plain = self.generate(self.work / "cohort")
        with tracer.installed("setup"):
            self.generate(self.work / "cohort_traced", in_process=True)
        require_same_tree(plain.cohort, self.work / "cohort_traced", "traced set-up")
        shutil.rmtree(self.work / "cohort_traced")
        entries = self.check_cohort(plain)
        metrics["io.sample_mb"] = (sum((plain.cohort / e["sample_file"]).stat().st_size
                                       for e in entries) / 1e6, "MB")

        features, traced_features = self.work / "features", self.work / "features_traced"
        with watch.installed("w1", [("ppgtriage.cli", "extract_cohort", "w1.extract", None)]):
            untraced_extract = self.in_process_cli(*self.extract_args(plain.cohort, features, 1))
        with tracer.installed("extract"):
            traced_extract = self.in_process_cli(
                *self.extract_args(plain.cohort, traced_features, 1))
        tally.attempted += self.sizes.n_patients
        require_same_tree(features, traced_features, "traced extract")
        self.check_extract(plain, entries, traced_features)
        config = load_config(self.config_path)
        start = time.perf_counter()
        matrix, screening = extract_cohort(plain.cohort / "manifest.json", config, workers=2)
        w2_extract = time.perf_counter() - start
        matrix.to_csv(self.work / "features_w2.csv")
        _require_same_bytes(features / "features.csv", self.work / "features_w2.csv",
                            "features.csv at 2 workers")
        metrics["pipeline.extract_speedup_2w"] = (watch.total("w1.extract") / w2_extract,
                                                  "ratio")

        results, traced_results = self.work / "results", self.work / "results_traced"
        with watch.installed("w1", [("ppgtriage.cli", "run_experiment", "w1.evaluate", None)]):
            untraced_evaluate = self.in_process_cli(*self.evaluate_args(features, results, 1))
        with tracer.installed("evaluate"):
            traced_evaluate = self.in_process_cli(
                *self.evaluate_args(features, traced_results, 1))
        tally.attempted += self.evaluate_ops
        require_same_tree(results, traced_results, "traced evaluate")
        tally.auroc_all, degenerate = self.check_report(traced_results)
        tally.failed += degenerate
        matrix = FeatureMatrix.from_csv(features / "features.csv")
        screening = json.loads((features / "screening.json").read_text())
        kwargs = dict(train_fraction=config.train_fraction, lam=config.lam,
                      rfe_k=config.rfe_k, seed=config.seed, metric_level=config.metric_level)
        start = time.perf_counter()
        report = run_experiment(matrix, n_iter=config.n_iter, families=FAMILIES,
                                screening=screening, workers=2, **kwargs)
        w2_evaluate = time.perf_counter() - start
        write_report(report, self.work / "report_w2.json")
        _require_same_bytes(results / "report.json", self.work / "report_w2.json",
                            "report.json at 2 workers")
        metrics["evaluate.speedup_2w"] = (watch.total("w1.evaluate") / w2_evaluate, "ratio")
        iterations = min(FAMILY_ITERATIONS, config.n_iter)
        for family in FAMILIES:
            start = time.perf_counter()
            run_experiment(matrix, n_iter=iterations, families=(family,), workers=1, **kwargs)
            metrics[f"evaluate.iter_s.{family}"] = (
                (time.perf_counter() - start) / iterations, "s")

        metrics.update(tracer.layer_metrics())
        metrics["trace.extract_overhead_s"] = (traced_extract - untraced_extract, "s")
        metrics["trace.evaluate_overhead_s"] = (traced_evaluate - untraced_evaluate, "s")
        detail = {"untraced_extract_s": untraced_extract, "traced_extract_s": traced_extract,
                  "untraced_evaluate_s": untraced_evaluate,
                  "traced_evaluate_s": traced_evaluate, "startup_s": startup,
                  "spans": len(tracer.spans)}
        return _result(tally, metrics, detail), tracer


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def require_same_tree(a: Path, b: Path, what: str) -> None:
    ta, tb = _tree(a), _tree(b)
    require(ta.keys() == tb.keys(), f"{what}: file lists differ")
    for name in ta:
        require(ta[name] == tb[name], f"{what}: {name} differs")


def _require_same_bytes(a: Path, b: Path, what: str) -> None:
    require(a.read_bytes() == b.read_bytes(), f"{what}: bytes differ")


def _result(tally: Tally, metrics: dict, detail: dict) -> dict:
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
            "detail": detail}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        keep: bool = False) -> tuple[dict, Bench]:
    """Run one workload; returns the run's record and its Bench.

    The work directory (cohorts and outputs) is deleted unless ``keep``.
    """
    w = cohorts.WORKLOADS[workload]
    sizes = w.scaled(tiny)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(w, sizes, seed, run_dir)
    facts = machine_facts()
    correct, reason = True, None
    outcome = {"attempted": 0, "failed": 0, "metrics": {}, "detail": {}}
    try:
        if trace:
            outcome, tracer = bench.traced()
            tracer.write(run_dir / "spans.json")
        else:
            outcome = bench.timed(seconds)
    except CheckFailed as exc:
        correct, reason = False, str(exc)
    finally:
        if not keep:
            shutil.rmtree(bench.work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": vars(sizes), "machine": facts, "correct": correct, "reason": reason,
        **outcome,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    return record, bench
