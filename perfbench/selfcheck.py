"""Fast self-check of the benchmark on tiny cohorts.

    python3 perfbench/selfcheck.py

Runs every workload end to end at its tiny size (timed and traced), requires
the metric names to match BENCHMARK.json, then tampers with copies of the
outputs and requires each check to reject them. Exits 0 when all pass.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import bench, checks, cohorts  # noqa: E402

SEED = 3


def expect_rejected(what: str, check) -> None:
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"ok   rejects {what}: {exc}")
        return
    raise SystemExit(f"FAIL the checks accepted {what}")


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_rows(path: Path, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def tamper_tests(flow: bench.Bench, artifact: bench.Bench) -> None:
    sizes, feature_catalog = flow.sizes, flow.catalog
    cohort = flow.work / "cohort0"
    features = flow.reference / "features"
    results = flow.reference / "results"
    inputs = bench.Inputs(cohort, cohorts.class_heart_rates(sizes))
    entries = flow.check_cohort(inputs)
    scratch = flow.run_dir / "tampered"

    def fresh(src: Path) -> Path:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(src, scratch)
        return scratch

    def extract_check(path: Path, run=flow, inputs_=inputs, entries_=entries):
        return lambda: run.check_extract(inputs_, entries_, path)

    path = fresh(cohort)
    sample = path / entries[0]["sample_file"]
    sample.write_bytes(sample.read_bytes().split(b"\n", 1)[1])
    expect_rejected("a sample file one line short",
                    lambda: checks.check_cohort(path, sizes, flow.expected_patients))

    path = fresh(features)
    edit_rows(path / "features.csv", lambda rows: rows.pop(2))
    expect_rejected("a missing window row", extract_check(path))

    path = fresh(features)
    age = 3 + [name for name, _ in feature_catalog].index("Age")
    edit_rows(path / "features.csv", lambda rows: rows[1].__setitem__(age, "33.0"))
    expect_rejected("an Age column that is not the manifest's", extract_check(path))

    path = fresh(results)
    edit_json(path / "report.json", lambda doc: doc["families"]["ALL"]["window"]["metrics"]
              ["auroc"].__setitem__("median", 0.97))
    expect_rejected("an altered AUROC median",
                    lambda: flow.check_report(path))

    path = fresh(results)

    def add_selection(doc):
        freq = doc["families"]["MOR"]["selection_frequency"]
        freq[next(iter(freq))] += 1
    edit_json(path / "report.json", add_selection)
    expect_rejected("a selection count off by one", lambda: flow.check_report(path))

    path = fresh(results)
    edit_json(path / "report.json", lambda doc: doc["families"]["ALL"]["window"]
              .__setitem__("n_iterations", 0))
    expect_rejected("a wrong iteration count", lambda: flow.check_report(path))

    path = fresh(results)
    (path / "roc_ALL.csv").write_text("fpr,tpr_median,tpr_p25,tpr_p75\n")
    expect_rejected("outputs that differ between rounds",
                    lambda: bench.require_same_tree(results, path, "rounds"))

    # artifact screening: a kept artifact window, and a step with the wrong reason
    a_cohort = artifact.work / "cohort0"
    a_features = artifact.reference / "features"
    plan = cohorts.artifact_plan(artifact.sizes, artifact.seed)
    a_inputs = bench.Inputs(a_cohort, cohorts.class_heart_rates(artifact.sizes), plan)
    a_entries = artifact.check_cohort(a_inputs)
    (pid, widx), _ = next(iter(plan.items()))

    path = fresh(a_features)

    def keep_window(doc):
        for rec in doc["recordings"]:
            for w in rec["windows"]:
                if (rec["patient_id"], w["window_index"]) == (pid, widx):
                    w["verdict"] = "kept"
        doc["kept"] += 1

    def add_row(rows):
        source = next(r for r in rows[1:] if r[0] == pid)
        rows.append([pid, str(widx)] + source[2:])
    edit_json(path / "screening.json", keep_window)
    edit_rows(path / "features.csv", add_row)
    expect_rejected("a kept artifact window",
                    extract_check(path, artifact, a_inputs, a_entries))

    step = next(key for key, kind in plan.items() if kind == cohorts.STEP)
    path = fresh(a_features)

    def relabel(doc):
        for rec in doc["recordings"]:
            for w in rec["windows"]:
                if (rec["patient_id"], w["window_index"]) == step:
                    w["verdict"] = "too_few_beats"
    edit_json(path / "screening.json", relabel)
    expect_rejected("a step rejected for another reason than amplitude modulation",
                    extract_check(path, artifact, a_inputs, a_entries))
    shutil.rmtree(scratch)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    kept = {}
    for workload in cohorts.WORKLOADS:
        for trace in (0, 1):
            record, run = bench.run(workload, SEED, 1.0, bool(trace), tiny=True,
                                    keep=not trace)
            if not record["correct"]:
                raise SystemExit(f"FAIL {workload} trace={trace}: {record['reason']}")
            got = set(record["metrics"])
            if got != want[trace]:
                raise SystemExit(f"FAIL {workload} trace={trace}: metrics "
                                 f"{sorted(got ^ want[trace])} differ from BENCHMARK.json")
            if record["failed"] != 0:
                raise SystemExit(f"FAIL {workload} trace={trace}: {record['failed']} failed")
            print(f"ok   {workload} trace={trace}: {record['attempted']} operations checked")
            if not trace:
                kept[workload] = run
    tamper_tests(kept["paper_flow"], kept["extract_artifact"])
    for run in kept.values():
        shutil.rmtree(run.work, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
