"""Benchmark of the ppgtriage CLI flow: synth -> extract -> evaluate.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. With ``--trace 0`` the run sets up the
workload's inputs several times, then repeats whole rounds of its CLI stages
(as child processes, ``--workers 2``) for about ``--seconds`` seconds and
prints the end-to-end metrics. With ``--trace 1`` it runs each stage once in
this process at one worker with every layer wrapped in spans, and prints the
per-layer metrics. Either way every output is checked, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans, machine facts and the result go to perfbench/out/<run>/; generated
cohorts are deleted when the run ends. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ppgtriage"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: program sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(PACKAGE.parent)]   # not the script directory
    from perfbench import bench, cohorts

    if Path(bench.cli.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported ppgtriage from {bench.cli.__file__}", file=sys.stderr)
        return 2
    if args.workload not in cohorts.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(cohorts.WORKLOADS)}")

    record, _ = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": record["machine"], "detail": record["detail"]}))
    if not record["correct"]:
        print(f"check failed: {record['reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
