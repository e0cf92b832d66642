"""Running the program: CLI stages as child processes, timed with their peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class StageRun:
    wall_s: float
    exit_code: int
    peak_rss_mb: float      # largest resident set of the CLI process or any worker it waited for


def cli_env(src: Path) -> dict:
    """The caller's environment with the checkout's sources first on the path.

    No BLAS or thread-count variable is set or removed: the program sees what a
    user's shell would give it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_cli(args: list[str], src: Path, log_path: Path) -> StageRun:
    """Run ``python -m ppgtriage.cli <args>`` and wait for it and its workers.

    ``os.wait4`` reports the child's resource usage including every descendant
    it reaped, so ``ru_maxrss`` is the peak of the CLI process and its pool
    workers, not of this benchmark process.
    """
    argv = [sys.executable, "-m", "ppgtriage.cli", *args]
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(args) + "\n").encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=cli_env(src))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:     # interrupted: leave no stage running behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(wall_s=wall, exit_code=proc.returncode,
                    peak_rss_mb=usage.ru_maxrss / 1024.0)
