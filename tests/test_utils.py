import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ppgtriage import utils

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=SRC,
                          capture_output=True, text=True, timeout=120)


def test_evaluate_path_loads_no_scipy():
    run = _run("""
        import sys
        import ppgtriage, ppgtriage.cli, ppgtriage.evaluate, ppgtriage.model, ppgtriage.features
        loaded = [m for m in ("scipy.stats", "scipy.signal", "scipy.ndimage") if m in sys.modules]
        assert not loaded, loaded
        from ppgtriage import extract_matrix, run_experiment
        assert callable(extract_matrix) and callable(run_experiment)
        assert "scipy.signal" in sys.modules
    """)
    assert run.returncode == 0, run.stderr


def test_package_exports_resolve():
    import ppgtriage

    for name in ppgtriage.__all__:
        assert getattr(ppgtriage, name) is not None
    assert set(ppgtriage.__all__) <= set(dir(ppgtriage))


def test_blas_initializer_is_noop_without_openblas():
    run = _run("""
        import sys
        from ppgtriage.utils import single_thread_blas
        single_thread_blas()
        assert "numpy" not in sys.modules
    """)
    assert run.returncode == 0, run.stderr


def test_blas_initializer_skips_libraries_without_the_setter(monkeypatch):
    monkeypatch.setattr(utils, "_BLAS_THREAD_SETTERS", ("no_such_blas_symbol",))
    utils.single_thread_blas()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_blas_initializer_sets_one_thread():
    run = _run("""
        import ctypes
        import numpy
        from ppgtriage.utils import single_thread_blas
        with open("/proc/self/maps") as fh:
            paths = {l.split(None, 5)[5].strip() for l in fh if "openblas" in l}
        getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads")
        single_thread_blas()
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in getters:
                if hasattr(lib, name):
                    assert getattr(lib, name)() == 1, (path, name)
                    break
    """)
    assert run.returncode == 0, run.stderr
