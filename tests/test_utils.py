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


def test_synth_path_loads_no_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_positive": 1, "n_negative": 1, "duration_s": 12.0, "fs": 100.0, '
                    '"positive": {"hr_ar": 0.5}, "seed": 2}')
    run = _run(f"""
        import sys
        import ppgtriage.synth
        from ppgtriage import cli
        code = cli.main(["synth", "--spec", {str(spec)!r}, "--out", {str(tmp_path / "c")!r},
                         "--workers", "1"])
        assert code == 0, code
        loaded = [m for m in ("scipy.stats", "scipy.signal", "scipy.ndimage") if m in sys.modules]
        assert not loaded, loaded
    """)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "c" / "manifest.json").is_file()


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("argv, libraries", [
    (["evaluate", "--matrix", "missing.csv", "--out", "unused"], 1),
    (["extract", "--manifest", "missing.json", "--out", "unused"], 2),     # numpy's and scipy's
])
def test_cli_process_runs_one_blas_thread(argv, libraries):
    """The CLI limits its own process to one BLAS thread once the stage's
    libraries are loaded, as pool workers already are."""
    run = _run(f"""
        import ctypes
        from ppgtriage import cli
        assert cli.main({argv!r}) in (2, 3)
        with open("/proc/self/maps") as fh:
            paths = {{l.split(None, 5)[5].strip() for l in fh if "openblas" in l}}
        assert len(paths) >= {libraries}, paths
        getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads")
        for path in paths:
            lib = ctypes.CDLL(path)
            getter = next(getattr(lib, name) for name in getters if hasattr(lib, name))
            assert getter() == 1, path
    """)
    assert run.returncode == 0, run.stderr
