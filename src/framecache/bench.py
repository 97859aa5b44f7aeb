"""Per-scenario cost of a run: wall time and traced peak memory, as JSON.

Each selected scenario runs twice in this process: once untraced, timed
with perf_counter, and once under tracemalloc, which gives the peak of
the bytes it allocated (numpy reports its array buffers to tracemalloc).
Neither pass writes the scenario's tables. The result also records the
environment the numbers were taken in, so two files can be compared.
"""

import ctypes
import json
import os
import platform
import subprocess
import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import harness

__all__ = ["environment", "run_bench"]


def _openblas(name: str, restype):
    """OpenBLAS's <name>() from the library bundled with numpy's wheel, or
    None where numpy bundles no OpenBLAS that exports it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = restype
                return function()
    return None


def _git_commit() -> str:
    """The commit of the package's checkout, with a -dirty suffix if a
    tracked file differs from it; "unknown" outside a git checkout."""
    here = Path(__file__).resolve().parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=here, timeout=30).returncode != 0
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def environment() -> dict:
    """Interpreter, numpy, BLAS, thread count, hash seed and commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = _openblas("get_corename", ctypes.c_char_p)
    threads = _openblas("get_num_threads", ctypes.c_int)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_core": core.decode() if core is not None else "unknown",
        "blas_threads": threads,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": _git_commit(),
    }


def _failure(name: str, cfg) -> str | None:
    """Run one scenario body, dropping its tables; the message of the
    ScenarioError that failed it, or None if it passed."""
    try:
        harness.SCENARIOS[name](cfg)
    except harness.ScenarioError as err:
        return str(err)
    return None


def run_bench(cfg, out_path, log=print) -> int:
    """Measure each scenario cfg selects and write the result to out_path
    as JSON; returns 1 if a scenario's checks failed, else 0. A config
    error raises ValueError before any scenario runs."""
    scenarios = {}
    for name in harness.selected_scenarios(cfg):
        start = time.perf_counter()
        failure = _failure(name, cfg)
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            _failure(name, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        status = "pass" if failure is None else "fail"
        scenarios[name] = {"status": status, "wall_s": wall, "tracemalloc_peak_bytes": peak}
        if failure is None:
            log(f"[PASS] {name}: {wall:.2f} s, {peak / 1e6:.1f} MB traced peak")
        else:
            log(f"[FAIL] {name}: {failure}")
    result = {"environment": environment(), "seed": cfg.seed, "scenarios": scenarios}
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return 1 if any(entry["status"] == "fail" for entry in scenarios.values()) else 0
