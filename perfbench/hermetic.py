"""A clean process environment for every run, and a record of the machine.

Each workload runs in a fresh interpreter whose environment holds no
``REPRO_*`` variable (a stray ``REPRO_MATRIX_BUDGET_MB`` or
``REPRO_VERIFY_DTYPE`` changes the work done), whose
``REPRO_BENCH_RESULTS_DIR`` points at an empty directory (``refresh()``
without ``batch_size`` reads any ``BENCH_fig3_*.json`` it can find
there), and whose working directory is a fresh temporary one.  String
hashing is pinned so the result cache's stripe layout is the same on
every run, and BLAS runs one thread, so that on a two-CPU machine the
daemon and its load generator each keep to one CPU.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: Variables pinned for every benchmark process.
PINNED = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def clean_env(root: Path, results_dir: Path) -> dict[str, str]:
    """The environment a workload process starts with."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in ("PYTHONPATH",)}
    env.update(PINNED)
    env["REPRO_BENCH_RESULTS_DIR"] = str(results_dir)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _openblas():
    """The OpenBLAS library numpy loaded, or ``None``."""
    import numpy

    base = Path(numpy.__file__).resolve().parent
    for pattern in ("../numpy.libs/*openblas*", ".libs/*openblas*"):
        for path in glob.glob(str(base / pattern)):
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def blas_record() -> dict:
    """BLAS library name, build string and the threads it will use."""
    import numpy

    record: dict = {"library": None, "config": None, "threads": None}
    try:
        record["library"] = numpy.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    lib = _openblas()
    if lib is not None:
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    record["threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    record["config"] = config().decode()
                if threads is not None:
                    return record
    return record


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (file names and bytes), for non-git checkouts."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root: Path) -> str | None:
    """``git rev-parse HEAD`` when the checkout is a repository."""
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment_record(root: Path) -> dict:
    """What a result needs to be compared with another machine's."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_record(),
        "commit": commit(root),
        "src_sha256": source_digest(root),
        "pinned_env": {key: os.environ.get(key) for key in PINNED},
    }
