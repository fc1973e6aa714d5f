"""Process environment of a benchmark run: where the lab is, BLAS threads, records.

Stdlib only: `prepare` must run before numpy is first imported, because
OpenBLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The hot paths (SuperLU, ARPACK, sparse products) are single-threaded; one
# BLAS thread keeps idle pool threads from competing for the 2 shared cores.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make `import elastica` load the checkout's sources.

    Exits with status 1 when the checkout holds no `src/elastica`, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "elastica" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no elastica sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import elastica

    if Path(elastica.__file__).resolve().parent != SRC / "elastica":
        raise SystemExit(f"perfbench: imported elastica from {elastica.__file__}")
    OUT.mkdir(exist_ok=True)


def record(load_1min: float) -> dict:
    """Versions, core count, BLAS threads and the load average at start."""
    import numpy
    import scipy

    def blas(module):
        dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "load_1min": load_1min,
    }
