"""Start-up shared by the benchmark's entry scripts.

`prepare()` must run before numpy is imported: it pins the BLAS/OpenMP
thread pools to the number of usable cores, whatever the caller's
environment holds, and puts the checkout's own `src/` first on the import
path, so the benchmark always measures the code it was checked out with,
never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def prepare():
    if not (SRC / "genecluster" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))


def environment():
    """What the numbers depend on besides the code: cores, CPU, versions, threads."""
    import platform

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }
