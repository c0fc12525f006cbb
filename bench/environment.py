"""What the numbers were measured on: workers, BLAS threads, cores and library versions."""

import ctypes
import os
import platform

import numpy as np
import scipy

# Read-only getter exported by the OpenBLAS that numpy wheels bundle.  The
# benchmark reads the BLAS thread count and never sets it.
_GETTER = "scipy_openblas_get_num_threads64_"


def blas_threads():
    """numpy's OpenBLAS thread count, or "unknown" when no loaded library exports the getter."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter = getattr(lib, _GETTER, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workers": os.cpu_count() or 1,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }
