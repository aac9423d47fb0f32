"""The machine record printed with every result."""

import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread unless the caller set otherwise; must run before
    numpy is imported.  The run is one closed loop in one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def record():
    """Versions, thread settings, memory, and the CPU model and cache sizes
    the kernel reports under /proc and /sys."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "platform": platform.platform(),
    }
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            out["cpu"] = line.split(":", 1)[1].strip()
            break
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if kind in ("Data", "Unified"):
            size = _read(f"{base}/{index}/size").strip()
            cpus = _read(f"{base}/{index}/shared_cpu_list").strip()
            out[f"L{level}"] = f"{size} shared by cpus {cpus}"
    return out
