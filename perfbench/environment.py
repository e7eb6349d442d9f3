"""The environment block recorded beside every result."""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """One thread for every numpy/BLAS pool; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def cache_bytes() -> Dict[str, int]:
    """Unified/data cache sizes of cpu0 by level, e.g. {"L2": 2097152}."""
    out: Dict[str, int] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        kind = _read(os.path.join(base, entry, "type"))
        if kind == "Instruction":
            continue
        level = _read(os.path.join(base, entry, "level"))
        out[f"L{level}"] = _size_bytes(_read(os.path.join(base, entry,
                                                          "size")))
    return out


def filesystem(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in _read("/proc/mounts").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def _threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def block(out_dir: str) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_bytes(),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": _threads(),
        "output_filesystem": filesystem(out_dir),
        "platform": sys.platform,
    }
