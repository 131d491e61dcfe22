"""Host fingerprint, memory high-water marks and shared-memory
segment listing."""

from __future__ import annotations

import os
import platform
import resource
from pathlib import Path

#: Name prefix of the serving transport's shared-memory segments.
SHM_PREFIX = "repro"
SHM_DIR = Path("/dev/shm")


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = root / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()[:12]
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0][:12]
            return "unknown"
        return text[:12]
    except OSError:
        return "unknown"


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(root: Path) -> dict:
    import numpy as np

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "machine": platform.machine(),
        "git_rev": git_rev(root),
    }


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (plus the largest reaped
    child's, when asked) in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def shm_segments() -> set:
    """Names of the serving transport's segments currently present."""
    try:
        return {
            entry.name
            for entry in os.scandir(SHM_DIR)
            if entry.name.startswith(SHM_PREFIX)
        }
    except OSError:
        return set()
