"""Host metadata stamped on every benchmark result."""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
from typing import Dict, Optional


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def git_revision(root: str) -> Dict[str, object]:
    """Commit and dirty flag of ``root`` itself; never of a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "--no-optional-locks", *args],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": "unknown", "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_dirty": bool(status) if status is not None else None}


def stamp(root: str, seed: int, pythonhashseed: str) -> Dict[str, object]:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        **git_revision(root),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "pythonhashseed": pythonhashseed,
        "workload_seed": seed,
    }
