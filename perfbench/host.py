"""Host fingerprint: which machine a set of numbers came from.

A ratio between runs on different hosts measures the hosts, not the
code, so every result carries the fingerprint and
:func:`comparable` refuses to compare across different ones.  The git
revision is recorded beside the fingerprint but is not part of it:
comparing two revisions on one host is the point of the benchmark.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

FINGERPRINT_KEYS = ("cpu_count", "cpu_model", "platform", "python")


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return platform.processor() or "unknown"
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def git_rev(root: Path) -> str:
    """``<short rev>[-dirty]``, or ``unknown`` outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{rev}-dirty" if dirty else rev


def comparable(a: dict, b: dict) -> str | None:
    """``None`` when two fingerprints match, else why they differ."""
    differences = [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in FINGERPRINT_KEYS
        if a.get(key) != b.get(key)
    ]
    if not differences:
        return None
    return "different hosts (" + "; ".join(differences) + ")"
