"""Host provenance for benchmark records.

Every benchmark report and committed baseline carries a ``_meta`` block
describing the machine that produced the numbers — which CPU, which
Python, which BLAS-bearing numpy — so a wall-clock comparison can be
judged against the host it was recorded on.
"""

from __future__ import annotations

import os
import platform
import time


def host_metadata() -> dict:
    """Provenance of a timing: machine, interpreter, BLAS-bearing numpy."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "recorded_unix": round(time.time(), 1),
    }
