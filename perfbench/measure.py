"""Statistics and record helpers shared by the benchmark's processes.

Stdlib only at import time: ``run.py`` imports this module before any
worker has checked that the ``repro`` sources are present.
"""

from __future__ import annotations

import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Grammar of a metric name: starts with a letter or digit, at most 64
#: characters from ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a distribution.
MIN_TAIL_SAMPLES = 10

#: Thread-count environment variables that change BLAS/OpenMP behaviour.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


#: Time the speed gauge (``gauge.SpeedGauge``) takes on the reference machine.
REFERENCE_GAUGE_S = 0.025

#: How strongly the workloads follow the gauge when the machine slows down:
#: a slowdown that makes the gauge ``x`` times slower makes them about
#: ``x ** GAUGE_ELASTICITY`` times slower.  Measured on a shared 2-vCPU KVM
#: guest (Xeon, 2.1 GHz): regressing the median operation time of 10-20 s
#: windows on the median gauge time gave slopes of 0.6-0.85 (log-log) over
#: a 7-minute mix of cold SCC-die specs and 320-step case-study transients, and
#: 0.7 flattened ten ``sweep_cold`` runs best.  Scaling by the full gauge
#: ratio over-corrects.  Those fits ran the gauge inside the worker; with
#: the gauge in its own process the ``serve_mixed`` hit path moves 1.3-2
#: times as much as the gauge, but no exponent tried (0.7, 1.0, 1.3) made
#: both workloads steadier than 0.7 does (README.md).
GAUGE_ELASTICITY = 0.7


def reference_factor(gauge_samples: Sequence[float]) -> float:
    """Factor that turns a raw duration into one at reference speed.

    ``(REFERENCE_GAUGE_S / median gauge time) ** GAUGE_ELASTICITY``: the
    median keeps one disturbed sample from moving it.
    """
    return (REFERENCE_GAUGE_S / statistics.median(gauge_samples)) ** GAUGE_ELASTICITY


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` if it breaks the grammar."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``q`` an integer in 1..100).

    Integer arithmetic throughout, so the rank of p99 over 1000 samples is
    exactly 990 and never drifts by a floating-point ulp.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 1 <= q <= 100:
        raise ValueError(f"percentile level {q!r} outside 1..100")
    ordered = sorted(values)
    rank = (q * len(ordered) + 99) // 100
    return ordered[rank - 1]


def samples_beyond(count: int, q: int) -> int:
    """Number of samples strictly above the nearest-rank ``q``-th percentile."""
    return count - (q * count + 99) // 100


def tail_percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else None


def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and toolchain facts that make two records comparable.

    Imports NumPy and SciPy, so only call it from a worker process.
    """
    import numpy
    import scipy

    blas: Dict[str, object] = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # older NumPy without mode="dicts"
        pass
    try:
        load_average: Optional[List[float]] = list(os.getloadavg())
    except OSError:
        load_average = None
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "git_commit": _git_commit(root),
        "load_average": load_average,
    }
