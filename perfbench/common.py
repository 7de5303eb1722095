"""Shared plumbing of the benchmark: paths, environment, statistics.

Importing this module pins BLAS to one thread (before NumPy can load)
and puts the checkout's ``src/`` on ``sys.path``; it starts nothing and
touches no file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this
#: directory); every file the benchmark reads or writes lives below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Benchmark output (stores, traces, side files); listed in .gitignore.
OUT_DIR = ROOT / ".perfbench"

#: Environment every process the benchmark starts runs under.  Single-
#: thread BLAS: on a 2-core box per-process OpenBLAS pools oversubscribe
#: and widen the training-event tail.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "SIBYL_OBS": "off"}

# Every program knob (backend, lanes, parallelism, store, serve and trace
# settings) takes its default: none leaks in from the caller's shell.
for _key in [k for k in os.environ if k.startswith("SIBYL_")]:
    del os.environ[_key]
os.environ.update(PINNED_ENV)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

#: The seed whose per-cell digests are recorded in ``golden.json``.
DEFAULT_SEED = 0


def child_env() -> Dict[str, str]:
    """Environment for a subprocess running program code."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


# ------------------------------------------------------------ statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ------------------------------------------------------------ digests
def canonical(obj: Any) -> Any:
    """JSON-able form with every float kept exactly (``float.hex``)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and not isinstance(obj, str):
        obj = obj.item()  # numpy scalar
    if isinstance(obj, float):
        return obj.hex()
    return obj


def digest(obj: Any) -> str:
    """Float-exact SHA-256 of a result structure."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(path=None) -> Dict[str, Any]:
    """Recorded default-seed digests (``golden.json`` unless ``path``)."""
    with open(path or BENCH_DIR / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ process facts
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has consumed."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def cpu_with_children() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    A child's time counts once it has been waited for, so read this
    after a process pool has been joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibration_probe() -> float:
    """Milliseconds for a fixed pure-Python + NumPy reference loop.

    Recorded with every run so figures from differently loaded boxes
    can be compared; it exercises nothing of the program.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((64, 64))
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(200):
        a = np.tanh(a @ a.T * 1e-2)
    return (time.perf_counter() - t0) * 1e3


def environment_record() -> Dict[str, Any]:
    """Box and toolchain facts stored next to every result."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name', '?')} {blas_info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": dict(PINNED_ENV),
        "calibration_ms": round(calibration_probe(), 3),
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The JSON object the benchmark prints as its last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
