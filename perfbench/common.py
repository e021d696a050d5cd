"""Shared plumbing for the perfbench workloads.

Statistics, the in-memory span recorder and its per-layer report,
process and shared-memory accounting for the leak check, and the
result stamp.  Nothing here imports :mod:`repro`; the workload modules
do, after ``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: Where runs write their reports, traces and scratch stores.
OUT_DIR = ROOT / ".perfbench_out"

#: Thread settings read (never written) for the result stamp.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for an empty sample."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------- #
# Reference kernels
# ---------------------------------------------------------------------- #
class ReferenceKernel:
    """A fixed unit of host work, timed right next to the work it calibrates.

    The shared host this benchmark runs on drifts by tens of percent in
    speed over seconds to minutes, on FFT-heavy work most.  Dividing a
    timing by this kernel's time, measured in the same process at the
    same moment, cancels that drift: the ratio moves when the program
    changes, not when the host does.  The kernel is one free-space
    propagation of a complex batch of ``shape`` (forward FFT, transfer
    function, inverse FFT) with the FFT module ``fft``: the designer
    loop's kind of work, on the same FFT code as the work it calibrates.
    """

    def __init__(self, shape: tuple, fft=np.fft):
        rng = np.random.default_rng(0)
        self._fft = fft
        self._field = rng.random(shape) + 1j * rng.random(shape)
        self._transfer = np.exp(2j * np.pi * rng.random(shape[-2:]))

    def time_s(self) -> float:
        """Seconds one run of the kernel takes."""
        start = time.perf_counter()
        self._fft.ifft2(self._fft.fft2(self._field) * self._transfer)
        return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed interval on the host-wide monotonic clock.

    ``key`` groups the spans of one request (or one designer-loop pass);
    ``parent`` names the layer whose interval contains this one.
    """

    layer: str
    key: str
    start: float
    end: float
    parent: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, layer: str, key: str, start: float, end: float, parent: Optional[str] = None) -> None:
        self.spans.append(Span(layer, key, start, end, parent))

    def durations_ms(self, layer: str) -> List[float]:
        return [span.ms for span in self.spans if span.layer == layer]

    def dump(self, path: Path) -> None:
        rows = [
            {"layer": s.layer, "key": s.key, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


def _covered_s(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_report(spans: Sequence[Span], root: str) -> dict:
    """Per-layer count, median, p99, self time and share of root time.

    A layer's self time is its span's duration minus the part of that
    interval covered by its child spans (spans of the same key whose
    ``parent`` is this layer).  ``unattributed_ms`` is the root's self
    time: traced wall time that no layer below the root accounts for.
    """
    by_key: Dict[str, List[Span]] = {}
    for span in spans:
        by_key.setdefault(span.key, []).append(span)
    rows: Dict[str, dict] = {}
    self_ms: Dict[str, List[float]] = {}
    root_total = 0.0
    for group in by_key.values():
        children: Dict[str, List[Span]] = {}
        for span in group:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        for span in group:
            kids = children.get(span.layer, [])
            covered = _covered_s(((k.start, k.end) for k in kids), span.start, span.end)
            self_ms.setdefault(span.layer, []).append(max(0.0, span.ms - covered * 1000.0))
            if span.layer == root:
                root_total += span.ms
    for layer in sorted(self_ms):
        durations = [span.ms for span in spans if span.layer == layer]
        rows[layer] = {
            "count": len(durations),
            "median_ms": median(durations),
            "p99_ms": percentile(durations, 99.0),
            "self_median_ms": median(self_ms[layer]),
            "self_total_ms": float(sum(self_ms[layer])),
            "share": float(sum(self_ms[layer]) / root_total) if root_total > 0 else 0.0,
        }
    root_self = self_ms.get(root, [])
    return {
        "root": root,
        "layers": rows,
        "unattributed_ms": median(root_self) if root_self else 0.0,
        "unattributed_share": rows[root]["share"] if root in rows else 0.0,
    }


def format_report(report: dict) -> str:
    """The per-layer table as aligned text (written next to the JSON)."""
    lines = [
        f"{'layer':<22}{'count':>7}{'median_ms':>11}{'p99_ms':>10}{'self_ms':>10}{'share':>8}",
    ]
    for layer, row in report["layers"].items():
        lines.append(
            f"{layer:<22}{row['count']:>7}{row['median_ms']:>11.3f}{row['p99_ms']:>10.3f}"
            f"{row['self_median_ms']:>10.3f}{row['share']:>8.3f}"
        )
    lines.append(
        f"{'unattributed_ms':<22}{'':>7}{report['unattributed_ms']:>11.3f}{'':>10}{'':>10}"
        f"{report['unattributed_share']:>8.3f}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Processes and shared memory
# ---------------------------------------------------------------------- #
def _proc_field(pid: int, name: str) -> Optional[int]:
    """A ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``) in kB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(name + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set size of ``pid`` (default: this process), MB."""
    kb = _proc_field(pid if pid is not None else os.getpid(), "VmHWM")
    return (kb or 0) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_pids(pid: Optional[int] = None) -> List[int]:
    """Every live descendant of ``pid`` (default: this process)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] == "Z":
            continue
        parent_of[int(entry)] = int(fields[1])
    root = pid if pid is not None else os.getpid()
    found: List[int] = []
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for child, parent in parent_of.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return sorted(found)


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def is_resource_tracker(pid: int) -> bool:
    """The ``multiprocessing`` resource tracker lives as long as this process."""
    return "resource_tracker" in cmdline(pid)


def leaked_children() -> List[int]:
    """Descendants left running, apart from the multiprocessing tracker."""
    return [pid for pid in child_pids() if not is_resource_tracker(pid)]


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker, if one was started, and reap it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def shm_segments() -> set:
    """Names currently present in ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------- #
# Result stamp
# ---------------------------------------------------------------------- #
def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _git_sha() -> Optional[str]:
    """HEAD of the checkout when it is itself a git work tree, else ``None``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_files() -> List[Path]:
    return sorted((ROOT / "src").rglob("*.py"))


def _blas_info(numpy_module) -> dict:
    """The BLAS build and thread settings numpy reports, without changing them."""
    info: dict = {"env": {name: os.environ.get(name) for name in THREAD_ENV}}
    try:
        config = numpy_module.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no mode="dicts"
        info["blas"] = None
    return info


def stamp() -> dict:
    """Provenance for a result: code version, host and library versions."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    digest = hashlib.sha256()
    lines = 0
    for path in _src_files():
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "usable_cores": usable_cores(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": _blas_info(numpy),
        "time_unix": time.time(),
    }


# ---------------------------------------------------------------------- #
# Run outcome
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: Reasons the measurement itself is not trustworthy (not wrong answers).
    invalid: List[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    #: The traced run's spans, written out once the run has ended.
    spans: Optional[SpanRecorder] = None
