"""Shared pieces of the benchmark: timing records, percentiles, memory, output."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: ``op_tail_ms`` is the highest percentile with at least this many samples
#: beyond it (the median when there are fewer than twice as many samples).
TAIL_MIN_BEYOND = 10

#: Ledger counters reported as per-operation deltas.
LEDGER_FIELDS = ("mac_ops", "elementwise_ops", "bytes_read", "bytes_written",
                 "cache_hits", "cache_misses", "cache_evictions")


@dataclasses.dataclass
class Op:
    """One timed operation: a GEMM call, a solve or a service request."""

    kind: str
    latency_s: float
    flops: float
    ok: bool = True
    rel_err: float = 0.0


@dataclasses.dataclass
class Window:
    """Everything one timed window produced, before and after its checks."""

    ops: List[Op]
    busy_s: float
    #: Same-run native and emulated seconds of the same products, timed
    #: back to back (the two sides of ``speedup_vs_native``).
    native_s: float = 0.0
    emulated_s: float = 0.0
    peak_rss_mb: float = 0.0
    ledger: Dict[str, float] = dataclasses.field(default_factory=dict)
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def tail(values_ms: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of the tail latency.

    The percentile is ``100 * (1 - TAIL_MIN_BEYOND / n)``, not a fixed
    ladder step: a mix of call shapes puts fixed steps on the boundary
    between two shapes' latencies, where the value jumps between runs.
    """
    import numpy as np

    n = len(values_ms)
    p = max(50.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / n))
    value = float(np.percentile(values_ms, p))
    beyond = sum(1 for v in values_ms if v > value)
    return p, value, beyond


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rel_err(value, ref) -> float:
    """Normwise relative error ``||value - ref||_F / ||ref||_F``."""
    import numpy as np

    scale = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(np.asarray(value, dtype=np.float64) - ref))
    return diff / scale if scale else diff


def fastest(fn, *args, reps: int = 3) -> float:
    """Fastest of ``reps`` timed calls: a same-run native reference time.

    Workloads time it right after the emulated call on the same operands,
    so host-speed drifts move both sides of ``speedup_vs_native`` alike.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def native_gflops(seed: int, reps: int = 21) -> Dict[str, float]:
    """Same-run native DGEMM/SGEMM GFLOP/s at 512^3 (fastest of ``reps``)."""
    from repro.baselines.native import native_dgemm, native_sgemm
    from repro.workloads.generators import phi_pair

    out = {}
    for name, gemm in (("fp64", native_dgemm), ("fp32", native_sgemm)):
        a, b = phi_pair(512, 512, 512, precision=name, seed=[seed, 7])
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            gemm(a, b)
            times.append(time.perf_counter() - start)
        out[f"native_gflops_{name}"] = 2.0 * 512**3 / min(times) / 1e9
    return out


# -- memory -------------------------------------------------------------------

def _status_kb(pid: str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        match = re.search(rf"^{field}:\s+(\d+)\s+kB", fh.read(), re.MULTILINE)
    return int(match.group(1)) if match else 0


def reset_peak_rss() -> None:
    """Reset this process's high-water mark (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set of ``pid`` since start or the last reset, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


class PeakTracker:
    """Peak resident memory across the timed calls only.

    The high-water mark is reset before each timed call and read after it,
    so the benchmark's own checking between calls is not charged to the
    program under test.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def __enter__(self) -> "PeakTracker":
        reset_peak_rss()
        return self

    def __exit__(self, *exc: object) -> None:
        self.peak_mb = max(self.peak_mb, peak_rss_mb())


# -- ledger -------------------------------------------------------------------

def ledger_snapshot(ledger_dict: Dict[str, object]) -> Dict[str, float]:
    """Plain counters from ``OpCounter.as_dict()`` (or the server's stats copy)."""
    snap = {key: float(ledger_dict.get(key, 0)) for key in LEDGER_FIELDS}
    snap["fault_events"] = float(sum((ledger_dict.get("fault_events") or {}).values()))
    return snap


def ledger_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


# -- end-to-end metrics ---------------------------------------------------------

def end_to_end(window: Window, limit_s: float, setup_s: float) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The end-to-end metric set of one untraced window, plus printable notes."""
    ops = window.ops
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    lat_ms = [op.latency_s * 1e3 for op in ops]
    p, tail_ms, beyond = tail(lat_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "gflops_eff": (sum(op.flops for op in ops if op.ok) / window.busy_s / 1e9, "GFLOP/s"),
        "speedup_vs_native": (window.native_s / window.emulated_s, "x"),
        "op_p50_ms": (median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "slo_ratio": (sum(1 for op in ops if op.ok and op.latency_s <= limit_s) / attempted, "ratio"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "max_rel_err": (max(op.rel_err for op in ops), "ratio"),
        "peak_rss_mb": (window.peak_rss_mb, "MiB"),
    }
    notes = [
        f"op_tail_ms is p{p:.4g} over {attempted} samples ({beyond} beyond it)",
        f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} failed)",
        f"slo latency limit {limit_s * 1e3:g} ms",
    ]
    return metrics, notes


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]], notes: Sequence[str]) -> Dict[str, object]:
    """Print the notes and metric table, then the result line last."""
    import json

    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": (float(value) if math.isfinite(value) else None), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return result


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self.start

