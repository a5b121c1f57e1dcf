"""Per-layer metrics of a traced window, from spans and ledger deltas.

Unless stated otherwise a ``*_ms`` metric is the mean time per end-to-end
operation (GEMM call, solve or service request) that the layer's spans
cover; a layer a workload never enters reports 0.  Self times subtract the
time covered by child spans.  Bytes are *computed* from the ledger's
modelled traffic (each operand read once), not measured.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from common import median
from spans import layer_totals

Metric = Tuple[float, str]

#: Every per-layer metric, in output order, with its unit.
PER_LAYER_UNITS = {
    "service.protocol.decode_ms": "ms",
    "service.protocol.encode_ms": "ms",
    "service.protocol.bytes_per_req": "B",
    "service.cache.fingerprint_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "service.cache.resident_mb": "MiB",
    "service.coalescer.wait_ms": "ms",
    "service.coalescer.batch_mean": "count",
    "service.server.self_ms": "ms",
    "runtime.scheduler.self_ms": "ms",
    "runtime.batched.ms": "ms",
    "core.operand.prepare_ms": "ms",
    "core.operand.elems_per_s": "1/s",
    "core.conversion.ms": "ms",
    "core.scaling.ms": "ms",
    "engines.int8.matmul_ms": "ms",
    "engines.int8.matmul_gops": "GOP/s",
    "engines.int8.matmul_gbps_computed": "GB/s",
    "engines.int8.matvec_ms": "ms",
    "engines.int8.matvec_gbps_computed": "GB/s",
    "core.accumulation.accumulate_ms": "ms",
    "core.accumulation.reconstruct_ms": "ms",
    "core.accumulation.unscale_ms": "ms",
    "crt.adaptive.num_moduli": "count",
    "core.gemv.ms": "ms",
    "apps.solvers.self_ms": "ms",
    "apps.solvers.iterations": "count",
    "session.unattributed_ms": "ms",
    "ledger.mac_ops": "count",
    "ledger.bytes_computed": "B",
    "ledger.elementwise_ops": "count",
    "ledger.fault_events": "count",
    "ref.native_gflops_fp64": "GFLOP/s",
    "ref.native_gflops_fp32": "GFLOP/s",
    "gen.lag_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: Sequence[list],
    ops: int,
    ledger: Dict[str, float],
    extra: Dict[str, object],
) -> Dict[str, Metric]:
    """All :data:`PER_LAYER_UNITS` metrics for one traced window.

    ``ops`` is the number of end-to-end operations the window completed,
    ``ledger`` the session ledger delta over the window and ``extra`` the
    workload's own observations (see the keys read below).
    """
    totals = layer_totals(spans)

    def get(name: str, field: str = "seconds") -> float:
        return totals.get(name, {}).get(field, 0.0)

    def per_op_ms(name: str, field: str = "seconds") -> float:
        return _ratio(get(name, field) * 1e3, ops)

    lookups = ledger["cache_hits"] + ledger["cache_misses"]
    wait_calls = get("service.coalescer.wait", "calls")
    values = {
        "service.protocol.decode_ms": per_op_ms("service.protocol.decode"),
        "service.protocol.encode_ms": per_op_ms("service.protocol.encode"),
        "service.protocol.bytes_per_req": _ratio(
            get("service.protocol.decode", "items") + get("service.protocol.encode", "items"),
            get("service.server", "calls"),
        ),
        "service.cache.fingerprint_ms": per_op_ms("service.cache.fingerprint"),
        "service.cache.hit_ratio": _ratio(ledger["cache_hits"], lookups),
        "service.cache.evictions": ledger["cache_evictions"],
        "service.cache.resident_mb": float(extra.get("cache_resident_bytes", 0)) / 2**20,
        "service.coalescer.wait_ms": _ratio(get("service.coalescer.wait") * 1e3, wait_calls),
        "service.coalescer.batch_mean": _ratio(
            get("service.coalescer.batch", "items"), get("service.coalescer.batch", "calls")
        ),
        "service.server.self_ms": per_op_ms("service.server", "self_seconds"),
        "runtime.scheduler.self_ms": per_op_ms("runtime.scheduler.execute_plan", "self_seconds"),
        "runtime.batched.ms": per_op_ms("runtime.batched"),
        "core.operand.prepare_ms": per_op_ms("core.operand.prepare"),
        "core.operand.elems_per_s": _ratio(
            get("core.conversion", "items"), get("core.conversion")
        ),
        "core.conversion.ms": per_op_ms("core.conversion"),
        "core.scaling.ms": per_op_ms("core.scaling"),
        "engines.int8.matmul_ms": per_op_ms("engines.int8.matmul"),
        "engines.int8.matmul_gops": _ratio(
            2.0 * get("engines.int8.matmul", "macs") / 1e9, get("engines.int8.matmul")
        ),
        "engines.int8.matmul_gbps_computed": _ratio(
            get("engines.int8.matmul", "bytes") / 1e9, get("engines.int8.matmul")
        ),
        "engines.int8.matvec_ms": per_op_ms("engines.int8.matvec"),
        "engines.int8.matvec_gbps_computed": _ratio(
            get("engines.int8.matvec", "bytes") / 1e9, get("engines.int8.matvec")
        ),
        "core.accumulation.accumulate_ms": per_op_ms("core.accumulation.accumulate"),
        "core.accumulation.reconstruct_ms": per_op_ms("core.accumulation.reconstruct"),
        "core.accumulation.unscale_ms": per_op_ms("core.accumulation.unscale"),
        "crt.adaptive.num_moduli": median(extra.get("auto_moduli", [])),
        "core.gemv.ms": per_op_ms("core.gemv"),
        "apps.solvers.self_ms": per_op_ms("apps.solvers", "self_seconds"),
        "apps.solvers.iterations": median(extra.get("iterations", [])),
        "session.unattributed_ms": per_op_ms("session", "self_seconds"),
        "ledger.mac_ops": _ratio(ledger["mac_ops"], ops),
        "ledger.bytes_computed": _ratio(ledger["bytes_read"] + ledger["bytes_written"], ops),
        "ledger.elementwise_ops": _ratio(ledger["elementwise_ops"], ops),
        "ledger.fault_events": ledger["fault_events"],
        "ref.native_gflops_fp64": float(extra["native_gflops_fp64"]),
        "ref.native_gflops_fp32": float(extra["native_gflops_fp32"]),
        "gen.lag_ms": median(extra.get("gen_lag_ms", [])),
        "trace.overhead_ratio": float(extra["overhead_ratio"]),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
