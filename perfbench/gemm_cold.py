"""``gemm-cold``: closed-loop ``Session.gemm`` on fresh operands every call.

One caller cycles through four calls, each on a new seeded pair from the
paper's generator (phi = 0.5), so every call runs all of Algorithm 1 and
the operand cache only ever misses.  The deep-k auto call has k > 1024, so
both sides of the k <= 1024 SGEMM exactness window are exercised.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import Ozaki2Config, Session
from repro.accuracy.error_bounds import ozaki2_error_bound
from repro.accuracy.reference import reference_gemm
from repro.baselines.native import native_dgemm, native_sgemm
from repro.workloads.generators import phi_pair

from common import Op, PeakTracker, Window, fastest, ledger_delta, ledger_snapshot, rel_err

NAME = "gemm-cold"

#: Latency limit of ``slo_ratio`` for one call of this closed loop.
LIMIT_S = 2.0

#: The call cycle: label, (m, k, n), configuration.
CALLS = (
    ("fp64-fast", (512, 512, 512), Ozaki2Config.for_dgemm(num_moduli=15)),
    ("fp32-fast", (512, 512, 512), Ozaki2Config.for_sgemm(num_moduli=8)),
    ("fp64-accurate", (512, 512, 512), Ozaki2Config.for_dgemm(mode="accurate")),
    ("fp64-auto", (256, 4096, 256), Ozaki2Config.for_dgemm(num_moduli="auto")),
)

#: Output rounding the a-priori bound does not include (it bounds the
#: product before the final cast to the output format).
_UNIT_ROUNDOFF = {64: 2.0**-53, 32: 2.0**-24}


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session = Session()
        self.calls = 0

    def operands(self, index: int):
        label, (m, k, n), config = CALLS[index % len(CALLS)]
        precision = "fp32" if config.is_sgemm else "fp64"
        return phi_pair(m, k, n, phi=0.5, precision=precision, seed=[self.seed, index])


def setup(seed: int) -> State:
    """Session plus one small warm-up call per configuration (tables, plans)."""
    state = State(seed)
    rng = np.random.default_rng([seed, 1 << 20])
    for _, _, config in CALLS:
        a = rng.standard_normal((32, 1100))
        b = rng.standard_normal((1100, 32))
        if config.is_sgemm:
            a, b = a.astype(np.float32), b.astype(np.float32)
        state.session.gemm(a, b, config=config)
    return state


def _check(a: np.ndarray, b: np.ndarray, result, bits: int) -> tuple:
    """``(ok, rel_err)`` against the high-precision reference and the a-priori bound.

    Four fixed-point chunks keep at least 80 bits per row/column scale at
    k <= 4096, far beyond the 53 of the fp64 result the reference rounds
    to, at a third of the default six chunks' cost.
    """
    ref = reference_gemm(a, b, num_chunks=4)
    c = np.asarray(result.value, dtype=np.float64)
    err = np.abs(c - ref)
    if result.moduli_selection is not None:
        bound = result.moduli_selection.bound
    else:
        bound = ozaki2_error_bound(a, b, result.config.num_moduli, bits)
    bound = bound + _UNIT_ROUNDOFF[bits] * np.abs(ref)
    ok = bool(np.all(np.isfinite(c)) and np.all(err <= bound))
    return ok, rel_err(c, ref)


def measure(state: State, seconds: float) -> Window:
    """Whole cycles until the timed calls add up to ``seconds``.

    Operand generation and the correctness check run between the timed
    calls, outside their timers.
    """
    session = state.session
    before = ledger_snapshot(session.ledger.as_dict())
    ops: List[Op] = []
    auto_moduli: List[int] = []
    phases: Dict[str, float] = {}
    peak = PeakTracker()
    busy = native_s = 0.0
    while busy < seconds:
        for _ in CALLS:
            index = state.calls
            state.calls += 1
            label, (m, k, n), config = CALLS[index % len(CALLS)]
            a, b = state.operands(index)
            emulated = dict(session.ledger.emulated_calls)
            with peak:
                start = time.perf_counter()
                result = session.gemm(a, b, config=config)
                latency = time.perf_counter() - start
            busy += latency
            if config.moduli_is_auto:
                delta = {n_: c - emulated.get(n_, 0)
                         for n_, c in session.ledger.emulated_calls.items()
                         if c != emulated.get(n_, 0)}
                auto_moduli.extend(delta)
            for key, value in result.phase_times.seconds.items():
                phases[key] = phases.get(key, 0.0) + value
            ok, error = _check(a, b, result, 32 if config.is_sgemm else 64)
            ops.append(Op(label, latency, 2.0 * m * n * k, ok, error))
            native_s += fastest(native_sgemm if config.is_sgemm else native_dgemm, a, b)
    after = ledger_snapshot(session.ledger.as_dict())
    return Window(
        ops=ops,
        busy_s=busy,
        native_s=native_s,
        emulated_s=busy,
        peak_rss_mb=peak.peak_mb,
        ledger=ledger_delta(before, after),
        extra={
            "auto_moduli": auto_moduli,
            "phase_seconds": phases,
            "cache_resident_bytes": session.cache.current_bytes,
        },
    )


def close(state: State) -> None:
    state.session.close()
