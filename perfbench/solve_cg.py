"""``solve-cg``: closed-loop ``Session.solve(method="cg")`` on one SPD system.

One seeded ill-conditioned SPD matrix (cond 1e3, n = 512) is prepared during
set-up; the timed loop solves it against a stream of fresh right-hand sides.
Each CG iteration blocks on one residue GEMV plus the solver's vector work,
so conversion, GEMM accumulation and the service layer stay idle.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro import Session
from repro.workloads.generators import ill_conditioned_spd_matrix

from common import Op, PeakTracker, Window, fastest, ledger_delta, ledger_snapshot

NAME = "solve-cg"

N = 512
COND = 1e3
TOL = 1e-10

#: Latency limit of ``slo_ratio`` for one solve of this closed loop.
LIMIT_S = 3.0


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session = Session()
        self.matrix = ill_conditioned_spd_matrix(N, cond=COND, seed=seed)
        self.session.prepare(self.matrix, side="A")
        self.solves = 0

    def rhs(self, index: int) -> np.ndarray:
        return np.random.default_rng([self.seed, index]).standard_normal(N)


def setup(seed: int) -> State:
    """Generate and prepare the system matrix; one small warm-up solve."""
    state = State(seed)
    small = ill_conditioned_spd_matrix(16, cond=10.0, seed=seed)
    state.session.solve(small, np.ones(16), method="cg", tol=TOL)
    return state


def native_cg(a: np.ndarray, b: np.ndarray, tol: float) -> int:
    """Plain fp64 NumPy CG to the same tolerance (the native baseline)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    stop = (tol * np.linalg.norm(b)) ** 2
    for it in range(1, 2 * len(b) + 1):
        ap = a @ p
        alpha = rr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = r @ r
        if rr_new <= stop:
            return it
        p = r + (rr_new / rr) * p
        rr = rr_new
    return 2 * len(b)


def measure(state: State, seconds: float) -> Window:
    """Solves until their timed durations add up to ``seconds``.

    Each solve's true residual ``||b - A x|| / ||b||`` is recomputed in
    fp64 outside the timer and must be at most the tolerance.
    """
    session = state.session
    a = state.matrix
    before = ledger_snapshot(session.ledger.as_dict())
    ops: List[Op] = []
    iterations: List[int] = []
    peak = PeakTracker()
    busy = native_s = 0.0
    while busy < seconds:
        b = state.rhs(state.solves)
        state.solves += 1
        with peak:
            start = time.perf_counter()
            result = session.solve(a, b, method="cg", tol=TOL)
            latency = time.perf_counter() - start
        busy += latency
        residual = float(np.linalg.norm(b - a @ result.value) / np.linalg.norm(b))
        ok = bool(result.converged and np.isfinite(residual) and residual <= TOL)
        iterations.append(result.iterations)
        native_s += fastest(native_cg, a, b, TOL, reps=1)
        # Useful work: one n x n matrix-vector product per iteration.
        ops.append(Op("solve", latency, 2.0 * N * N * result.iterations, ok, residual))
    after = ledger_snapshot(session.ledger.as_dict())
    return Window(
        ops=ops,
        busy_s=busy,
        native_s=native_s,
        emulated_s=busy,
        peak_rss_mb=peak.peak_mb,
        ledger=ledger_delta(before, after),
        extra={"iterations": iterations,
               "cache_resident_bytes": session.cache.current_bytes},
    )


def close(state: State) -> None:
    state.session.close()
