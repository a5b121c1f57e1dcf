"""``serve-mixed``: two callers sending mixed requests to ``repro serve``.

A :class:`~repro.service.ReproServer` runs in a child process; this process
drives it over loopback as a closed loop of two callers, one connection
each, every caller sending its next request as soon as the previous one
returns.  The server therefore stays busy and sees concurrent requests.

The mix, in seeded blocks of ten: 7 GEMVs against a hot working set of four
512x512 matrices (fingerprint hits), 2 GEMMs of a shared 256x256 weight with
a fresh 256x64 operand (through the coalescer and the batched runtime) and
1 cold 256x256 GEMM uploaded inline (cache misses; over a long run they
force LRU evictions).  Per-request compute is small, so the protocol, the
cache, the coalescer and queueing carry the load.

An open loop on a fixed schedule was tried first.  At 10, 15 and 25
requests/s its latency medians moved 23-43 % between runs on a 2-vCPU VM,
too unsteady for a regression bound.  A closed loop keeps the CPUs busy and
moved about 5 %.
"""

from __future__ import annotations

import itertools
import pathlib
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro import Session
from repro.accuracy.reference import reference_gemm
from repro.baselines.native import native_dgemm
from repro.service import ServiceClient
from repro.workloads.generators import phi_matrix

from common import Op, Window, fastest, ledger_delta, ledger_snapshot, rel_err
from spans import load

NAME = "serve-mixed"

#: Latency limit of ``slo_ratio``.
LIMIT_S = 0.050
CONNECTIONS = 2
#: Every this-many-th request is checked bit for bit against a local Session.
SAMPLE_EVERY = 8
KINDS = ("gemv", "gemm-shared", "gemm-cold")
BLOCK = ("gemv",) * 7 + ("gemm-shared",) * 2 + ("gemm-cold",)
HOT_MATRICES = 4
FLOPS = {"gemv": 2.0 * 512 * 512, "gemm-shared": 2.0 * 256 * 256 * 64,
         "gemm-cold": 2.0 * 256 * 256 * 256}

HERE = pathlib.Path(__file__).resolve().parent


class Request:
    __slots__ = ("kind", "hot", "a", "b")

    def __init__(self, kind: str, hot: int, a, b) -> None:
        self.kind = kind
        self.hot = hot
        self.a = a
        self.b = b


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.windows = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_proc.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server process did not start: {line!r}")
        self.client = ServiceClient(port=int(line[1]), timeout=60.0)
        rng = np.random.default_rng([seed, 0])
        self.hot = [phi_matrix(512, 512, rng=rng) for _ in range(HOT_MATRICES)]
        self.weight = phi_matrix(256, 256, rng=rng)
        self.checker: Optional[Session] = None
        # ServiceClient memoises fingerprints by id(array).  An array freed
        # while the client lives can hand its id to a new array, which is then
        # sent as a reference to the old operand and answered wrongly.  Every
        # array sent is therefore kept alive as long as the client.
        self.sent: list = []

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if not reply or reply.startswith("ERROR"):
            raise RuntimeError(f"server process answered {reply!r} to {text!r}")
        return reply

    def operands(self, request: Request):
        if request.kind == "gemv":
            return self.hot[request.hot], request.b
        if request.kind == "gemm-shared":
            return self.weight, request.b
        return request.a, request.b

    def send(self, request: Request) -> np.ndarray:
        a, b = self.operands(request)
        if request.kind == "gemv":
            return self.client.gemv(a, b).value
        return self.client.gemm(a, b).value


def _request(seed: int, window: int, index: int) -> Request:
    """Request ``index`` of a window; a function of its arguments alone.

    Kinds come in seeded shuffles of :data:`BLOCK`, so every ten requests
    hold the exact mix and every window sends the same kind sequence;
    payloads are fresh per window.
    """
    order = np.random.default_rng([seed, index // len(BLOCK)]).permutation(len(BLOCK))
    kind = BLOCK[order[index % len(BLOCK)]]
    data = np.random.default_rng([seed, 1 + window, index])
    if kind == "gemv":
        return Request(kind, int(data.integers(HOT_MATRICES)), None,
                       phi_matrix(512, 1, rng=data).ravel())
    if kind == "gemm-shared":
        return Request(kind, 0, None, phi_matrix(256, 64, rng=data))
    return Request(kind, 0, phi_matrix(256, 256, rng=data), phi_matrix(256, 256, rng=data))


def setup(seed: int) -> State:
    """Start the server, upload the hot set and the shared weight, warm each kind."""
    state = State(seed)
    for matrix in state.hot + [state.weight]:
        state.client.prepare(matrix, side="A")
    warm = [_request(seed, -1, index) for index in range(len(BLOCK))]
    state.sent.append(warm)
    for request in warm:
        state.send(request)
    return state


def measure(state: State, seconds: float) -> Window:
    """Two callers send requests back to back for ``seconds``; then checks."""
    window = state.windows
    state.windows += 1
    requests: Dict[int, Request] = {}
    results: Dict[int, tuple] = {}
    state.sent.append(requests)
    indices = itertools.count()
    lock = threading.Lock()
    before = state.client.stats()
    state.command("reset-peak")
    start = time.perf_counter()
    deadline = start + seconds

    def caller() -> None:
        ready = time.perf_counter()
        while ready < deadline:
            with lock:
                index = next(indices)
            request = _request(state.seed, window, index)
            requests[index] = request
            sent = time.perf_counter()
            try:
                value, error = state.send(request), None
            except Exception as exc:  # a failed request is counted, not fatal
                value, error = None, exc
            done = time.perf_counter()
            # Generator time between the previous response and this send
            # (payload generation, client encoding) and the request latency.
            results[index] = (sent - ready, done - sent, value, error)
            ready = done

    threads = [threading.Thread(target=caller, name=f"perfbench-caller-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    peak_mb = float(state.command("peak").split()[1])
    after = state.client.stats()
    order = sorted(results)
    return _check(state, [requests[i] for i in order], [results[i] for i in order],
                  elapsed, before, after, peak_mb)


def _check(state, requests, results, elapsed, before, after, peak_mb) -> Window:
    if state.checker is None:
        # Like the server, the checker holds the hot set prepared.
        state.checker = Session()
        for matrix in state.hot:
            state.checker.prepare(matrix, side="A")
    ops: List[Op] = []
    local_s = native_s = 0.0
    for index, (request, (lag, latency, value, error)) in enumerate(zip(requests, results)):
        a, b = state.operands(request)
        shape = (a.shape[0],) if request.kind == "gemv" else (a.shape[0], b.shape[1])
        ok = error is None and value.shape == shape and bool(np.all(np.isfinite(value)))
        err_ratio = 0.0
        if ok and index % SAMPLE_EVERY == 0:
            if request.kind == "gemv":
                # speedup_vs_native covers the GEMV hot path only: the local
                # emulated product and native DGEMM on the same operands,
                # timed back to back.  Small GEMMs (the emulator's residue
                # GEMMs included) are bimodal on a 2-CPU host under
                # 2-thread OpenBLAS, which would swamp the ratio.
                start = time.perf_counter()
                local = state.checker.gemv(a, b).value
                local_s += time.perf_counter() - start
                native_s += fastest(native_dgemm, a, b.reshape(-1, 1))
            else:
                local = state.checker.gemm(a, b).value
            ok = bool(np.array_equal(value, local))
            ref = reference_gemm(a, b.reshape(b.shape[0], -1)).reshape(value.shape)
            err_ratio = rel_err(value, ref)
        ops.append(Op(request.kind, latency, FLOPS[request.kind], ok, err_ratio))
    return Window(
        ops=ops,
        busy_s=elapsed,
        native_s=native_s,
        emulated_s=local_s,
        peak_rss_mb=peak_mb,
        ledger=ledger_delta(ledger_snapshot(before["ledger"]), ledger_snapshot(after["ledger"])),
        extra={
            "gen_lag_ms": [r[0] * 1e3 for r in results],
            "cache_resident_bytes": after["cache"]["current_bytes"],
            "notes": [f"{sum(1 for op in ops if op.kind == k)} {k} requests" for k in KINDS],
        },
    )


def start_trace(state: State) -> None:
    state.command("trace")


def collect_spans(state: State, path) -> list:
    state.command(f"dump {path}")
    return load(path)


def close(state: State) -> None:
    """Stop the server process and wait for it to exit."""
    state.client.close()
    if state.checker is not None:
        state.checker.close()
    try:
        state.proc.stdin.write("stop\n")
        state.proc.stdin.close()
        state.proc.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        state.proc.kill()
        state.proc.wait()
    state.proc.stdout.close()
