"""Benchmark of the Ozaki-II emulator, measured from outside the package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gemm-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures one untraced window and prints the end-to-end
metrics; ``--trace 1`` measures an untraced half-window, installs the span
recorder, measures a traced half-window and prints the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  Outputs (result, provenance, spans) are also
written under ``.bench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: Cold imports and set-up are each repeated this many times per run;
#: ``setup_s`` is the sum of their medians.
SETUP_REPS = 3

WORKLOADS = {
    "gemm-cold": "gemm_cold",
    "solve-cg": "solve_cg",
    "serve-mixed": "serve_mixed",
}


def _pin_blas_threads() -> int:
    """Cap the BLAS thread pools at ``nproc`` before NumPy loads; returns the cap."""
    cpus = len(os.sched_getaffinity(0))
    threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = _pin_blas_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import importlib

    from repro.harness.provenance import stamp

    import common
    from layers import per_layer
    from spans import Recorder, install

    workload = importlib.import_module(WORKLOADS[args.workload])

    import_times = [_cold_import_seconds(WORKLOADS[args.workload]) for _ in range(SETUP_REPS)]
    setup_times = []
    state = None
    for rep in range(SETUP_REPS):
        if state is not None:
            workload.close(state)
        with common.Stopwatch() as sw:
            state = workload.setup(args.seed)
        setup_times.append(sw.seconds)
    import_s = common.median(import_times)
    setup_s = import_s + common.median(setup_times)

    # The provenance stamp asks git for the sha; keep its search inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    provenance = stamp({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": common.nproc(),
        "blas_threads": blas_threads,
    })
    try:
        if args.trace == 0:
            window = workload.measure(state, args.seconds)
            metrics, notes = common.end_to_end(window, workload.LIMIT_S, setup_s)
            notes.append(f"setup: median cold import of {[round(t, 3) for t in import_times]} s "
                         f"+ median set-up of {[round(t, 3) for t in setup_times]} s")
            notes.append(f"ledger.fault_events {window.ledger['fault_events']:g}")
            notes.extend(window.extra.get("notes", []))
        else:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
            plain = workload.measure(state, args.seconds / 2)
            remote = hasattr(workload, "start_trace")
            if remote:  # the program runs in another process
                workload.start_trace(state)
            else:
                recorder = Recorder()
                install(recorder)
            window = workload.measure(state, args.seconds / 2)
            if remote:
                spans = workload.collect_spans(state, spans_path)
            else:
                recorder.dump(spans_path)
                spans = recorder.spans
            window.extra["overhead_ratio"] = (
                _mean_latency(window) / _mean_latency(plain)
            )
            window.extra.update(common.native_gflops(args.seed))
            metrics = per_layer(spans, len(window.ops), window.ledger, window.extra)
            notes = [f"{len(spans)} spans over {len(window.ops)} traced operations"]
            notes.extend(_phase_cross_check(window, metrics))
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        workload.close(state)

    failed = sum(1 for op in window.ops if not op.ok)
    correct = failed == 0 and window.ledger["fault_events"] == 0
    for line in provenance.splitlines():
        print(line)
    result = common.emit(correct, len(window.ops), failed, metrics, notes)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "notes": list(notes), "result": result},
                  fh, indent=1)
    return 0


def _cold_import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter importing the workload and the package."""
    code = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import {module}"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def _mean_latency(window) -> float:
    return sum(op.latency_s for op in window.ops) / len(window.ops)


def _phase_cross_check(window, metrics):
    """Compare span totals with ``Result.phase_times`` where both exist."""
    phases = window.extra.get("phase_seconds")
    if not phases:
        return []
    ops = len(window.ops)
    lines = []
    for phase, metric in (("matmul", "engines.int8.matmul_ms"),
                          ("accumulate", "core.accumulation.accumulate_ms"),
                          ("reconstruct", "core.accumulation.reconstruct_ms"),
                          ("unscale", "core.accumulation.unscale_ms")):
        lines.append(f"cross-check {phase}: phase_times {phases.get(phase, 0.0) * 1e3 / ops:.3f} "
                     f"ms/op vs spans {metrics[metric][0]:.3f} ms/op")
    convert = (phases.get("convert_A", 0.0) + phases.get("convert_B", 0.0)) * 1e3 / ops
    lines.append(
        f"cross-check convert: phase_times {convert:.3f} ms/op vs core.conversion spans "
        f"{metrics['core.conversion.ms'][0]:.3f} ms/op (phase_times reports 0 for "
        "conversions the operand cache did)"
    )
    return lines


if __name__ == "__main__":
    sys.exit(main())
