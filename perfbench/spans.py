"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public entry points of each layer of the ``repro``
package *where their callers look them up*: a module-level function is
replaced in every loaded ``repro`` module that binds it (``from x import f``
copies the binding, so patching only the defining module would miss most
callers), and a method is replaced on its class.  Nothing inside ``src/`` is
edited; the wrappers live here and are installed only for the traced phase.

A span is ``[id, parent, name, start, end, request, counts]``.  ``parent`` is
the span open on the same thread when this one started; ``request`` is the
id of the outermost span of the operation (one ``Session.*`` call, or one
``ReproServer.handle_request``).  Work the coalescer thread runs for several
requests carries the tuple of their ids.  Spans stay in memory until
:meth:`Recorder.dump` writes them out at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Recorder", "install", "load", "self_times", "layer_totals"]

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "request", "counts")

# Layer entry points that are module-level functions: (span name, defining
# module, attribute).  Each is patched in every loaded repro module binding
# the same function object.
FUNCTION_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("service.protocol.decode", "repro.service.protocol", "decode_frame"),
    ("service.protocol.encode", "repro.service.protocol", "encode_frame"),
    ("service.cache.fingerprint", "repro.core.operand", "matrix_fingerprint"),
    ("core.operand.prepare", "repro.core.operand", "prepare_a"),
    ("core.operand.prepare", "repro.core.operand", "prepare_b"),
    ("core.conversion", "repro.core.conversion", "truncate_scaled"),
    ("core.conversion", "repro.core.conversion", "residue_slices"),
    ("core.scaling", "repro.core.scaling", "fast_mode_prescale"),
    ("core.scaling", "repro.core.scaling", "scale_from_prescale"),
    ("core.scaling", "repro.core.scaling", "fast_mode_scale_a"),
    ("core.scaling", "repro.core.scaling", "fast_mode_scale_b"),
    ("core.scaling", "repro.core.scaling", "accurate_mode_prescale"),
    ("core.scaling", "repro.core.scaling", "accurate_scales_from_prescale"),
    ("runtime.scheduler.execute_plan", "repro.runtime.scheduler", "execute_plan"),
    ("runtime.batched", "repro.runtime.batched", "ozaki2_gemm_batched"),
    ("core.accumulation.accumulate", "repro.core.accumulation", "accumulate_residue_products"),
    ("core.accumulation.reconstruct", "repro.core.accumulation", "reconstruct_crt"),
    ("core.accumulation.unscale", "repro.core.accumulation", "unscale"),
    ("core.gemv", "repro.core.gemv", "prepared_gemv"),
    ("apps.solvers", "repro.apps.solvers", "cg_solve"),
)

# Layer entry points that are methods: (span name, module, class, method).
METHOD_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("session", "repro.session", "Session", "gemm"),
    ("session", "repro.session", "Session", "gemv"),
    ("session", "repro.session", "Session", "gemm_batched"),
    ("session", "repro.session", "Session", "solve"),
    ("service.cache.get_or_prepare", "repro.service.cache", "OperandCache", "get_or_prepare"),
    ("engines.int8.matmul", "repro.engines.int8", "Int8MatrixEngine", "matmul_stack"),
    ("engines.int8.matvec", "repro.engines.int8", "Int8MatrixEngine", "matvec_stack"),
    ("service.server", "repro.service.server", "ReproServer", "handle_request"),
)

# Spans that open a new request when no span is open on their thread.
REQUEST_ROOTS = frozenset({"session", "service.server"})

# Engine spans also record the ledger work they retired.
_LEDGER_SPANS = frozenset({"engines.int8.matmul", "engines.int8.matvec"})

# Functions whose spans record how much they processed: elements converted,
# or frame bytes decoded / encoded.  Called as ``count(args, result)``.
_ITEM_COUNTS = {
    "residue_slices": lambda args, result: int(args[0].size),
    "decode_frame": lambda args, result: len(args[0]),
    "encode_frame": lambda args, result: len(result),
}


class Recorder:
    """Collects spans from any thread; cheap enough to leave on for a run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._submitted: Dict[Tuple[int, int], Tuple[object, float]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: object = None) -> list:
        """Start a span on this thread; returns the record to :meth:`close`."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            parent_id, req = parent[0], parent[5]
        else:
            parent_id, req = None, request
            if req is None and name in REQUEST_ROOTS:
                req = span_id
        record = [span_id, parent_id, name, time.perf_counter(), 0.0, req, None]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.spans.append(record)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` recording one span per call."""
        recorder = self
        counted = name in _LEDGER_SPANS
        items = _ITEM_COUNTS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = recorder.open(name)
            if counted:
                ledger = args[0].counter
                macs, moved = ledger.mac_ops, ledger.bytes_read + ledger.bytes_written
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    record[6] = (items(args, result),)
                return result
            finally:
                if counted:
                    record[6] = (
                        ledger.mac_ops - macs,
                        ledger.bytes_read + ledger.bytes_written - moved,
                    )
                recorder.close(record)

        return traced

    # -- coalescer: the handler thread submits, the drain thread executes ----
    def wrap_submit(self, fn: Callable) -> Callable:
        """Wrap ``RequestCoalescer.submit``.

        The returned future's ``result`` becomes a ``service.coalescer.await``
        span on the handler thread (so the handler's self time excludes the
        wait).  The request id and submit time are registered under the
        operands' identities *before* the item is queued, so
        :meth:`wrap_execute` always finds them.
        """
        recorder = self

        @functools.wraps(fn)
        def submit(coalescer, a, b, config):
            stack = recorder._stack()
            request = stack[-1][5] if stack else None
            with recorder._lock:
                recorder._submitted[(id(a), id(b))] = (request, time.perf_counter())
            future = fn(coalescer, a, b, config)
            result = future.result

            def traced_result(*args, **kwargs):
                record = recorder.open("service.coalescer.await")
                try:
                    return result(*args, **kwargs)
                finally:
                    recorder.close(record)

            future.result = traced_result
            return future

        return submit

    def wrap_execute(self, fn: Callable) -> Callable:
        """Wrap ``RequestCoalescer._execute``: one batch span plus each item's wait."""
        recorder = self

        @functools.wraps(fn)
        def execute(coalescer, batch):
            start = time.perf_counter()
            with recorder._lock:
                tags = [recorder._submitted.pop((id(item.a), id(item.b)), (None, start))
                        for item in batch]
            requests = tuple(req for req, _ in tags)
            for req, submitted in tags:
                recorder.spans.append(
                    [next(recorder._ids), None, "service.coalescer.wait",
                     submitted, start, req, None]
                )
            record = recorder.open("service.coalescer.batch", request=requests)
            record[6] = (len(batch),)
            try:
                return fn(coalescer, batch)
            finally:
                recorder.close(record)

        return execute

    # -- output -----------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every closed span as one JSON document (written at exit)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(SPAN_FIELDS), "spans": self.spans}, fh,
                      separators=(",", ":"))


def load(path) -> List[list]:
    """Read spans written by :meth:`Recorder.dump` (request tuples come back as lists)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _patch_function(recorder: Recorder, name: str, module_name: str, attr: str) -> None:
    target = getattr(sys.modules[module_name], attr)
    traced = recorder.wrap(name, target)
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
            continue
        if getattr(module, attr, None) is target:
            setattr(module, attr, traced)


def install(recorder: Recorder) -> None:
    """Patch every layer entry point to record into ``recorder``."""
    import importlib

    # Load every module first: the service submodules load lazily, and a
    # module imported after patching would bind the unwrapped functions.
    for module_name in {m for _, m, _ in FUNCTION_POINTS} | {m for _, m, _, _ in METHOD_POINTS}:
        importlib.import_module(module_name)
    for name, module_name, attr in FUNCTION_POINTS:
        _patch_function(recorder, name, module_name, attr)
    for name, module_name, cls_name, attr in METHOD_POINTS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))
    coalescer = sys.modules["repro.service.coalescer"].RequestCoalescer
    coalescer.submit = recorder.wrap_submit(coalescer.submit)
    coalescer._execute = recorder.wrap_execute(coalescer._execute)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - _covered(children.get(span[0], ()), span[3], span[4])
        for span in spans
    }


def layer_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and ledger counts.

    A span nested inside another span of the same name (a layer calling
    itself through a patched binding) is not counted again.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        ancestor: Optional[int] = span[1]
        nested = False
        while ancestor is not None:
            parent = by_id.get(ancestor)
            if parent is None:
                break
            if parent[2] == span[2]:
                nested = True
                break
            ancestor = parent[1]
        if nested:
            continue
        entry = totals.setdefault(
            span[2], {"calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                      "macs": 0, "bytes": 0, "items": 0}
        )
        entry["calls"] += 1
        entry["seconds"] += span[4] - span[3]
        entry["self_seconds"] += selfs[span[0]]
        counts = span[6]
        if counts:
            if len(counts) == 2:
                entry["macs"] += counts[0]
                entry["bytes"] += counts[1]
            else:
                entry["items"] += counts[0]
    return totals
