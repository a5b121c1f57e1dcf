"""INT8 matrix engine with INT32 accumulation.

This simulator reproduces the arithmetic contract of NVIDIA INT8 Tensor
Cores (and the equivalent AMD/Intel units): operands are 8-bit signed
integers, products are accumulated in 32-bit signed integers, and an
accumulator overflow wraps around in two's complement.  Both Ozaki scheme I
(ozIMMU) and Ozaki scheme II issue all of their inner products through this
engine.

Two computation paths are provided:

* ``use_blas=True`` (default): the product runs at the narrowest exact
  floating-point width, float32 SGEMM (:func:`_sgemm_int32`).  Every
  prepared entry satisfies ``|a|, |b| <= 128``, so each term is at most
  ``2**14`` in magnitude and every partial sum of at most
  ``_SGEMM_EXACT_K = 1024`` terms is an integer of magnitude at most
  ``2**24`` — exactly representable in float32.  No rounding can occur in
  any summation order BLAS picks, so a ``k <= 1024`` product is one exact
  stacked SGEMM.  Larger ``k`` is cut into 1024-wide chunks, each an exact
  SGEMM converted to int32, and the chunks are summed in int32, which
  wraps modulo ``2**32`` exactly like the hardware accumulator — so the
  result is bit-identical to the integer reference at every ``k``.
* ``use_blas=False``: operands are multiplied directly with NumPy integer
  arithmetic (int32 accumulators with native wraparound).  This is the
  byte-level reference used in the test suite to validate the fast path.

Section 4.3 of the paper discusses the only overflow case (``k = 2**17`` and
``p_1 = 256`` can reach exactly ``2**31``) and shows it is harmless because
the wrapped value is congruent modulo every modulus.  The engine reproduces
that wraparound exactly.
"""

from __future__ import annotations

import numpy as np

from ..errors import EngineError, OverflowRiskError
from ..types import INT8, INT32
from .base import MatrixEngine

__all__ = ["Int8MatrixEngine"]

#: Largest inner dimension for which an INT8 x INT8 -> INT32 product cannot
#: exceed the INT32 range by more than the single harmless 2**31 case.
_MAX_EXACT_K = 2**17

#: Widest k-chunk one float32 product covers exactly: ``1024 * 2**14 = 2**24``
#: bounds every partial sum, and float32 represents every integer up to it.
_SGEMM_EXACT_K = 1024


def _sgemm_int32(a8: np.ndarray, b8: np.ndarray) -> np.ndarray:
    """Exact INT32-wrapping product of INT8 operands via float32 SGEMM.

    ``a8`` is ``(..., m, k)`` and ``b8`` is ``(..., k, n)``, both INT8 (or
    integer-valued with ``|x| <= 128``).  Each 1024-wide k-chunk is promoted
    to float32 and multiplied in one (stacked) SGEMM whose partial sums stay
    within ``±2**24`` and are therefore exact; the int32 chunk results are
    summed with two's-complement wraparound, so the result equals the
    integer reference bit for bit at every ``k`` (including the ``2**31``
    boundary at ``k = 2**17``).
    """

    def chunk(start: int) -> np.ndarray:
        stop = start + _SGEMM_EXACT_K
        return np.matmul(
            a8[..., start:stop].astype(np.float32),
            b8[..., start:stop, :].astype(np.float32),
        ).astype(np.int32)

    out = chunk(0)
    for start in range(_SGEMM_EXACT_K, a8.shape[-1], _SGEMM_EXACT_K):
        out += chunk(start)
    return out


class Int8MatrixEngine(MatrixEngine):
    """Simulated INT8 Tensor Core (INT8 inputs, INT32 accumulation).

    Parameters
    ----------
    use_blas:
        Select the float32 SGEMM fast path (exact, default) or the
        pure-integer reference path.
    strict_k:
        If True (default), refuse inner dimensions above ``2**17`` with
        :class:`~repro.errors.OverflowRiskError`; callers are expected to
        block the product (see :mod:`repro.core.blocking`).  If False, the
        engine performs the multiplication anyway with full wraparound
        semantics (useful for overflow-behaviour tests).
    """

    input_format = INT8
    output_format = INT32
    name = "int8"

    def __init__(self, use_blas: bool = True, strict_k: bool = True) -> None:
        super().__init__()
        self.use_blas = bool(use_blas)
        self.strict_k = bool(strict_k)

    # -- MatrixEngine hooks --------------------------------------------------
    def _prepare(self, x: np.ndarray, which: str) -> np.ndarray:
        if np.issubdtype(x.dtype, np.floating):
            if not np.all(x == np.round(x)):
                raise EngineError(
                    f"int8 engine: operand {which} contains non-integer values"
                )
        xi = np.asarray(x)
        lo, hi = self.input_format.int_min, self.input_format.int_max
        # Allow +128 on input: the hardware cast wraps it to -128, which is
        # congruent modulo 256 (Section 4.1); anything else out of range is a
        # caller bug.
        if np.any((xi < lo) | (xi > hi + 1)):
            raise EngineError(
                f"int8 engine: operand {which} has values outside [{lo}, {hi + 1}]"
            )
        as_int8 = xi.astype(np.int64)
        as_int8 = np.where(as_int8 == hi + 1, lo, as_int8)
        return as_int8.astype(np.int8)

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = a.shape[1]
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if self.use_blas:
            return _sgemm_int32(a, b)
        return self._compute_integer(a, b)

    # -- fused stacked path ---------------------------------------------------
    def matmul_stack(self, a: np.ndarray, b: np.ndarray, trusted: bool = False) -> np.ndarray:
        """Fused batched product ``(N, m, k) @ (N, k, n) -> (N, m, n)``.

        Unlike the generic per-slice fallback, this override issues the
        ``N`` residue GEMMs of one modulus chunk as a single stacked float32
        SGEMM per 1024-wide k-chunk (:func:`_sgemm_int32`), so they cost one
        engine call's worth of Python/NumPy overhead.  Exactness window:
        ``|a|, |b| <= 128`` bounds every partial sum of a ``k <= 1024``
        chunk by ``2**24``, which float32 represents exactly in any
        summation order; chunks are summed in wrapping int32, which is the
        hardware accumulator's own arithmetic.  So the result is
        bit-identical to ``N`` separate :meth:`~repro.engines.base.
        MatrixEngine.matmul` calls and to the ``use_blas=False`` integer
        reference at every ``k``, and the op ledger records the same ``N``
        GEMMs.

        ``trusted=True`` additionally skips the per-call validation sweeps
        when the operands are already INT8 — the contract for residue stacks
        produced by this library's own conversion (:func:`repro.core.
        conversion.residue_slices` and prepared operands), whose values are
        in range by construction.  Operands of any other dtype are validated
        regardless of the flag, so external callers keep full validation by
        default.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        self._check_stack_shapes(a, b)
        n_stack, m, k = a.shape
        n = b.shape[2]
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if trusted and a.dtype == np.int8 and b.dtype == np.int8:
            a8, b8 = a, b
        else:
            a8 = self._prepare(a, "A")
            b8 = self._prepare(b, "B")
        if self.use_blas:
            out = _sgemm_int32(a8, b8)
        else:
            out = self._compute_integer(a8, b8)
        self.counter.record_matmul(
            m,
            n,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )
        return out

    # -- fused stacked GEMV path ----------------------------------------------
    def matvec_stack(self, a: np.ndarray, v: np.ndarray, trusted: bool = False) -> np.ndarray:
        """Fused batched GEMV ``(N, m, k) @ (N, k) -> (N, m)``.

        The ``n = 1`` products are bandwidth-bound on the INT8 residue
        stack, so promoting it to floating point for BLAS — the right call
        for GEMM, where the arithmetic amortises the promotion traffic —
        costs more than the whole product here.  This override instead
        contracts the INT8 operands directly with an INT32-accumulating
        :func:`numpy.einsum`, reading the stack once at one byte per
        element.

        INT32 accumulation wraps in two's complement exactly like the
        hardware accumulator: every partial sum is congruent modulo 2**32
        regardless of order, so the result is bit-identical to the GEMM
        path's int32 chunk sums for every ``k`` the engine accepts (only
        ``k = 2**17`` can reach the ``±2**31`` boundary, Section 4.3).
        ``trusted`` has the :meth:`matmul_stack` contract: INT8 stacks
        produced by this library's own conversion skip the per-call
        validation sweeps; any other dtype is validated regardless.
        The op ledger records the same ``N`` GEMVs as the generic fallback.
        """
        a = np.asarray(a)
        v = np.asarray(v)
        self._check_vec_stack_shapes(a, v)
        n_stack, m, k = a.shape
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if trusted and a.dtype == np.int8 and v.dtype == np.int8:
            a8, v8 = a, v
        else:
            a8 = self._prepare(a, "A")
            v8 = self._prepare(v, "B")
        with np.errstate(over="ignore"):
            out = np.einsum("nmk,nk->nm", a8, v8, dtype=np.int32)
        self.counter.record_matmul(
            m,
            1,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )
        return out

    # -- reference path ------------------------------------------------------
    @staticmethod
    def _compute_integer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reference integer product with native int32 wraparound."""
        with np.errstate(over="ignore"):
            return np.matmul(a.astype(np.int32), b.astype(np.int32)).astype(np.int32)
