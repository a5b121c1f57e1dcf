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
  result is bit-identical to the integer reference at every ``k``.  The
  stacked GEMV (:meth:`Int8MatrixEngine.matvec_stack`) uses the same window
  with float32 SGEMV (:func:`_sgemv_int32`): it promotes one ~1 MiB row
  block of one modulus at a time into a reused float32 buffer instead of
  the whole stack, because a GEMV has too little arithmetic to amortise a
  full float32 copy.
* ``use_blas=False``: operands are multiplied directly with NumPy integer
  arithmetic (int32 accumulators with native wraparound; an
  INT32-accumulating :func:`numpy.einsum` for the stacked GEMV).  This is
  the byte-level reference used in the test suite to validate the fast
  path.

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


#: Float32 elements of the reused promotion buffer of :func:`_sgemv_int32`
#: (``2**18`` elements, 1 MiB).
_SGEMV_BLOCK_ELEMS = 2**18


def _sgemv_int32(a8: np.ndarray, v8: np.ndarray) -> np.ndarray:
    """Exact INT32-wrapping stacked GEMV of INT8 operands via float32 SGEMV.

    ``a8`` is ``(N, m, k)`` and ``v8`` is ``(N, k)``, both INT8 with any
    strides.  The stack is walked one modulus at a time, in row blocks of
    about :data:`_SGEMV_BLOCK_ELEMS` elements, and each row block in
    1024-wide k-chunks.  Each chunk is promoted into one reused contiguous
    float32 buffer and multiplied by the float32 vector chunk in one SGEMV,
    whose partial sums stay within ``±2**24`` and are therefore exact; the
    int32 chunk results are summed with two's-complement wraparound.  So,
    as for :func:`_sgemm_int32`, the result equals the integer reference
    bit for bit at every ``k``.  A GEMV cannot amortise a float32 copy of
    the whole stack the way a GEMM does, so none is made: the only
    stack-sized traffic is the one read of the INT8 entries.
    """
    n_stack, m, k = a8.shape
    width = min(k, _SGEMM_EXACT_K)
    rows = min(m, max(1, _SGEMV_BLOCK_ELEMS // width))
    buf = np.empty(rows * width, dtype=np.float32)
    vf = v8.astype(np.float32)
    out = np.empty((n_stack, m), dtype=np.int32)
    for i in range(n_stack):
        for row in range(0, m, rows):
            dst = out[i, row:row + rows]
            for start in range(0, k, width):
                stop = start + width
                chunk = a8[i, row:row + rows, start:stop]
                block = buf[:chunk.size].reshape(chunk.shape)
                np.copyto(block, chunk, casting="unsafe")
                part = np.dot(block, vf[i, start:stop])
                if start == 0:
                    dst[...] = part
                else:
                    dst += part.astype(np.int32)
    return out


class Int8MatrixEngine(MatrixEngine):
    """Simulated INT8 Tensor Core (INT8 inputs, INT32 accumulation).

    Parameters
    ----------
    use_blas:
        Select the float32 SGEMM/SGEMV fast path (exact, default) or the
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

        The ``n = 1`` products run at the same exactness window as
        :meth:`matmul_stack` (:func:`_sgemv_int32`): ``|a|, |v| <= 128``
        bounds every partial sum of a 1024-wide k-chunk by ``2**24``, so
        each chunk is one exact float32 SGEMV, and the chunks are summed in
        wrapping int32.  The GEMV is bandwidth-bound on the INT8 stack, so
        the promotion is blocked: one modulus at a time, in row blocks of
        about 1 MiB of float32, each promoted into one reused buffer — no
        float32 copy of the stack is ever held.

        INT32 accumulation wraps in two's complement exactly like the
        hardware accumulator, so the result is bit-identical to the GEMM
        path and to the ``use_blas=False`` integer reference (an
        INT32-accumulating :func:`numpy.einsum`) for every ``k`` the engine
        accepts (only ``k = 2**17`` can reach the ``±2**31`` boundary,
        Section 4.3).
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
        if self.use_blas:
            out = _sgemv_int32(a8, v8)
        else:
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
