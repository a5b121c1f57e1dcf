"""Accumulation and CRT reconstruction (lines 7–12 of Algorithm 1).

The INT32 products ``C'_i = A'_i B'_i`` are first reduced to UINT8 residue
matrices ``U_i = mod(C'_i, p_i)``; the CRT reconstruction then becomes

.. math::

    C' = Σ_i w_i U_i, \\qquad C'' = C' - P\\,\\mathrm{round}(C'/P),

evaluated entirely in FP64 using the split weights ``w_i ≈ s_{i1} + s_{i2}``
of Section 4.1.  Because every ``s_{i1} U_i`` is an integer multiple of a
common power of two and their sum stays below 2^53 times that unit, the
first accumulation ``C'^{(1)} = Σ_i s_{i1} U_i`` is *error-free*; the second
accumulation ``C'^{(2)} = Σ_i s_{i2} U_i`` carries the low-order bits.  The
final combination uses FMA so the huge cancellation ``C'^{(1)} − P_1 Q`` is
performed without forming the product ``P_1 Q`` inexactly.

Both production kernels are elementwise and run over the flat output axis
in blocks of :data:`repro.crt.residues._BLOCK` elements, so every
temporary — the ``(N, block)`` float64 U-slices, the software-FMA terms —
stays cache-resident; only the ``(m, n)`` results ``C1``, ``C2`` and
``C''`` are written at full size.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from ..crt.constants import CRTConstantTable
from ..crt.residues import _BLOCK, uint8_residues, uint8_residues_stack
from ..utils.fma import fma

__all__ = ["accumulate_residue_products", "reconstruct_crt", "unscale"]


@functools.lru_cache(maxsize=None)
def _split_tail_terms(moduli: Tuple[int, ...], precision_bits: int) -> Tuple[bool, Tuple[int, ...]]:
    """Cached ``(need_c2, nonzero s2 indices)`` for one constant table.

    These depend only on the moduli prefix and the table bit width (the
    32-bit tables always report ``(False, ())`` — their weights are kept
    unsplit), yet were recomputed — an ``any`` plus a ``flatnonzero`` sweep
    over the split tails — on every GEMM/GEMV call.  Keyed like the
    constant-table cache itself, so auto-N runs hopping between moduli
    counts each hit their own entry.
    """
    from ..crt.constants import build_constant_table

    table = build_constant_table(len(moduli), precision_bits, moduli=moduli)
    nonzero = tuple(int(i) for i in np.flatnonzero(table.s2))
    return bool(nonzero), nonzero


def accumulate_residue_products(
    c_stack: np.ndarray,
    table: CRTConstantTable,
    use_mulhi: bool = False,
    vectorized: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Compute ``C'^{(1)} = Σ s_i1 U_i`` and ``C'^{(2)} = Σ s_i2 U_i``.

    Parameters
    ----------
    c_stack:
        INT32 (or integer-valued) array of shape ``(N, m, n)`` holding the
        residue products ``C'_i``.
    table:
        Constant table providing moduli, split weights and reciprocals.
    use_mulhi:
        Use the ``__mulhi`` fast kernel for ``mod`` (Section 4.3) instead of
        the exact integer remainder.  Both yield identical ``U_i``.
    vectorized:
        When True (default), walk the flat ``m·n`` axis in blocks of about
        8k elements: each block's U-slices come from the division-free
        reduction of :func:`repro.crt.residues.uint8_residues_stack`
        straight into one reused ``(N, block)`` float64 scratch and are
        summed while still in cache — no ``(N, m, n)`` float64 U-stack is
        formed.  For the 64-bit tables each block of ``C1`` is one
        :func:`numpy.dot` of the split weights against the scratch; ``C1``
        is order-independent because the split-weight accumulation is
        *error-free* (every ``s_i1 U_i`` has at most ``β_i + 8 <= 53``
        significant bits and every partial sum is an exact multiple of a
        common unit below 2^53 — Section 4.3), so any summation order gives
        the identical float64 result.  The 32-bit tables keep the full
        (unsplit) weights, whose accumulation carries rounding; there — and
        for the inexact ``C2`` terms — the fixed ascending-modulus order of
        the per-modulus loop is preserved, so the result stays
        bit-identical with ``vectorized=False``, the per-modulus loop kept
        only as the comparator.

    Returns
    -------
    (C1, C2):
        ``C1`` is an exact float64 ``(m, n)`` matrix.  ``C2`` holds the
        low-order correction, or is ``None`` when every split-weight tail
        ``s_i2`` is zero (always the case for SGEMM emulation) — the dead
        all-zero accumulation is skipped instead of allocated.
    """
    c_stack = np.asarray(c_stack)
    if c_stack.ndim != 3 or c_stack.shape[0] != table.num_moduli:
        raise ValueError(
            f"c_stack must have shape (N, m, n) with N={table.num_moduli}, "
            f"got {c_stack.shape}"
        )
    need_c2, s2_nonzero = _split_tail_terms(table.moduli, table.precision_bits)
    if vectorized:
        return _accumulate_blocked(c_stack, table, use_mulhi, need_c2, s2_nonzero)

    m, n = c_stack.shape[1:]
    c1 = np.zeros((m, n), dtype=np.float64)
    c2 = np.zeros((m, n), dtype=np.float64) if need_c2 else None
    for i, p in enumerate(table.moduli):
        pinv_prime = int(table.pinv_prime[i]) if use_mulhi else None
        u = uint8_residues(c_stack[i], p, pinv_prime).astype(np.float64)
        c1 += table.s1[i] * u
        if need_c2:
            c2 += table.s2[i] * u
    return c1, c2


def _accumulate_blocked(
    c_stack: np.ndarray,
    table: CRTConstantTable,
    use_mulhi: bool,
    need_c2: bool,
    s2_nonzero: Tuple[int, ...],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Blocked U-reduction and split-weight accumulation (``vectorized=True``).

    Walks the flat ``m·n`` axis in blocks of :data:`~repro.crt.residues.
    _BLOCK` elements; each block's residues land in one reused
    ``(N, block)`` float64 scratch, which is consumed by the ``C1``/``C2``
    sums while still in cache, so no ``(N, m, n)`` float64 stack exists.
    """
    num_moduli = table.num_moduli
    shape = c_stack.shape[1:]
    flat_c = c_stack.reshape(num_moduli, -1)
    size = flat_c.shape[1]
    c1 = np.empty(size, dtype=np.float64)
    c2 = np.empty(size, dtype=np.float64) if need_c2 else None
    # Carved from one flat buffer so the short tail block is C-contiguous too.
    scratch = np.empty(num_moduli * min(_BLOCK, size), dtype=np.float64)
    term = np.empty(min(_BLOCK, size), dtype=np.float64)
    pinv_prime = table.pinv_prime if use_mulhi else None
    exact_c1 = table.precision_bits == 64
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        cols = stop - start
        u = uint8_residues_stack(
            flat_c[:, start:stop],
            table.moduli,
            pinv_prime,
            out=scratch[: num_moduli * cols].reshape(num_moduli, cols),
        )
        c1_block = c1[start:stop]
        if exact_c1:
            # Error-free split-weight sum: any order (BLAS included) gives
            # the same float64 value.
            np.dot(table.s1, u, out=c1_block)
        else:
            # Unsplit 32-bit weights: the sum is inexact, keep the loop order
            # (0 + s1[0]·U_0 is exactly s1[0]·U_0, as every term is >= 0).
            np.multiply(u[0], table.s1[0], out=c1_block)
            for i in range(1, num_moduli):
                c1_block += np.multiply(u[i], table.s1[i], out=term[:cols])
        if c2 is not None:
            # Ordered accumulation of the inexact low-order terms; adding a
            # term with s2[i] == 0 is a bitwise no-op (all terms are >= 0),
            # so only the nonzero ones are visited.
            c2_block = c2[start:stop]
            c2_block.fill(0.0)
            for i in s2_nonzero:
                c2_block += np.multiply(u[i], table.s2[i], out=term[:cols])
    return c1.reshape(shape), None if c2 is None else c2.reshape(shape)


def reconstruct_crt(
    c1: np.ndarray, c2: Optional[np.ndarray], table: CRTConstantTable
) -> np.ndarray:
    """Reconstruct ``C'' = rmod(C', P)`` from the two accumulations.

    Implements lines 10–11 of Algorithm 1::

        Q   = round(Pinv · C'^{(1)})
        C'' = ((C'^{(1)} − P1·Q) + C'^{(2)}) − P2·Q      (FMA form)

    ``Q`` is the integer multiple of ``P`` contained in ``C'``; subtracting
    it with the double-double ``P ≈ P1 + P2`` and FMA keeps the massive
    cancellation exact to FP64 accuracy.  ``c2 = None`` (the sentinel for an
    all-zero second accumulation) skips the addition outright.  The scalar
    coefficients ``-P1`` / ``-P2`` broadcast through :func:`~repro.utils.
    fma.fma` directly — no full-size constant matrices are materialised.

    The formula runs block by block (:data:`~repro.crt.residues._BLOCK`
    elements of the flat axis) into one preallocated output, so its
    temporaries stay in cache; the per-element arithmetic and its order are
    those of the whole-array formula, hence bit-identical to it.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    out = np.empty(c1.shape, dtype=np.float64)
    flat_c1 = c1.reshape(-1)
    flat_c2 = None if c2 is None else np.asarray(c2, dtype=np.float64).reshape(-1)
    flat_out = out.reshape(-1)
    for start in range(0, flat_c1.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        c1_block = flat_c1[block]
        q = np.rint(table.Pinv * c1_block)
        t = fma(-table.P1, q, c1_block)
        if flat_c2 is not None:
            t = t + flat_c2[block]
        flat_out[block] = fma(-table.P2, q, t)
    return out


def unscale(
    c_pp: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    out_dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Line 12 of Algorithm 1: ``C = diag(μ⁻¹)·C''·diag(ν⁻¹)``.

    The scales are powers of two, so the divisions are exact; they are
    implemented as multiplications by the exact reciprocals.
    """
    inv_mu = 1.0 / np.asarray(mu, dtype=np.float64)
    inv_nu = 1.0 / np.asarray(nu, dtype=np.float64)
    c = c_pp * inv_mu[:, None]
    c *= inv_nu[None, :]
    return np.asarray(c, dtype=out_dtype)
