"""Residue kernels: ``rmod`` and ``mod`` (Sections 4.2 and 4.3).

Three families of implementations are provided.

Reference kernels
    :func:`rmod_exact` and :func:`mod_exact` use exact integer remainders
    (int64 ``%`` after an exact hi/lo split of large values), so they
    realise the mathematical definitions

    .. math::

        \\mathrm{rmod}(X, p) = X - p\\,\\mathrm{round}(X/p), \\qquad
        \\mathrm{mod}(X, p)  = X - p\\,\\lfloor X/p \\rfloor

    with no error, one modulus at a time.  They are the oracle the
    production kernels are tested against, and the per-modulus comparator
    path of :func:`residues_to_int8` (``single_pass=False``).

Production kernels
    The single-pass conversion of :func:`residues_to_int8` and the exact
    branch of :func:`uint8_residues_stack` are division-free: each residue is
    one float64 multiply by a precomputed reciprocal, a floor and an exact
    back-multiply, evaluated over a moduli axis broadcast against a block of
    elements (see :func:`_rmod` for the exactness window and its proof).
    Like the paper's kernels they avoid hardware division, but unlike them
    they need no correction step inside the window, so they are bit-identical
    to the reference kernels.

Paper kernels
    :func:`rmod_fast_fma` reproduces the FMA/reciprocal kernel of
    Section 4.2 (built-in ``fmod`` is slow on GPUs, so the paper multiplies
    by a precomputed reciprocal, rounds, and corrects with up to two extra
    FMA steps depending on ``N``), and :func:`mod_fast_mulhi` reproduces the
    ``__mulhi``-based integer kernel of Section 4.3.  They exist both for
    fidelity to the paper and so the test-suite can check the windows of
    validity the paper states (``N <= 18`` for FP32 inputs, ``N <= 20`` for
    FP64 inputs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..utils.fma import fma

__all__ = [
    "rmod_exact",
    "mod_exact",
    "rmod_fast_fma",
    "mod_fast_mulhi",
    "residues_to_int8",
    "uint8_residues",
    "uint8_residues_stack",
]

#: Correction-step thresholds (N1, N2) of the fast rmod kernel, per input
#: precision (Section 4.2).
_FAST_RMOD_THRESHOLDS = {64: (13, 19), 32: (5, 11)}


#: Largest magnitude the reference remainder converts to int64 directly
#: (one bit of headroom below 2**63).
_INT64_SAFE_LIMIT = 2.0**62


def _nonneg_mod_integer_valued(
    x: np.ndarray, p: int, max_abs: float | None = None
) -> np.ndarray:
    """Exact ``x mod p`` in ``[0, p)`` for integer-valued float64 ``x``.

    Uses int64 remainders (much faster than ``fmod``) whenever the values
    fit; larger values — which occur for many moduli, where the scaled
    matrices can exceed 2**62 — are split exactly into
    ``x = hi * 2**31 + lo`` (both parts fit int64) and recombined modulo
    ``p``.  Either way the result is exact for ``|x| < 2**93``, far above
    the about ``2**78`` the scaling produces at ``N = 20``.

    ``max_abs`` lets callers that reduce the *same* matrix by many moduli
    pass a precomputed ``max(|x|)``, so the full-matrix scan that selects the
    int64 path runs once per conversion instead of once per modulus.
    """
    x = np.asarray(x, dtype=np.float64)
    p_int = int(p)
    if max_abs is None:
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs < _INT64_SAFE_LIMIT:
        return np.remainder(x.astype(np.int64), p_int).astype(np.float64)
    # Exact split: hi = floor(x / 2^31) is an integer below 2^62 for
    # |x| < 2^93 (far above anything the scaling can produce); lo = x - hi*2^31
    # lies in [0, 2^31).  Both steps are exact in float64.
    hi = np.floor(np.ldexp(x, -31))
    lo = x - np.ldexp(hi, 31)
    hi_mod = np.remainder(hi.astype(np.int64), p_int)
    lo_mod = np.remainder(lo.astype(np.int64), p_int)
    shift_mod = pow(2, 31, p_int)
    return np.remainder(hi_mod * shift_mod + lo_mod, p_int).astype(np.float64)


def rmod_exact(x: np.ndarray, p: int, max_abs: float | None = None) -> np.ndarray:
    """Centred remainder ``x - p*round(x/p)`` computed exactly.

    ``x`` must contain integer-valued float64 entries (as produced by the
    truncation step of Algorithm 1).  The result lies in ``[-p/2, p/2]``;
    for even ``p`` the boundary value ``+p/2`` is kept (the INT8 engine
    wraps ``+128`` to ``-128``, which is congruent modulo 256).  ``max_abs``
    is an optional precomputed ``max(|x|)`` (see
    :func:`_nonneg_mod_integer_valued`).
    """
    p_f = float(int(p))
    r = _nonneg_mod_integer_valued(x, p, max_abs=max_abs)
    return np.where(r > p_f / 2.0, r - p_f, r)


def mod_exact(x: np.ndarray, p: int) -> np.ndarray:
    """Non-negative remainder ``x mod p`` in ``[0, p)`` (exact)."""
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.floating):
        return _nonneg_mod_integer_valued(x, p)
    return np.mod(x, np.asarray(p, dtype=x.dtype))


def rmod_fast_fma(
    x: np.ndarray,
    p: int,
    pinv_b: float,
    pinv32: float,
    num_moduli: int,
    precision_bits: int,
) -> np.ndarray:
    """The paper's fast ``rmod`` kernel (Section 4.2).

    Steps (with ``fma(a, b, c) = a*b + c``):

    1. ``y = single(fma(round(x * pinv_b), -p, x))``
    2. if ``N >= N1``: ``y = fma(round(y * pinv32), -p, y)``
    3. if ``N >= N2``: ``y = fma(round(y * pinv32), -p, y)``

    where ``(N1, N2) = (13, 19)`` for FP64 inputs and ``(5, 11)`` for FP32
    inputs.  The kernel returns values congruent to ``x`` modulo ``p`` whose
    magnitude fits INT8 for the ``N`` ranges stated in the paper; the test
    suite verifies this window against :func:`rmod_exact`.
    """
    try:
        n1, n2 = _FAST_RMOD_THRESHOLDS[int(precision_bits)]
    except KeyError:
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        ) from None
    x = np.asarray(x, dtype=np.float64)
    p_f = float(int(p))
    y = fma(np.rint(x * float(pinv_b)), -p_f, x)
    # The paper stores the first correction in FP32; the value is already
    # small (order p * number-of-correction-steps), so this cast is lossless
    # for integers below 2^24 and mirrors the GPU register usage.
    y = np.asarray(y, dtype=np.float32).astype(np.float64)
    if num_moduli >= n1:
        y = fma(np.rint(y * float(pinv32)), -p_f, y)
    if num_moduli >= n2:
        y = fma(np.rint(y * float(pinv32)), -p_f, y)
    return y


def mod_fast_mulhi(c: np.ndarray, p: int, pinv_prime: int) -> np.ndarray:
    """The paper's ``__mulhi``-based ``mod`` kernel for INT32 inputs.

    Steps (Section 4.3), with ``mulhi`` the upper 32 bits of the 64-bit
    product:

    1. ``y = x - mulhi(x, pinv') * p``
    2. ``y = y - (y >= p) * p``
    3. ``y = y + (y < 0) * p``

    Returns values in ``[0, p)`` equal to ``c mod p``.
    """
    c64 = np.asarray(c, dtype=np.int64)
    t = (c64 * np.int64(int(pinv_prime))) >> np.int64(32)
    y = c64 - t * np.int64(int(p))
    y = y - (y >= p) * np.int64(int(p))
    y = y + (y < 0) * np.int64(int(p))
    return y


def _wrap_to_int8(r: np.ndarray) -> np.ndarray:
    """Cast centred residues to INT8, wrapping ``+128`` to ``-128``.

    Values must already lie in ``[-128, 128]``; the single boundary value
    ``+128`` (reachable only for ``p = 256``) wraps exactly as the hardware
    cast does and is congruent modulo 256 (Section 4.1).
    """
    r_int = np.rint(r).astype(np.int16)
    r_int = np.where(r_int == 128, np.int16(-128), r_int)
    return r_int.astype(np.int8)


def residues_to_int8(
    x: np.ndarray,
    moduli: Sequence[int],
    kernel: str = "exact",
    pinv_b: np.ndarray | None = None,
    pinv32: np.ndarray | None = None,
    precision_bits: int = 64,
    single_pass: bool = True,
) -> np.ndarray:
    """Residues of an integer-valued array for every modulus, as INT8.

    Returns an array of shape ``(N, *x.shape)`` holding
    ``rmod(x, p_i)`` cast to INT8 (lines 4-5 of Algorithm 1).  ``x`` may be
    any shape — the kernels are element-wise, so a 1-D vector (the ``n = 1``
    GEMV operand of :func:`repro.core.gemv.prepared_gemv`) converts in the
    same single pass as a matrix and is bit-identical to converting the
    equivalent ``(k, 1)`` column: a vector-shaped conversion is simply a
    matrix-shaped one without the dead trailing axis.

    Parameters
    ----------
    x:
        Integer-valued float64 array (``A'``, ``B'`` or a GEMV vector
        ``x'``).
    moduli:
        Sequence of moduli.
    kernel:
        ``"exact"`` (default) or ``"fast_fma"`` for the Section 4.2 kernel.
    pinv_b, pinv32, precision_bits:
        Reciprocal tables and input precision, required by the fast kernel.
    single_pass:
        When True (default), run the division-free blocked kernel, which
        broadcasts every element block across a leading moduli axis (see
        :func:`_residues_to_int8_single_pass`).  When False, fall back to
        the per-modulus integer-remainder loop (kept as the reference
        comparator for benchmarks and bit-identity tests).  Both paths are
        exact and bit-identical.
    """
    x = np.asarray(x, dtype=np.float64)
    mods = [int(p) for p in moduli]
    if kernel not in ("exact", "fast_fma"):
        raise ConfigurationError(f"unknown residue kernel {kernel!r}")
    if kernel == "fast_fma" and (pinv_b is None or pinv32 is None):
        raise ConfigurationError("fast_fma kernel requires pinv_b and pinv32 tables")
    if single_pass:
        return _residues_to_int8_single_pass(
            x, mods, kernel, pinv_b, pinv32, precision_bits
        )
    return _residues_to_int8_loop(x, mods, kernel, pinv_b, pinv32, precision_bits)


def _residues_to_int8_loop(
    x: np.ndarray,
    mods: "list[int]",
    kernel: str,
    pinv_b: np.ndarray | None,
    pinv32: np.ndarray | None,
    precision_bits: int,
) -> np.ndarray:
    """Per-modulus conversion loop (the pre-fusion reference path).

    The only cross-modulus saving applied here is the hoisted ``max(|x|)``
    scan: one conversion serves all ``N`` moduli of the exact kernel instead
    of rescanning the same matrix per modulus.
    """
    out = np.empty((len(mods),) + x.shape, dtype=np.int8)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    for i, p in enumerate(mods):
        if kernel == "exact":
            r = rmod_exact(x, p, max_abs=max_abs)
        else:
            r = rmod_fast_fma(
                x, p, float(pinv_b[i]), float(pinv32[i]), len(mods), precision_bits
            )
        out[i] = _wrap_to_int8(r)
    return out


#: Elements of the flat operand axis processed per block by the
#: division-free kernels.  One block holds an ``(N, _BLOCK)`` float64
#: working set per temporary (about 1 MiB at ``N = 15``), small enough to
#: stay in cache across the kernel's passes while the per-block Python
#: overhead is amortised over ``N`` rows; 8192 measured fastest among
#: 1k–32k on a 2-vCPU x86 host.
_BLOCK = 8192

#: Exclusive magnitude bound of the single-step reciprocal ``rmod`` window
#: (see :func:`_rmod`).
_RMOD_DIRECT_LIMIT = 2.0**50

#: Width of the low limb split off values beyond the direct window.
_LIMB_BITS = 26
_LIMB = 2.0**_LIMB_BITS
_LIMB_INV = 2.0**-_LIMB_BITS


def _rmod(
    x: np.ndarray,
    p_col: np.ndarray,
    pinv_col: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """``x − p·⌊x·(1/p) + ½⌋`` for every row modulus, exactly.

    ``p_col`` and ``pinv_col`` are ``(N, 1)`` float64 columns of moduli and
    their rounded reciprocals; ``x`` is an integer-valued float64 block that
    broadcasts against them (one ``(B,)`` block for all moduli, or an
    ``(N, B)`` block with one row per modulus).  The result is computed in
    place in the ``(N, B)`` float64 buffer ``work`` (which must not be
    ``x``) and returned; it is the centred representative
    ``((x + ⌊p/2⌋) mod p) − ⌊p/2⌋`` in ``[−⌊p/2⌋, p − 1 − ⌊p/2⌋]``.

    **Exactness window: |x| < 2^50, p odd or a power of two.**  Let
    ``u = 2^-53``.  The computed ``y = fl(fl(x·fl(1/p)) + ½)`` carries three
    roundings of relative size ``u`` each, so
    ``|y − (x/p + ½)| ≤ (3u + 4u²)·|x/p| + u/2``.  For odd ``p`` the exact
    value ``(2x + p)/(2p)`` has an odd numerator, so it lies at least
    ``1/(2p)`` from every integer; the floor is therefore exact whenever
    ``(3u + 4u²)·|x| + p·u/2 < ½``, which holds with a 25% margin for
    ``|x| < 2^50`` (the left side is below ``3/8 + 2^-45``).  For
    ``p = 2^s`` every step is exact: ``1/p`` is a power of two and
    ``x/p + ½`` is a multiple of ``2^-s`` below ``2^50``, so the ``+p/2``
    ties land on ``−p/2``, exactly as the INT8 wrap of ``+128`` does.  The
    quotient ``q`` satisfies ``|q·p| < 2^50 + p``, so the back-multiply and
    the final subtraction are exact integer operations as well.
    """
    np.multiply(x, pinv_col, out=work)
    work += 0.5
    np.floor(work, out=work)
    work *= p_col
    return np.subtract(x, work, out=work)


def _limb_count(max_abs: float, limb_max: int) -> int:
    """Number of ``2^26`` limbs to split off values bounded by ``max_abs``.

    Zero inside the direct ``rmod`` window.  Otherwise the smallest count
    whose top limb ``T`` folds into the most significant low limb inside
    the window: ``|T|·limb_max + 2^26 < 2^50``, where ``limb_max`` is
    ``max_i(2^26 mod p_i)`` and the low limb lies in ``[0, 2^26)``.  The
    bound is tracked in exact integers.
    """
    if max_abs < _RMOD_DIRECT_LIMIT:
        return 0
    bound = int(max_abs)
    count = 0
    while True:
        # floor() can grow a negative top part by at most one.
        bound = (bound >> _LIMB_BITS) + 1
        count += 1
        if bound * limb_max + 2**_LIMB_BITS < int(_RMOD_DIRECT_LIMIT):
            return count


def _residues_to_int8_single_pass(
    x: np.ndarray,
    mods: "list[int]",
    kernel: str,
    pinv_b: np.ndarray | None,
    pinv32: np.ndarray | None,
    precision_bits: int,
) -> np.ndarray:
    """Division-free conversion of the exact kernel for all ``N`` moduli.

    The flat element axis is processed in blocks of :data:`_BLOCK`
    elements; within a block every modulus is computed at once by
    broadcasting the block against ``(N, 1)`` modulus and reciprocal
    columns (:func:`_rmod`), and the result is cast into the INT8 output.
    The same loop serves ``(m, k)`` matrices, batched stacks and 1-D GEMV
    vectors.

    Values with ``|x| < 2^50`` (every fp32 input) take one reciprocal
    ``rmod`` per modulus.  Larger values (fp64 inputs reach about ``2^57`` at
    ``N = 15``) are split once per block into limbs: ``xh = ⌊x·2^-26⌋`` and
    ``xl = x − xh·2^26 ∈ [0, 2^26)`` — both exact, since scaling by a power
    of two and subtracting to a representable integer are exact.  The split
    repeats on ``xh`` until the top limb ``T`` satisfies
    ``|T|·max_i(2^26 mod p_i) + 2^26 < 2^50`` (:func:`_limb_count`); the top
    limb is then *folded* into the most significant low limb ``xl`` with no
    ``rmod`` of its own: each modulus evaluates ``rmod(T·(2^26 mod p) + xl,
    p)``.  That is exact: ``T`` and ``xl`` are exact integers, every product
    and sum is an integer of magnitude below ``2^50`` (so exactly
    representable and inside the proven window of :func:`_rmod`), and the
    value is congruent to ``T·2^26 + xl`` modulo ``p``, so its centred
    residue is the same.  One limb covers ``|x|`` up to about ``2^67.9``,
    so such a value costs one ``rmod`` per residue.  Any further low limbs
    fold in as before, ``rmod(r·(2^26 mod p) + xl, p)`` with ``|r| <= 128``,
    whose inner value stays below ``2^27``; so every finite input is
    converted exactly, and the result equals the per-modulus loop bit for
    bit.

    The per-modulus loop serves the fast-FMA kernel (pure per-modulus
    floating-point arithmetic with nothing to share), non-finite inputs,
    and user moduli that are even but not a power of two — the one case
    where the ``+½`` tie of :func:`_rmod` is not resolved exactly.
    """
    if kernel == "fast_fma" or any(p % 2 == 0 and p & (p - 1) for p in mods):
        return _residues_to_int8_loop(x, mods, kernel, pinv_b, pinv32, precision_bits)
    flat = x.reshape(-1)
    out = np.empty((len(mods), flat.size), dtype=np.int8)
    max_abs = float(np.max(np.abs(flat))) if flat.size else 0.0
    if not np.isfinite(max_abs):
        return _residues_to_int8_loop(x, mods, kernel, pinv_b, pinv32, precision_bits)
    limb_mods = [pow(2, _LIMB_BITS, p) for p in mods]
    num_limbs = _limb_count(max_abs, max(limb_mods, default=0))
    p_col = np.array(mods, dtype=np.float64)[:, None]
    pinv_col = 1.0 / p_col
    limb_col = np.array(limb_mods, dtype=np.float64)[:, None]
    width = min(_BLOCK, flat.size)
    buffers = (
        np.empty((len(mods), width), dtype=np.float64),
        np.empty((len(mods), width), dtype=np.float64),
    )
    for start in range(0, flat.size, _BLOCK):
        top = flat[start:start + _BLOCK]
        cols = top.size
        limbs: list[np.ndarray] = []
        for _ in range(num_limbs):
            high = top * _LIMB_INV
            np.floor(high, out=high)
            low = high * _LIMB
            limbs.append(np.subtract(top, low, out=low))
            top = high
        if limbs:
            # Fold the top limb into the most significant low limb.
            residue = np.multiply(top, limb_col, out=buffers[1][:, :cols])
            residue += limbs.pop()
        else:
            residue = top
        residue = _rmod(residue, p_col, pinv_col, buffers[0][:, :cols])
        for depth, low in enumerate(reversed(limbs), start=1):
            residue *= limb_col
            residue += low
            residue = _rmod(residue, p_col, pinv_col, buffers[depth % 2][:, :cols])
        np.copyto(out[:, start:start + cols], residue, casting="unsafe")
    return out.reshape((len(mods),) + x.shape)


def uint8_residues(c_int32: np.ndarray, p: int, pinv_prime: int | None = None) -> np.ndarray:
    """``U_i = mod(C'_i, p_i)`` as UINT8 (line 7 of Algorithm 1).

    When ``pinv_prime`` is given the ``__mulhi`` fast kernel is used,
    otherwise the exact integer remainder.
    """
    if pinv_prime is None:
        u = np.mod(np.asarray(c_int32, dtype=np.int64), int(p))
    else:
        u = mod_fast_mulhi(c_int32, p, pinv_prime)
    return u.astype(np.uint8)


def uint8_residues_stack(
    c_stack: np.ndarray,
    moduli: Sequence[int],
    pinv_prime: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``U = [mod(C'_1, p_1), ..., mod(C'_N, p_N)]`` for the whole stack.

    ``c_stack`` is the ``(N, m, n)`` integer residue-product stack; entry
    ``i`` is reduced by modulus ``moduli[i]``.  Bit-identical to calling
    :func:`uint8_residues` per modulus.  When ``pinv_prime`` (the
    ``⌊2^32/p_i − 1⌋`` table) is given, the ``__mulhi`` fast kernel of
    Section 4.3 is used per modulus.

    Otherwise the stack is reduced division-free, in the blocked
    moduli-broadcast loop of the conversion: each block of ``C'`` is widened
    to float64 and ``u = c − p·⌊(c + ½)·(1/p)⌋`` is evaluated against
    ``(N, 1)`` modulus and reciprocal columns, the last step writing
    straight into the output.  **Exactness window: |c| < 2^50**, which
    covers every INT32 product and every INT64 sum of k-blocked partials a
    real run produces.  Proof: ``(c + ½)/p = (2c + 1)/(2p)`` has an odd
    numerator, so it lies at least ``1/(2p)`` from every integer — for
    every ``p``, even or odd, and in particular exact multiples of ``p``
    sit half a step above the floor boundary.  The computed quotient
    ``fl(fl(c + ½)·fl(1/p))`` — ``c + ½`` itself is exact — carries two
    roundings of relative size ``u = 2^-53``, an absolute error of at most
    ``(2u + u²)·|c + ½|/p``, which is below ``1/(4p)`` for ``|c| < 2^50``;
    so the floor is exact, and the back-multiply and subtraction are exact
    integer operations yielding ``c mod p ∈ [0, p)``.  Stacks of a dtype
    wider than INT32 are checked against the window.

    ``out`` may supply a preallocated C-contiguous ``c_stack.shape`` array
    of any dtype that can represent ``[0, 255]``; the blocked accumulation
    passes its ``(N, block)`` float64 scratch, so the residues land in their
    final representation with no separate widening pass (a float64 ``out``
    also holds the quotients, so no further scratch is allocated).  Without
    ``out``, a UINT8 stack is returned.
    """
    c = np.asarray(c_stack)
    u = out if out is not None else np.empty(c.shape, dtype=np.uint8)
    if pinv_prime is not None:
        for i, p in enumerate(moduli):
            u[i] = mod_fast_mulhi(c[i], p, int(pinv_prime[i]))
        return u
    num_moduli = len(moduli)
    flat_c = c.reshape(num_moduli, -1)
    size = flat_c.shape[1]
    if size == 0:
        return u
    if c.dtype.itemsize > 4 or not np.issubdtype(c.dtype, np.integer):
        peak = float(np.max(np.abs(flat_c)))
        if not peak < _RMOD_DIRECT_LIMIT:
            raise ValueError(
                f"residue products of magnitude {peak:g} exceed the exact "
                "reduction window |c| < 2**50"
            )
    if not u.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array")
    flat_u = u.reshape(num_moduli, -1)
    p_col = np.array([int(p) for p in moduli], dtype=np.float64)[:, None]
    pinv_col = 1.0 / p_col
    # A float64 output is its own scratch: each block's quotient is built in
    # the destination and overwritten by the remainder.
    scratch = (
        None
        if u.dtype == np.float64
        else np.empty((num_moduli, min(_BLOCK, size)), dtype=np.float64)
    )
    for start in range(0, size, _BLOCK):
        block = flat_c[:, start:start + _BLOCK]
        dest = flat_u[:, start:start + _BLOCK]
        q = dest if scratch is None else scratch[:, :block.shape[1]]
        np.add(block, 0.5, out=q)
        q *= pinv_col
        np.floor(q, out=q)
        q *= p_col
        np.subtract(block, q, out=dest, casting="unsafe")
    return u
