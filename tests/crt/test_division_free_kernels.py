"""Exact-oracle tests for the division-free residue kernels and the SGEMM engine.

The production conversion, the U-stack reduction and the INT8 engine all
run exact floating-point arithmetic inside proven windows.  These tests
check them against Python-integer arithmetic (conversion, U-stack) and the
``use_blas=False`` integer engine, at the window edges: multiples of ``p``,
the ``±(p − 1)/2`` and ``p = 256`` ties, ``±0.0``, the direct/split
threshold ``2^50``, the largest magnitudes the scaling can produce (about
``2^78`` at ``N = 20``) and beyond, the full INT32 range, and the SGEMM
chunk boundaries ``k = 1024 / 1025`` and the ``k = 2^17`` wraparound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.crt.residues as residues
from repro.crt.moduli import MODULI_TABLE
from repro.crt.residues import (
    _BLOCK,
    _LIMB_BITS,
    _RMOD_DIRECT_LIMIT,
    _limb_count,
    residues_to_int8,
    uint8_residues_stack,
)
from repro.engines.int8 import Int8MatrixEngine

SETTINGS = dict(max_examples=60, deadline=None)

_DIRECT = int(_RMOD_DIRECT_LIMIT)


def _oracle_rmod(values, moduli):
    """``((x + ⌊p/2⌋) mod p) − ⌊p/2⌋`` in Python integers, per modulus."""
    return np.array(
        [[((int(v) + p // 2) % p) - p // 2 for v in values] for p in moduli],
        dtype=np.int64,
    )


def _representable(mantissa: int, shift: int) -> float:
    """An integer-valued float64 ``mantissa · 2^shift`` (|mantissa| < 2^53)."""
    return float(mantissa) * 2.0**shift


@st.composite
def _edge_value(draw, top_bits: int = 90):
    """Integer-valued float64 drawn around the kernels' edge cases."""
    p = draw(st.sampled_from(MODULI_TABLE))
    j = draw(st.integers(min_value=-(2**40), max_value=2**40))
    kind = draw(st.sampled_from(["multiple", "half", "tie256", "zero", "threshold", "wide"]))
    if kind == "multiple":
        return float(j * p)
    if kind == "half":
        return float(j * p + draw(st.sampled_from([-1, 1])) * ((p - 1) // 2))
    if kind == "tie256":
        return float(128 + 256 * j)
    if kind == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    if kind == "threshold":
        offset = draw(st.integers(min_value=-(2**12), max_value=2**12))
        return float(draw(st.sampled_from([1, -1])) * (_DIRECT + offset))
    bits = min(top_bits, 53)
    mantissa = draw(st.integers(min_value=-(2**bits) + 1, max_value=2**bits - 1))
    shift = draw(st.integers(min_value=0, max_value=max(0, top_bits - 53)))
    return _representable(mantissa, shift)


def _check_conversion(values):
    x = np.array(values, dtype=np.float64)
    got = residues_to_int8(x, MODULI_TABLE)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got.astype(np.int64), _oracle_rmod(values, MODULI_TABLE))
    if np.max(np.abs(x)) < 2.0**93:  # the per-modulus loop's hi/lo split window
        np.testing.assert_array_equal(got, residues_to_int8(x, MODULI_TABLE, single_pass=False))


class TestConversionOracle:
    @given(values=st.lists(_edge_value(), min_size=1, max_size=40))
    @settings(**SETTINGS)
    def test_mixed_magnitudes_match_python_ints(self, values):
        # A mixed array takes the path its largest entry selects, so small
        # values are also exercised through the limb split.
        _check_conversion(values)

    @given(values=st.lists(_edge_value(top_bits=50), min_size=1, max_size=40))
    @settings(**SETTINGS)
    def test_direct_window_matches_python_ints(self, values):
        values = [v for v in values if abs(v) < _RMOD_DIRECT_LIMIT] or [0.0]
        _check_conversion(values)

    @given(
        mantissa=st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1),
        shift=st.integers(min_value=0, max_value=950),
    )
    @settings(**SETTINGS)
    def test_any_finite_magnitude_matches_python_ints(self, mantissa, shift):
        _check_conversion([_representable(mantissa, shift), 1.0, -1.0])

    def test_threshold_and_scaling_range_edges(self):
        edges = []
        for bound in (_DIRECT, 2**75, 2**76, 2**78, 2**79):
            for delta in (-3, -1, 0, 1, 3):
                for sign in (1, -1):
                    value = float(sign * (bound + delta * (bound >> 52 or 1)))
                    edges.append(value)
        edges += [float(2**53 - 1), -float(2**53 - 1), 0.0, -0.0, 128.0, -128.0, 384.0]
        _check_conversion(edges)

    def test_direct_window_edge_alone(self):
        # Largest-magnitude inputs that still take the single-step kernel.
        _check_conversion([float(_DIRECT - 1), -float(_DIRECT - 1), float(_DIRECT - 256)])

    def test_blocked_matrix_and_vector_shapes(self):
        rng = np.random.default_rng(7)
        for shape in ((3, 8193), (8192,), (5000, 2), (1,)):
            x = np.trunc(rng.standard_normal(shape) * 2.0**60)
            got = residues_to_int8(x, MODULI_TABLE[:15])
            assert got.shape == (15,) + shape
            np.testing.assert_array_equal(
                got.reshape(15, -1).astype(np.int64),
                _oracle_rmod(x.reshape(-1).tolist(), MODULI_TABLE[:15]),
            )

    def test_non_finite_input_falls_back_to_the_loop(self):
        # The limb split never terminates on inf; such input (an overflowed
        # scale) must take the loop instead of hanging.
        x = np.array([np.inf, -np.inf, np.nan, 3.0])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                residues_to_int8(x, MODULI_TABLE[:4]),
                residues_to_int8(x, MODULI_TABLE[:4], single_pass=False),
            )

    def test_even_non_power_of_two_modulus_uses_exact_loop(self):
        moduli = (254, 253, 251)
        x = np.array([127.0, -127.0, 127.0 + 254 * 5, 2.0**60 + 127.0])
        np.testing.assert_array_equal(
            residues_to_int8(x, moduli), residues_to_int8(x, moduli, single_pass=False)
        )


#: ``max_i(2^26 mod p_i)`` over the whole moduli table (249, for p = 251).
_LIMB_MAX = max(pow(2, _LIMB_BITS, p) for p in MODULI_TABLE)


def _worst_fold_value(top: int) -> float:
    """The largest float64 below ``top·2^26``: the largest value whose
    one-limb bound ``⌊|x|·2^-26⌋ + 1`` is ``top``, with a low limb of ``2^26``
    minus one ulp — the worst case of the fold ``T·(2^26 mod p) + low``."""
    return float(np.nextafter(float(top << _LIMB_BITS), 0.0))


def _one_limb_top_bounds():
    """``(largest, mutated)`` top limbs admitted by the one-limb fold bound:
    the real bound ``|T|·L + 2^26 < 2^50`` and the bound with its ``+2^26``
    (low-limb) term dropped."""
    window = int(_RMOD_DIRECT_LIMIT)
    largest = (window - 2**_LIMB_BITS - 1) // _LIMB_MAX
    mutated = (window - 1) // _LIMB_MAX
    return largest, mutated


@pytest.fixture
def rmod_window_spy(monkeypatch):
    """Assert that every ``_rmod`` call stays inside its proven window
    ``|x| < 2^50`` on integer-valued input."""
    real = residues._rmod
    calls = []

    def spy(x, p_col, pinv_col, work):
        x = np.asarray(x)
        assert np.max(np.abs(x)) < _RMOD_DIRECT_LIMIT, np.max(np.abs(x))
        assert np.array_equal(x, np.trunc(x))
        calls.append(x.shape)
        return real(x, p_col, pinv_col, work)

    monkeypatch.setattr(residues, "_rmod", spy)
    return calls


class TestLimbFold:
    """The one-``rmod`` fold of the top limb in the conversion."""

    def test_limb_counts_at_the_magnitudes_the_scaling_produces(self):
        assert _limb_count(float(_DIRECT - 1), _LIMB_MAX) == 0
        assert _limb_count(float(_DIRECT), _LIMB_MAX) == 1
        assert _limb_count(2.0**57, _LIMB_MAX) == 1
        assert _limb_count(2.0**66, _LIMB_MAX) == 1
        assert _limb_count(2.0**78, _LIMB_MAX) == 2

    def test_largest_one_limb_bound_and_one_above(self, rmod_window_spy):
        largest, _ = _one_limb_top_bounds()
        at_bound = _worst_fold_value(largest)
        above = float(np.nextafter(float(largest << _LIMB_BITS), np.inf))
        assert _limb_count(at_bound, _LIMB_MAX) == 1
        assert _limb_count(above, _LIMB_MAX) == 2
        for x in (at_bound, above):
            _check_conversion([x, -x, 1.0, -0.0])
        assert rmod_window_spy

    def test_worst_case_fold_stays_inside_the_window(self, rmod_window_spy):
        """Top limbs up to the bound with its low-limb term dropped, each with
        the largest low limb: a fold bound without the ``+2^26`` term would
        admit one limb here and feed ``_rmod`` a value above ``2^50``."""
        largest, mutated = _one_limb_top_bounds()
        tops = sorted({largest, largest + 1, (largest + mutated) // 2, mutated, mutated + 1})
        values = [_worst_fold_value(t) for t in tops]
        values += [-v for v in values]
        _check_conversion(values)
        for v in values:
            _check_conversion([v])
        assert rmod_window_spy

    def test_magnitudes_around_the_direct_window(self, rmod_window_spy):
        values = []
        for delta in (-(2**12), -1, 0, 1, 2**12):
            values += [float(_DIRECT + delta), -float(_DIRECT + delta)]
        _check_conversion(values)
        _check_conversion([float(_DIRECT - 1), -float(_DIRECT - 1)])

    @pytest.mark.parametrize("bits", [57, 66, 78])
    def test_one_and_two_limb_magnitudes(self, rmod_window_spy, bits):
        rng = np.random.default_rng(bits)
        big = np.trunc(rng.uniform(-1.0, 1.0, 300) * 2.0**bits)
        edges = [2.0**bits - 2.0 ** (bits - 52), -(2.0**bits), 2.0 ** (bits - 1)]
        _check_conversion(list(big) + edges)

    def test_mixed_blocks_with_zeros_and_half_moduli(self, rmod_window_spy):
        """Small entries (zeros, ``±(p − 1)/2``, ``p = 256`` ties) share
        blocks with a two-limb value, so they run through the fold too; the
        array spans three blocks."""
        rng = np.random.default_rng(11)
        x = np.trunc(rng.standard_normal(2 * _BLOCK + 9) * 2.0**20)
        x[::7] = 0.0
        x[1::7] = -0.0
        for j, p in enumerate(MODULI_TABLE):
            x[2 + 7 * j] = (p - 1) // 2
            x[3 + 7 * j] = -((p - 1) // 2)
            x[4 + 7 * j] = p * 12345 + (p - 1) // 2
            x[6 + 7 * j] = 128 + 256 * j  # the p = 256 tie
        x[5] = 2.0**78
        x[-1] = -(2.0**66)
        got = residues_to_int8(x, MODULI_TABLE)
        np.testing.assert_array_equal(got.astype(np.int64), _oracle_rmod(x.tolist(), MODULI_TABLE))
        np.testing.assert_array_equal(got, residues_to_int8(x, MODULI_TABLE, single_pass=False))


class TestUStackOracle:
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
                st.sampled_from([-(2**31), 2**31 - 1, 0, -1, 1]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(**SETTINGS)
    def test_full_int32_range_matches_python_mod(self, values):
        n = len(MODULI_TABLE)
        c = np.tile(np.array(values, dtype=np.int32), (n, 1))
        got = uint8_residues_stack(c[:, None, :], MODULI_TABLE)
        expect = np.array([[v % p for v in values] for p in MODULI_TABLE], dtype=np.int64)
        np.testing.assert_array_equal(got[:, 0, :].astype(np.int64), expect)
        assert got.dtype == np.uint8

    def test_multiples_of_p_and_extremes_into_float64_workspace(self):
        moduli = MODULI_TABLE[:20]
        rows = []
        for p in moduli:
            rows.append(
                [-(2**31), 2**31 - 1, 0, p, -p, p * ((2**31 - 1) // p), -p * ((2**31 - 1) // p),
                 p - 1, -(p - 1), 1 - p * 1000]
            )
        c = np.array(rows, dtype=np.int32)[:, :, None]
        out = np.full(c.shape, np.nan)
        got = uint8_residues_stack(c, moduli, out=out)
        assert got is out
        expect = np.array([[v % p for v in row] for p, row in zip(moduli, rows)])
        np.testing.assert_array_equal(got[:, :, 0], expect)

    def test_wide_stack_inside_window_and_refused_beyond(self):
        moduli = MODULI_TABLE[:3]
        inside = np.array([[2**50 - 1, -(2**50) + 1, 12345]] * 3, dtype=np.int64)[:, :, None]
        got = uint8_residues_stack(inside, moduli)
        expect = np.array([[int(v) % p for v in row[:, 0]] for p, row in zip(moduli, inside)])
        np.testing.assert_array_equal(got[:, :, 0], expect)
        with pytest.raises(ValueError):
            uint8_residues_stack(np.full((3, 1, 1), 2**50, dtype=np.int64), moduli)

    def test_non_contiguous_output_is_refused(self):
        c = np.zeros((4, 4, 5), dtype=np.int32)
        out = np.zeros((4, 5, 4)).transpose(0, 2, 1)
        with pytest.raises(ValueError):
            uint8_residues_stack(c, MODULI_TABLE[:4], out=out)


def _ledger(engine):
    return engine.counter.as_dict()


class TestSgemmEngineOracle:
    @pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 4097])
    def test_stack_and_matmul_bit_identical_to_integer_engine(self, k):
        rng = np.random.default_rng(k)
        a = rng.integers(-128, 128, (3, 5, k)).astype(np.int8)
        b = rng.integers(-128, 128, (3, k, 4)).astype(np.int8)
        # Saturate one row/column so partial sums hit the ±2^24 chunk edge,
        # plus one unit term: any chunk wider than 1024 would have an odd
        # sum above 2^24, which float32 cannot represent.
        a[:, 0, :] = -128
        b[:, :, 0] = -128
        a[:, 0, 0] = b[:, 0, 0] = 1
        fast, ref = Int8MatrixEngine(), Int8MatrixEngine(use_blas=False)
        np.testing.assert_array_equal(fast.matmul_stack(a, b), ref.matmul_stack(a, b))
        for i in range(3):
            np.testing.assert_array_equal(fast.matmul(a[i], b[i]), ref.matmul(a[i], b[i]))
        assert _ledger(fast) == _ledger(ref)
        assert fast.matmul_stack(a, b)[0, 0, 0] == (k - 1) * 2**14 + 1

    def test_k_2_17_wraparound_bit_identical(self):
        k = 2**17
        a = np.full((2, 2, k), -128, dtype=np.int8)
        b = np.full((2, k, 3), -128, dtype=np.int8)
        b[1, :, 2] = 127
        fast, ref = Int8MatrixEngine(), Int8MatrixEngine(use_blas=False)
        got = fast.matmul_stack(a, b, trusted=True)
        np.testing.assert_array_equal(got, ref.matmul_stack(a, b, trusted=True))
        assert got[0, 0, 0] == -(2**31)
        np.testing.assert_array_equal(fast.matmul(a[1], b[1]), ref.matmul(a[1], b[1]))
        assert _ledger(fast) == _ledger(ref)
