"""Tests for the moduli table and selection."""

from __future__ import annotations

import math

import pytest

import repro.crt.constants as constants
import repro.crt.moduli as moduli
from repro.crt.moduli import (
    MAX_TABLE_SIZE,
    MODULI_TABLE,
    generate_moduli_table,
    select_moduli,
    validate_moduli,
)
from repro.errors import ModuliError


class TestModuliTable:
    def test_table_head_matches_paper(self):
        # Section 4.1: {256, 255, 253, 251, ...}
        assert MODULI_TABLE[:4] == (256, 255, 253, 251)

    def test_table_size(self):
        assert len(MODULI_TABLE) == MAX_TABLE_SIZE

    def test_table_descending_and_in_range(self):
        assert all(2 <= p <= 256 for p in MODULI_TABLE)
        assert list(MODULI_TABLE) == sorted(MODULI_TABLE, reverse=True)

    def test_table_pairwise_coprime(self):
        for i, p in enumerate(MODULI_TABLE):
            for q in MODULI_TABLE[i + 1:]:
                assert math.gcd(p, q) == 1, (p, q)

    def test_generate_with_small_limit(self):
        table = generate_moduli_table(16, 5)
        assert table == (16, 15, 13, 11, 7)

    def test_generate_invalid_args(self):
        with pytest.raises(ModuliError):
            generate_moduli_table(1, 5)
        with pytest.raises(ModuliError):
            generate_moduli_table(256, 0)


class TestSelectAndValidate:
    @pytest.mark.parametrize("n", [2, 8, 14, 20])
    def test_select_returns_first_n(self, n):
        selection = select_moduli(n)
        assert selection == MODULI_TABLE[:n]

    def test_select_bounds(self):
        with pytest.raises(ModuliError):
            select_moduli(1)
        with pytest.raises(ModuliError):
            select_moduli(MAX_TABLE_SIZE + 1)

    def test_validate_rejects_non_coprime(self):
        with pytest.raises(ModuliError):
            validate_moduli([256, 254])  # both even

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ModuliError):
            validate_moduli([251, 251])

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ModuliError):
            validate_moduli([512, 511])
        with pytest.raises(ModuliError):
            validate_moduli([1, 3])

    def test_validate_rejects_too_few(self):
        with pytest.raises(ModuliError):
            validate_moduli([251])

    def test_validate_accepts_custom_coprime_set(self):
        assert validate_moduli([64, 81, 25, 49]) == (64, 81, 25, 49)


class TestDefaultTableValidatedOnce:
    def test_constant_table_lookups_do_not_revalidate(self, monkeypatch):
        for n in (2, 8, 15, 20):
            constants.build_constant_table(n)  # warm the table cache
        calls = []

        def counting(mods):
            calls.append(tuple(mods))
            return validate_moduli(mods)

        monkeypatch.setattr(moduli, "validate_moduli", counting)
        monkeypatch.setattr(constants, "validate_moduli", counting)
        for _ in range(3):
            for n in (2, 8, 15, 20):
                table = constants.build_constant_table(n)
                assert table.moduli == MODULI_TABLE[:n]
        assert calls == []
        # User-supplied moduli (and non-default tables) are still validated.
        constants.build_constant_table(4, moduli=[64, 81, 25, 49])
        assert calls and set(calls) == {(64, 81, 25, 49)}
        select_moduli(2, table=(16, 15, 13))
        assert calls[-1] == (16, 15)
        with pytest.raises(ModuliError):
            constants.build_constant_table(2, moduli=[256, 254])
        with pytest.raises(ModuliError):
            select_moduli(2, table=(256, 254, 253))
