"""Tests of the error metrics, the registry and truth-table IO."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import RegistryError, TruthTableError
from repro.multipliers import (
    ExactMultiplier,
    TableMultiplier,
    TruncatedProductMultiplier,
    error_report,
    error_report_from_tables,
    library,
    truthtable,
)


class TestErrorMetrics:
    def test_exact_multiplier_has_zero_errors(self):
        report = error_report(ExactMultiplier(8, signed=True))
        assert report.error_probability == 0.0
        assert report.mean_absolute_error == 0.0
        assert report.worst_case_error == 0
        assert report.mean_relative_error == 0.0
        assert report.variance_of_error == 0.0

    def test_report_fields_consistent(self):
        report = error_report(TruncatedProductMultiplier(8, dropped_bits=5))
        assert report.mean_squared_error >= report.mean_absolute_error ** 2
        assert report.root_mean_squared_error == pytest.approx(
            np.sqrt(report.mean_squared_error))
        assert 0.0 <= report.error_probability <= 1.0
        assert report.worst_case_error >= report.mean_absolute_error

    def test_report_from_tables_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_report_from_tables(np.zeros((4, 4)), np.zeros((3, 3)))

    def test_report_as_dict_and_summary(self):
        report = error_report(ExactMultiplier(4))
        d = dataclasses.asdict(report)
        assert d["bit_width"] == 4
        assert "EP=0.000" in report.summary()


class TestLibrary:
    def test_catalogue_contains_expected_families(self):
        names = library.available()
        assert "mul8u_exact" in names
        assert "mul8s_exact" in names
        assert any(n.startswith("mul8u_drum") for n in names)
        assert any(n.startswith("mul8u_mitchell") for n in names)
        assert any(n.startswith("mul8u_bam") for n in names)
        assert len(names) >= 25

    def test_create_unknown_raises(self):
        with pytest.raises(RegistryError):
            library.create("mul8u_nonexistent")

    def test_every_registered_multiplier_instantiates(self):
        for name in library.available():
            m = library.create(name)
            assert m.name == name
            assert m.bit_width == 8
            # one cheap sanity product inside the valid range
            assert isinstance(m.multiply(3, 5), int)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            library.register("mul8u_exact", lambda: ExactMultiplier(8))


class TestTruthTableIO:
    def test_binary_round_trip(self, tmp_path):
        m = TruncatedProductMultiplier(4, dropped_bits=2, signed=True)
        path = tmp_path / "table.bin"
        truthtable.save_binary(m.truth_table(), path, bit_width=4, signed=True)
        loaded = TableMultiplier(
            truthtable.load_binary(path, bit_width=4, signed=True),
            bit_width=4, signed=True)
        np.testing.assert_array_equal(loaded.truth_table(), m.truth_table())

    def test_binary_8bit_is_128kib(self, tmp_path):
        m = ExactMultiplier(8, signed=True)
        path = tmp_path / "mul8s.bin"
        truthtable.save_binary(m.truth_table(), path, signed=True)
        assert path.stat().st_size == 256 * 256 * 2  # the paper's 128 kB

    def test_binary_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "broken.bin"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(TruthTableError):
            truthtable.load_binary(path, bit_width=8)

    def test_validate_table_range_check(self):
        table = np.full((16, 16), 10_000)
        with pytest.raises(TruthTableError):
            truthtable.validate_table(table, 4, signed=False)

    def test_validate_table_accepts_float_integers(self):
        table = ExactMultiplier(4).truth_table().astype(np.float64)
        out = truthtable.validate_table(table, 4, signed=False)
        assert out.dtype == np.int32
