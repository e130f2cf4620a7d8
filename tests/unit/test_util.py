"""Unit tests for repro.util (byte sizes, logging)."""

import pytest

from repro.util import GiB, KiB, MiB, TiB, format_bytes, parse_bytes
from repro.util.logging import get_logger


class TestParseBytes:
    def test_plain_numbers_pass_through(self):
        assert parse_bytes(1024) == 1024
        assert parse_bytes(1.5) == 1

    def test_binary_units(self):
        assert parse_bytes("1KiB") == KiB
        assert parse_bytes("2 MiB") == 2 * MiB
        assert parse_bytes("3GiB") == 3 * GiB

    def test_decimal_units(self):
        assert parse_bytes("1GB") == 10**9
        assert parse_bytes("1.6 TB") == int(1.6e12)

    def test_unitless_string_is_bytes(self):
        assert parse_bytes("512") == 512

    def test_units_ignore_case_and_surrounding_space(self):
        assert parse_bytes("  4 gib ") == 4 * GiB
        assert parse_bytes("2TiB") == 2 * TiB
        assert parse_bytes("3 mb") == 3 * 10**6

    def test_fractions_round_to_whole_bytes(self):
        assert parse_bytes("1.5KiB") == 1536
        assert parse_bytes(".5KB") == 500
        assert parse_bytes("0.0004KB") == 0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            parse_bytes("abc")
        with pytest.raises(ValueError):
            parse_bytes("12 parsecs")
        with pytest.raises(ValueError):
            parse_bytes(-5)


class TestFormatBytes:
    def test_small_values_are_bytes(self):
        assert format_bytes(0) == "0B"
        assert format_bytes(512) == "512B"

    def test_binary_scaling(self):
        assert format_bytes(1536) == "1.5KiB"
        assert format_bytes(3 * GiB, precision=0) == "3GiB"

    def test_largest_fitting_unit_is_chosen(self):
        assert format_bytes(KiB - 1) == "1023B"
        assert format_bytes(KiB) == "1.0KiB"
        assert format_bytes(5 * MiB) == "5.0MiB"
        assert format_bytes(2048 * TiB) == "2048.0TiB"

    @pytest.mark.parametrize("text", ["1KiB", "3MiB", "7GiB", "2TiB"])
    def test_whole_binary_sizes_round_trip(self, text):
        assert format_bytes(parse_bytes(text), precision=0) == text

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestLogging:
    def test_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core.engine").name == "repro.core.engine"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_child_loggers_propagate_to_the_package_logger(self):
        logger = get_logger("core.engine")
        ancestors = []
        while logger.parent is not None:
            logger = logger.parent
            ancestors.append(logger)
        assert get_logger() in ancestors

    def test_library_installs_no_handlers(self):
        assert get_logger().handlers == []
        assert get_logger("sweep.runner").handlers == []
