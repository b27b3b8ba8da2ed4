"""The units module: the Josephson constant, and the voltage and resolution a sequence gives at a drive frequency."""

from __future__ import annotations

import math

import pytest

from nims import InvalidInput, JOSEPHSON_HZ_PER_VOLT, RangeError, Sequence, max_voltage, resolution
from nims.units import ELEMENTARY_CHARGE_C, PLANCK_JS


class TestConstants:
    def test_josephson_constant_from_si_definitions(self):
        assert JOSEPHSON_HZ_PER_VOLT == 2 * ELEMENTARY_CHARGE_C / PLANCK_JS
        assert JOSEPHSON_HZ_PER_VOLT == pytest.approx(483597.848416984e9, abs=1.0)


class TestMaxVoltageAndResolution:
    def test_device_headroom(self, measured):
        v = max_voltage(measured, 18.01e9)
        assert abs(v - 3.4299) <= 1e-4

    def test_resolution_scales_with_first_bit(self, measured, nims1):
        assert resolution(measured, 18.01e9) == pytest.approx(7.4483e-05, rel=1e-4)
        assert resolution(nims1, 18.01e9) == pytest.approx(3.7242e-05, rel=1e-4)
        assert resolution(measured, 18.01e9) == pytest.approx(
            2 * resolution(nims1, 18.01e9), rel=1e-12
        )

    def test_rejects_nonpositive_frequency(self, measured):
        with pytest.raises(InvalidInput):
            max_voltage(measured, 0.0)
        with pytest.raises(InvalidInput):
            resolution(measured, -1.0)
        for freq in (math.inf, math.nan):
            with pytest.raises(InvalidInput):
                max_voltage(measured, freq)
            with pytest.raises(InvalidInput):
                resolution(measured, freq)

    def test_beyond_float_range_is_a_range_error(self):
        beyond = Sequence((10**400,))
        with pytest.raises(RangeError, match="^sequence total exceeds the largest float"):
            max_voltage(beyond, 1e10)
        with pytest.raises(RangeError, match="^first bit exceeds the largest float"):
            resolution(beyond, 1e10)
        within = Sequence((10**300,))
        assert max_voltage(within, 1.0) == 10**300 * 1.0 / JOSEPHSON_HZ_PER_VOLT
        assert resolution(within, 1.0) == 10**300 * 1.0 / JOSEPHSON_HZ_PER_VOLT

    def test_a_voltage_beyond_float_range_is_a_range_error(self):
        # 10**300 is a float, but 10**300 * 1e10 Hz is not: the voltage would be inf
        within = Sequence((10**300,))
        with pytest.raises(RangeError, match="^sequence total times the drive frequency exceeds the largest float"):
            max_voltage(within, 1e10)
        with pytest.raises(RangeError, match="^first bit times the drive frequency exceeds the largest float"):
            resolution(within, 1e10)
        # at 1e8 Hz the product, 1e308, is still a float and keeps its value
        assert max_voltage(within, 1e8) == 10**300 * 1e8 / JOSEPHSON_HZ_PER_VOLT
        assert resolution(within, 1e8) == 10**300 * 1e8 / JOSEPHSON_HZ_PER_VOLT
