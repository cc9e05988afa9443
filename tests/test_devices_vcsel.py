"""Tests for the CMOS-compatible VCSEL model (paper Figure 8 anchors)."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.constants import quantum_slope_efficiency_w_per_a
from repro.devices import VcselModel, VcselParameters
from repro.errors import DeviceError


@pytest.fixture(scope="module")
def vcsel():
    return VcselModel()


class TestVcselParameters:
    def test_defaults_are_physical(self):
        params = VcselParameters()
        assert params.slope_efficiency_w_per_a < quantum_slope_efficiency_w_per_a(
            params.wavelength_nm
        )
        assert params.footprint_um == (15.0, 30.0)
        assert params.thickness_um <= 4.0
        assert params.modulation_bandwidth_ghz == 12.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DeviceError):
            VcselParameters(threshold_current_a=0.0)
        with pytest.raises(DeviceError):
            VcselParameters(slope_efficiency_w_per_a=2.0)  # above quantum limit
        with pytest.raises(DeviceError):
            VcselParameters(slope_decay_span_k=-1.0)
        with pytest.raises(DeviceError):
            VcselParameters(max_current_a=0.0)

    def test_with_thermal_resistance(self):
        params = VcselParameters().with_thermal_resistance(500.0)
        assert params.thermal_resistance_k_per_w == 500.0


class TestTemperatureDependence:
    def test_threshold_increases_with_temperature(self, vcsel):
        assert vcsel.threshold_current_a(60.0) > vcsel.threshold_current_a(20.0)

    def test_slope_efficiency_decreases_with_temperature(self, vcsel):
        assert vcsel.slope_efficiency_w_per_a(60.0) < vcsel.slope_efficiency_w_per_a(20.0)

    def test_slope_efficiency_clamped_at_zero(self, vcsel):
        assert vcsel.slope_efficiency_w_per_a(500.0) == 0.0

    def test_emission_wavelength_drifts_at_paper_rate(self, vcsel):
        cold = vcsel.emission_wavelength_nm(20.0)
        hot = vcsel.emission_wavelength_nm(30.0)
        assert hot - cold == pytest.approx(1.0)  # 0.1 nm/degC x 10 degC

    def test_paper_efficiency_anchors(self, vcsel):
        """Section III.C: efficiency drops from ~15 % at 40 degC to ~4 % at 60 degC."""
        at_40 = vcsel.wall_plug_efficiency(6.0e-3, 40.0)
        at_60 = vcsel.wall_plug_efficiency(6.0e-3, 60.0)
        assert 0.12 <= at_40 <= 0.18
        assert 0.02 <= at_60 <= 0.07
        assert at_40 > 2.5 * at_60


class TestOperatingPoint:
    def test_below_threshold_no_light(self, vcsel):
        point = vcsel.operating_point(0.2e-3, 40.0)
        assert point.optical_power_w == 0.0
        assert not point.is_lasing
        assert point.dissipated_power_w == pytest.approx(point.electrical_power_w)

    def test_above_threshold_emits(self, vcsel):
        point = vcsel.operating_point(6.0e-3, 40.0)
        assert point.is_lasing
        assert point.optical_power_w > 0.0
        assert point.junction_temperature_c > point.base_temperature_c

    def test_energy_balance(self, vcsel):
        point = vcsel.operating_point(8.0e-3, 40.0)
        assert point.electrical_power_w == pytest.approx(
            point.optical_power_w + point.dissipated_power_w
        )

    def test_efficiency_decreases_with_base_temperature(self, vcsel):
        efficiencies = [
            vcsel.wall_plug_efficiency(6.0e-3, temperature)
            for temperature in (20.0, 40.0, 60.0, 70.0)
        ]
        assert all(a >= b for a, b in zip(efficiencies, efficiencies[1:]))

    def test_optical_power_rolls_over_at_high_current(self, vcsel):
        """Figure 8-c: thermal roll-over limits the emitted power."""
        currents_ma = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        powers = [vcsel.optical_power_w(ma * 1e-3, 50.0) for ma in currents_ma]
        peak_index = powers.index(max(powers))
        assert 0 < peak_index < len(powers) - 1

    def test_over_current_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.operating_point(20.0e-3, 40.0)
        with pytest.raises(DeviceError):
            vcsel.operating_point(-1.0e-3, 40.0)

    @given(
        st.floats(min_value=0.5e-3, max_value=12e-3),
        st.floats(min_value=10.0, max_value=70.0),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_operating_point_invariants(self, current, temperature):
        vcsel = VcselModel()
        point = vcsel.operating_point(current, temperature)
        assert 0.0 <= point.wall_plug_efficiency < 1.0
        assert point.optical_power_w >= 0.0
        assert point.dissipated_power_w >= 0.0
        assert point.junction_temperature_c >= temperature - 1e-9


class TestInverseProblems:
    def test_current_for_dissipated_power_roundtrip(self, vcsel):
        current = vcsel.current_for_dissipated_power(3.6e-3, 50.0)
        point = vcsel.operating_point(current, 50.0)
        assert point.dissipated_power_w == pytest.approx(3.6e-3, rel=1e-6)

    def test_current_for_optical_power_roundtrip(self, vcsel):
        current = vcsel.current_for_optical_power(0.2e-3, 45.0)
        assert vcsel.optical_power_w(current, 45.0) == pytest.approx(0.2e-3, rel=1e-6)

    def test_optical_power_from_dissipated_monotone_in_temperature(self, vcsel):
        """Hotter lasers emit less for the same dissipated power (Figure 8-c)."""
        cold = vcsel.optical_power_from_dissipated(3.6e-3, 40.0)
        hot = vcsel.optical_power_from_dissipated(3.6e-3, 60.0)
        assert cold > hot > 0.0

    def test_zero_targets(self, vcsel):
        assert vcsel.current_for_dissipated_power(0.0, 40.0) == 0.0
        assert vcsel.current_for_optical_power(0.0, 40.0) == 0.0

    def test_unreachable_targets_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.current_for_optical_power(50.0e-3, 60.0)
        with pytest.raises(DeviceError):
            vcsel.current_for_dissipated_power(1.0, 40.0)

    def test_higher_temperature_requires_more_current_for_same_light(self, vcsel):
        """The methodology's key trade-off: compensating temperature costs current."""
        target = 0.15e-3
        cold_current = vcsel.current_for_optical_power(target, 40.0)
        hot_current = vcsel.current_for_optical_power(target, 55.0)
        assert hot_current > cold_current


class TestBatchedEvaluation:
    """Vectorized operating points / inversions used by the SNR batch path."""

    def test_operating_points_match_scalar_exactly(self, vcsel):
        temperatures = np.array([20.0, 40.0, 45.0, 55.0, 60.0])
        batch = vcsel.operating_points(6.0e-3, temperatures)
        for index, temperature in enumerate(temperatures):
            point = vcsel.operating_point(6.0e-3, float(temperature))
            assert batch.optical_power_w[index] == point.optical_power_w
            assert batch.junction_temperature_c[index] == point.junction_temperature_c
            assert batch.dissipated_power_w[index] == point.dissipated_power_w
            assert batch.wall_plug_efficiency[index] == point.wall_plug_efficiency
        spot = batch[1]
        assert spot.base_temperature_c == 40.0
        assert spot.is_lasing

    def test_operating_points_over_mixed_convergence(self, vcsel):
        # Zero current converges in one iteration, the others in 22-29
        # depending on bias and temperature: elements that converge early
        # must stay frozen while the rest keep iterating.
        currents = np.linspace(0.0, vcsel.parameters.max_current_a, 7)[:, None]
        temperatures = np.array([20.0, 45.0, 70.0, 95.0])
        batch = vcsel.operating_points(currents, temperatures)
        fields = (
            "junction_temperature_c",
            "optical_power_w",
            "dissipated_power_w",
            "wall_plug_efficiency",
        )
        iterations = set()
        for (i, j), _ in np.ndenumerate(batch.junction_temperature_c):
            current, temperature = float(currents[i, 0]), float(temperatures[j])
            # Bit for bit what the element gives on its own.
            alone = vcsel.operating_points(current, temperature)
            for field in fields:
                assert getattr(batch, field)[i, j] == getattr(alone, field)
            # The scalar method's iteration: it converges after exactly as
            # many steps, to the same point up to the last bits of math.exp
            # against np.exp.
            point = vcsel.operating_point(current, temperature)
            for field in fields:
                assert getattr(batch, field)[i, j] == pytest.approx(
                    getattr(point, field), rel=1e-12, abs=0.0
                )
            count = next(
                limit
                for limit in range(1, 200)
                if self._converges(vcsel.operating_point, current, temperature, limit)
            )
            assert self._converges(vcsel.operating_points, current, temperature, count)
            if count > 1:
                assert not self._converges(
                    vcsel.operating_points, current, temperature, count - 1
                )
            iterations.add(count)
        assert min(iterations) == 1 and len(iterations) >= 5

    @staticmethod
    def _converges(method, current, temperature, limit):
        try:
            method(current, temperature, max_iterations=limit)
        except DeviceError:
            return False
        return True

    def test_operating_points_broadcast_currents_and_temperatures(self, vcsel):
        currents = np.array([[2.0e-3], [6.0e-3]])
        temperatures = np.array([40.0, 50.0, 60.0])
        batch = vcsel.operating_points(currents, temperatures)
        assert batch.optical_power_w.shape == (2, 3)
        assert batch.optical_power_w[1, 0] == vcsel.operating_point(
            6.0e-3, 40.0
        ).optical_power_w

    def test_operating_points_validation(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.operating_points(np.array([-1.0e-3]), np.array([40.0]))
        with pytest.raises(DeviceError):
            vcsel.operating_points(np.array([1.0]), np.array([40.0]))

    def test_currents_for_dissipated_power_match_brentq(self, vcsel):
        powers = np.array([0.0, 2.0e-3, 3.6e-3, 5.0e-3])
        currents = vcsel.currents_for_dissipated_power(powers, 45.0)
        assert currents[0] == 0.0
        for index, power in enumerate(powers[1:], start=1):
            reference = vcsel.current_for_dissipated_power(float(power), 45.0)
            # brentq stops at xtol=1e-9 A; the vectorized bisection is tighter.
            assert abs(currents[index] - reference) < 2.0e-9

    def test_optical_powers_from_dissipated_match_scalar(self, vcsel):
        powers = np.array([2.0e-3, 3.6e-3, 5.0e-3])
        temperatures = np.array([40.0, 48.0, 56.0])
        optical = vcsel.optical_powers_from_dissipated(powers, temperatures)
        for index in range(len(powers)):
            reference = vcsel.optical_power_from_dissipated(
                float(powers[index]), float(temperatures[index])
            )
            assert optical[index] == pytest.approx(reference, rel=1.0e-6)

    def test_unreachable_dissipated_power_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.currents_for_dissipated_power(np.array([1.0]), np.array([40.0]))
        with pytest.raises(DeviceError):
            vcsel.currents_for_dissipated_power(np.array([-1.0e-3]), np.array([40.0]))
