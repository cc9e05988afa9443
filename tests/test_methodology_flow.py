"""Tests for the end-to-end design flow (thermal + SNR evaluation)."""

import dataclasses

import pytest

from repro.activity import diagonal_activity, uniform_activity
from repro.casestudy import SccArchitecture, build_oni_ring_scenario
from repro.errors import AnalysisError, ConfigurationError
from repro.geometry import LayerStack
from repro.methodology import (
    SweepEngine,
    SweepPoint,
    ThermalAwareDesignFlow,
    ThermalRequest,
)
from repro.oni import OniPowerConfig
from repro.onoc import opposite_traffic
from repro.snr import LaserDriveConfig


PAPER_POWER = OniPowerConfig(vcsel_power_w=3.6e-3, heater_power_w=1.08e-3)


class TestThermalStep:
    def test_run_thermal_produces_summary_per_oni(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        assert set(evaluation.oni_summaries) == {o.name for o in small_flow.scenario.onis}
        for summary in evaluation.oni_summaries.values():
            assert summary.average_c > small_flow.settings.ambient_temperature_c
            assert summary.laser_c > 0.0
            assert summary.microring_c > 0.0

    def test_zoom_provides_gradient(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni="auto")
        assert evaluation.zoomed_oni is not None
        assert evaluation.gradient_c > 0.0
        assert evaluation.zoom_map is not None

    def test_gradient_requires_zoom(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        with pytest.raises(AnalysisError):
            _ = evaluation.gradient_c

    def test_more_chip_power_raises_temperatures(self, small_flow, coarse_architecture):
        low = small_flow.run_thermal(
            uniform_activity(coarse_architecture.floorplan, 12.5),
            power=PAPER_POWER,
            zoom_oni=None,
        )
        high = small_flow.run_thermal(
            uniform_activity(coarse_architecture.floorplan, 31.25),
            power=PAPER_POWER,
            zoom_oni=None,
        )
        assert high.average_oni_temperature_c > low.average_oni_temperature_c + 3.0

    def test_more_vcsel_power_raises_oni_temperature(self, small_flow, uniform_25w):
        low = small_flow.run_thermal(
            uniform_25w, power=OniPowerConfig(vcsel_power_w=1.0e-3, heater_power_w=0.0), zoom_oni=None
        )
        high = small_flow.run_thermal(
            uniform_25w, power=OniPowerConfig(vcsel_power_w=6.0e-3, heater_power_w=0.0), zoom_oni=None
        )
        assert high.max_oni_temperature_c > low.max_oni_temperature_c + 1.0

    def test_diagonal_activity_spreads_oni_temperatures(self, small_flow, coarse_architecture, uniform_25w):
        uniform_eval = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        diagonal = diagonal_activity(coarse_architecture.floorplan).scaled_to(25.0)
        diagonal_eval = small_flow.run_thermal(diagonal, power=PAPER_POWER, zoom_oni=None)
        assert (
            diagonal_eval.oni_temperature_spread_c
            > uniform_eval.oni_temperature_spread_c
        )

    def test_heat_sources_cover_activity_and_onis(self, small_flow, uniform_25w):
        sources = small_flow.heat_sources(uniform_25w, PAPER_POWER)
        total = sum(source.power_w for source in sources)
        oni_power = sum(
            oni.with_power(PAPER_POWER).total_power_w()
            for oni in small_flow.scenario.onis
        )
        assert total == pytest.approx(25.0 + oni_power, rel=1e-9)

    def test_default_zoom_oni_is_central(self, small_flow):
        name = small_flow.default_zoom_oni()
        assert name in {o.name for o in small_flow.scenario.onis}

    def test_meets_gradient_constraint_helper(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni="auto")
        assert evaluation.meets_gradient_constraint(1000.0)
        assert not evaluation.meets_gradient_constraint(0.0)


class TestNetworkAndSnrStep:
    def test_build_network_routes_default_traffic(self, small_flow):
        network = small_flow.build_network()
        assert len(network.assigned_communications()) == len(small_flow.scenario.onis)
        assert network.waveguide_count == 4

    def test_build_network_with_explicit_traffic(self, small_flow):
        traffic = opposite_traffic(small_flow.scenario.ring)
        network = small_flow.build_network(traffic)
        assert len(network.assigned_communications()) == len(traffic)

    def test_run_snr_produces_report(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        report = small_flow.run_snr(
            evaluation, LaserDriveConfig.from_dissipated_mw(3.6)
        )
        assert len(report.links) == len(small_flow.scenario.onis)
        assert report.worst_case_snr_db > 0.0
        assert report.all_detected

    def test_run_snr_many_matches_per_point_run_snr(self, small_flow, uniform_25w):
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        evaluations = [
            small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None),
            small_flow.run_thermal(
                diagonal_activity(small_flow.architecture.floorplan, 25.0),
                power=PAPER_POWER,
                zoom_oni=None,
            ),
        ]
        batch = small_flow.run_snr_many(evaluations, drive)
        assert batch.batch_size == 2
        for index, evaluation in enumerate(evaluations):
            report = small_flow.run_snr(evaluation, drive)
            assert batch.worst_case_snr_db[index] == report.worst_case_snr_db
            assert batch.average_snr_db[index] == report.average_snr_db

    def test_default_snr_analyzer_is_cached(self, small_flow):
        analyzer = small_flow.snr_analyzer()
        assert small_flow.snr_analyzer() is analyzer
        # Explicit traffic bypasses the cache.
        traffic = opposite_traffic(small_flow.scenario.ring)
        assert small_flow.snr_analyzer(communications=traffic) is not analyzer

    def test_evaluate_design_point_combines_both(self, small_flow, uniform_25w):
        result = small_flow.evaluate_design_point(uniform_25w, PAPER_POWER)
        assert result.worst_case_snr_db > 0.0
        assert result.gradient_c > 0.0
        assert result.average_oni_temperature_c > 35.0
        assert result.drive.dissipated_power_w == pytest.approx(3.6e-3)

    def test_states_feed_snr(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        states = evaluation.states()
        assert len(states) == len(small_flow.scenario.onis)
        assert all(state.laser_c > 35.0 for state in states)


class TestImmutableFlow:
    """A flow is fixed at construction; so are the inputs it is built from."""

    @pytest.mark.parametrize(
        "name", ["architecture", "scenario", "technology", "vcsel", "settings"]
    )
    def test_rebinding_a_flow_input_raises(self, small_flow, name):
        value = getattr(small_flow, name)
        with pytest.raises(AttributeError):
            setattr(small_flow, name, value)
        assert getattr(small_flow, name) is value

    def test_architecture_fields_are_frozen(self, coarse_architecture):
        with pytest.raises(dataclasses.FrozenInstanceError):
            coarse_architecture.settings = coarse_architecture.settings
        with pytest.raises(dataclasses.FrozenInstanceError):
            coarse_architecture.optical_layer = "beol"

    def test_scenario_fields_are_frozen(self, small_scenario):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_scenario.onis = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_scenario.name = "other"

    def test_shift_hops_must_be_positive(self, coarse_architecture, small_scenario):
        with pytest.raises(ConfigurationError, match="shift_hops"):
            ThermalAwareDesignFlow(coarse_architecture, small_scenario, shift_hops=0)

    def test_network_shape_is_a_constructor_argument(
        self, coarse_architecture, small_scenario
    ):
        flow = ThermalAwareDesignFlow(
            coarse_architecture,
            small_scenario,
            waveguide_count=2,
            channels_per_waveguide=6,
        )
        network = flow.build_network()
        assert network.waveguide_count == 2
        assert network.channels_per_waveguide == 6

    def test_flows_differing_in_shift_hops_never_share_reports(
        self, coarse_architecture, small_scenario
    ):
        default = ThermalAwareDesignFlow(coarse_architecture, small_scenario)
        one_hop = ThermalAwareDesignFlow(
            coarse_architecture, small_scenario, shift_hops=1
        )
        request = ThermalRequest(
            activity=uniform_activity(coarse_architecture.floorplan, 20.0),
            zoom_oni=None,
        )
        drive = LaserDriveConfig.from_dissipated_mw(3.6)

        def links(report):
            return {link.communication.name for link in report.links}

        # One engine per flow: each report describes its own flow's traffic.
        shared_default = SweepEngine.shared(default)
        shared_one_hop = SweepEngine.shared(one_hop)
        assert shared_default is not shared_one_hop
        default_report = shared_default.evaluate_snr([request], drive)[0]
        one_hop_report = shared_one_hop.evaluate_snr([request], drive)[0]
        assert links(default_report) != links(one_hop_report)
        assert links(default_report) == links(default.run_snr(
            default.run_thermal(request.activity, zoom_oni=None), drive
        ))

        # One engine over both flows: the same request on each flow is two
        # SNR evaluations, never a cache hit across flows.
        engine = SweepEngine({"default": default, "one_hop": one_hop})
        reports = engine.evaluate_snr(
            [
                SweepPoint(request=request, flow_key="default"),
                SweepPoint(request=request, flow_key="one_hop"),
            ],
            drive,
        )
        assert engine.stats.snr_evaluations == 2
        assert engine.stats.snr_cache_hits == 0
        assert links(reports[0]) == links(default_report)
        assert links(reports[1]) == links(one_hop_report)


class TestZoomWindow:
    def test_stack_without_cap_silicon_zooms_full_height(
        self, coarse_architecture, uniform_25w
    ):
        stack = LayerStack(coarse_architecture.stack.footprint, name="no_cap")
        for layer in coarse_architecture.stack:
            if layer.name != "cap_silicon":
                stack.add_layer(layer)
        architecture = dataclasses.replace(coarse_architecture, stack=stack)
        scenario = build_oni_ring_scenario(architecture, 18.0, oni_count=4)
        flow = ThermalAwareDesignFlow(architecture, scenario)
        evaluation = flow.run_thermal(uniform_25w, power=PAPER_POWER)
        z_ticks = evaluation.zoom_map.mesh.z_ticks
        assert z_ticks[0] == pytest.approx(0.0)
        assert z_ticks[-1] == pytest.approx(stack.total_thickness)

    def test_other_zoom_range_errors_propagate(
        self, coarse_architecture, small_scenario, uniform_25w, monkeypatch
    ):
        def broken(self):
            raise RuntimeError("bug in zoom_vertical_range")

        monkeypatch.setattr(SccArchitecture, "zoom_vertical_range", broken)
        flow = ThermalAwareDesignFlow(coarse_architecture, small_scenario)
        with pytest.raises(RuntimeError, match="bug in zoom_vertical_range"):
            flow.run_thermal(uniform_25w, power=PAPER_POWER)
