"""ONI placement scenarios of the case study (paper Figure 11).

The paper compares three placements of the 24 ONIs, leading to ring waveguide
lengths of 18, 32.4 and 46.8 mm.  Each scenario places the ONIs evenly along a
rectangular ring centred on the die; the ring rectangle's perimeter equals the
requested waveguide length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import constants
from ..errors import ConfigurationError
from ..geometry import Rect, rectangle_for_perimeter, ring_positions
from ..oni import OniLayoutParameters, OniPowerConfig, OpticalNetworkInterface, place_onis
from ..onoc import RingNode, RingTopology
from .scc import SccArchitecture


@dataclass(frozen=True)
class OniRingScenario:
    """One ONI placement scenario: ONIs along a ring of a given length."""

    name: str
    ring_length_mm: float
    ring_rect: Rect
    onis: List[OpticalNetworkInterface]
    ring: RingTopology

    @property
    def oni_count(self) -> int:
        """Number of ONIs in the scenario."""
        return len(self.onis)

    @property
    def oni_footprints(self) -> List[Rect]:
        """Absolute footprints of every ONI."""
        return [oni.footprint for oni in self.onis]

    def oni_by_name(self, name: str) -> OpticalNetworkInterface:
        """ONI called ``name``."""
        for oni in self.onis:
            if oni.name == name:
                return oni
        raise ConfigurationError(f"unknown ONI {name!r} in scenario {self.name!r}")

    def with_power(self, power: OniPowerConfig) -> "OniRingScenario":
        """Copy of the scenario with every ONI re-configured to ``power``."""
        return OniRingScenario(
            name=self.name,
            ring_length_mm=self.ring_length_mm,
            ring_rect=self.ring_rect,
            onis=[oni.with_power(power) for oni in self.onis],
            ring=self.ring,
        )

    def total_optical_power_w(self) -> float:
        """Total power injected into the optical layer by all ONIs [W]."""
        return sum(oni.total_optical_layer_power_w() for oni in self.onis)

    def total_driver_power_w(self) -> float:
        """Total CMOS driver power of all ONIs [W]."""
        return sum(oni.total_driver_power_w() for oni in self.onis)


def build_oni_ring_scenario(
    architecture: SccArchitecture,
    ring_length_mm: float,
    oni_count: int = 24,
    name: Optional[str] = None,
    power: Optional[OniPowerConfig] = None,
    layout_parameters: Optional[OniLayoutParameters] = None,
    aspect_ratio: Optional[float] = None,
) -> OniRingScenario:
    """Place ``oni_count`` ONIs evenly along a ring of the requested length.

    The ring rectangle is centred on the die and follows the die aspect ratio
    unless ``aspect_ratio`` is given; it must fit inside the die.
    """
    if ring_length_mm <= 0.0:
        raise ConfigurationError("ring length must be positive")
    if oni_count < 2:
        raise ConfigurationError("a scenario needs at least two ONIs")
    die = architecture.die_rect
    ratio = aspect_ratio if aspect_ratio is not None else die.width / die.height
    center_x, center_y = die.center
    ring_rect = rectangle_for_perimeter(
        center_x, center_y, ring_length_mm * 1.0e-3, aspect_ratio=ratio
    )
    if not die.contains_rect(ring_rect):
        raise ConfigurationError(
            f"a ring of {ring_length_mm} mm does not fit inside the "
            f"{die.width * 1e3:.1f} x {die.height * 1e3:.1f} mm die"
        )

    positions = ring_positions(ring_rect, oni_count)
    layout_params = layout_parameters or OniLayoutParameters()
    half_width = layout_params.width_um * 1.0e-6 / 2.0
    half_height = layout_params.height_um * 1.0e-6 / 2.0

    names_and_origins: List[Tuple[str, Tuple[float, float]]] = []
    nodes: List[RingNode] = []
    for index, position in enumerate(positions):
        oni_name = f"oni_{index:02d}"
        names_and_origins.append(
            (oni_name, (position.x - half_width, position.y - half_height))
        )
        nodes.append(RingNode(name=oni_name, arc_length_m=position.arc_length))

    onis = place_onis(names_and_origins, layout_parameters=layout_params, power=power)
    ring = RingTopology(total_length_m=ring_length_mm * 1.0e-3, nodes=nodes)
    return OniRingScenario(
        name=name or f"ring_{ring_length_mm:g}mm",
        ring_length_mm=ring_length_mm,
        ring_rect=ring_rect,
        onis=onis,
        ring=ring,
    )


def build_standard_scenarios(
    architecture: SccArchitecture,
    oni_count: int = 24,
    power: Optional[OniPowerConfig] = None,
    ring_lengths_mm: Sequence[float] = constants.SCENARIO_RING_LENGTHS_MM,
) -> Dict[str, OniRingScenario]:
    """The paper's three placement scenarios (18 / 32.4 / 46.8 mm), keyed by name."""
    scenarios: Dict[str, OniRingScenario] = {}
    for index, length in enumerate(ring_lengths_mm, start=1):
        scenario = build_oni_ring_scenario(
            architecture,
            ring_length_mm=length,
            oni_count=oni_count,
            name=f"case{index}_{length:g}mm",
            power=power,
        )
        scenarios[scenario.name] = scenario
    return scenarios
