"""Intel SCC-like case study architecture (paper Section V.A, Figure 7).

The targeted system is a 24-tile, 48-core IA-32 processor (Intel's
Single-Chip Cloud Computer) with a stacked optical layer.  We do not have the
real silicon, so the architecture is parametric: a 6x4 tile floorplan on a
26.5 x 21.4 mm die, and a package stack following the layer thicknesses given
in Figure 7 of the paper (substrate, C4, interposer, electrical die + BEOL,
bonding layer, optical layer, cap silicon, epoxy, TIM, copper lid), cooled by
a heat sink modelled as a convective boundary on top of the lid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from .. import constants
from ..config import SimulationSettings
from ..errors import ConfigurationError
from ..geometry import Floorplan, LayerStack, Layer, Rect, grid_floorplan
from ..materials import (
    BEOL,
    BONDING_LAYER,
    C4_LAYER,
    COPPER,
    EPOXY,
    FR4,
    OPTICAL_LAYER,
    SILICON,
    THERMAL_INTERFACE,
    Material,
    mixed_material,
)
from ..thermal import BoundaryConditions, MeshBuilder, Mesh3D


@dataclass(frozen=True)
class SccPackageParameters:
    """Geometric and material parameters of the SCC-like package.

    Layer thicknesses follow Figure 7 of the paper; the lateral package
    margin and the TSV density of the bonding layer are modelling choices
    documented in DESIGN.md.
    """

    die_width_mm: float = constants.SCC_DIE_WIDTH_MM
    die_height_mm: float = constants.SCC_DIE_HEIGHT_MM
    tile_columns: int = constants.SCC_TILE_GRID[0]
    tile_rows: int = constants.SCC_TILE_GRID[1]
    #: Package margin around the die on each side [mm].
    package_margin_mm: float = 3.0
    substrate_thickness_um: float = 1000.0
    c4_thickness_um: float = 80.0
    interposer_thickness_um: float = 200.0
    die_silicon_thickness_um: float = 250.0
    beol_thickness_um: float = 15.0
    bonding_thickness_um: float = 20.0
    optical_layer_thickness_um: float = 4.0
    optical_silicon_thickness_um: float = 50.0
    epoxy_thickness_um: float = 80.0
    cap_silicon_thickness_um: float = 50.0
    tim_thickness_um: float = 75.0
    lid_thickness_um: float = 2000.0
    #: Copper fraction of the bonding layer under the ONIs (dense TSV arrays).
    bonding_tsv_copper_fraction: float = 0.25
    #: Lateral margin between the die edge and the tile array, left for the
    #: asymmetric infrastructure blocks (memory controllers, system
    #: interface) of the real SCC [mm].
    infrastructure_margin_mm: float = 2.2
    #: Whether to add the asymmetric infrastructure blocks to the floorplan.
    include_infrastructure: bool = True

    def __post_init__(self) -> None:
        if self.die_width_mm <= 0.0 or self.die_height_mm <= 0.0:
            raise ConfigurationError("die dimensions must be positive")
        if self.tile_columns <= 0 or self.tile_rows <= 0:
            raise ConfigurationError("tile grid must be positive")
        if self.package_margin_mm < 0.0:
            raise ConfigurationError("package margin must be >= 0")
        if not 0.0 <= self.bonding_tsv_copper_fraction <= 1.0:
            raise ConfigurationError("TSV copper fraction must be within [0, 1]")

    @property
    def tile_count(self) -> int:
        """Number of tiles of the floorplan."""
        return self.tile_columns * self.tile_rows

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view of every parameter (scenario specs, reports)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SccPackageParameters":
        """Build parameters from a plain dict, rejecting unknown fields.

        The usual validation of ``__post_init__`` applies; this is the entry
        point the scenario subsystem uses to materialise a declarative chip
        spec (including its ``package_overrides``).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown package parameters {unknown}; known fields: "
                f"{sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class SccArchitecture:
    """Fully built case-study architecture."""

    parameters: SccPackageParameters
    settings: SimulationSettings
    stack: LayerStack
    floorplan: Floorplan
    #: Layer carrying the chip / driver heat sources.
    electrical_layer: str = "beol"
    #: Layer carrying the photonic devices (VCSELs, MRs, heaters).
    optical_layer: str = "optical_layer"

    @property
    def die_rect(self) -> Rect:
        """Die footprint [m]."""
        return self.floorplan.outline

    def electrical_z_range(self) -> Tuple[float, float]:
        """(z_min, z_max) of the electrical heat-source layer."""
        return self.stack.z_bounds(self.electrical_layer)

    def optical_z_range(self) -> Tuple[float, float]:
        """(z_min, z_max) of the optical layer."""
        return self.stack.z_bounds(self.optical_layer)

    def zoom_vertical_range(self) -> Tuple[float, float]:
        """Vertical window used by the device-scale zoom solver.

        The window spans from the bottom of the electrical die bulk to the top
        of the silicon cap: the layers that shape the intra-ONI gradient.
        Cutting away the substrate and the copper lid keeps the zoom meshes
        small; the cut faces take the coarse solution as Dirichlet values.
        """
        bottom, _ = self.stack.z_bounds("die_silicon")
        _, top = self.stack.z_bounds("cap_silicon")
        return bottom, top

    def boundary_conditions(self) -> BoundaryConditions:
        """Heat-sink on top, board path below, adiabatic lateral faces."""
        return BoundaryConditions.package_default(
            ambient_c=self.settings.ambient_temperature_c,
            top_coefficient_w_m2k=self.settings.heat_sink_coefficient_w_m2k,
            bottom_coefficient_w_m2k=self.settings.board_coefficient_w_m2k,
        )

    def mesh_builder(
        self,
        oni_footprints: Optional[List[Rect]] = None,
        base_cell_size_um: Optional[float] = None,
        oni_cell_size_um: Optional[float] = None,
    ) -> MeshBuilder:
        """Mesh builder for the whole package.

        ``oni_footprints`` are refined at ``oni_cell_size_um`` so the per-ONI
        average temperatures are resolved; device-scale gradients use the zoom
        solver instead.
        """
        builder = MeshBuilder(
            self.stack,
            base_cell_size_um=base_cell_size_um or self.settings.die_cell_size_um,
            max_cells=self.settings.max_cells,
        )
        if oni_footprints:
            builder.add_refinements(
                oni_footprints, oni_cell_size_um or self.settings.oni_cell_size_um
            )
        return builder

    def build_mesh(
        self,
        oni_footprints: Optional[List[Rect]] = None,
        base_cell_size_um: Optional[float] = None,
        oni_cell_size_um: Optional[float] = None,
    ) -> Mesh3D:
        """Convenience wrapper building the mesh directly."""
        return self.mesh_builder(
            oni_footprints, base_cell_size_um, oni_cell_size_um
        ).build()


def build_scc_floorplan(parameters: Optional[SccPackageParameters] = None) -> Floorplan:
    """Floorplan of the SCC die.

    The 6x4 tile array carries the processing activity.  Like the real SCC,
    the die also hosts asymmetric infrastructure blocks — four DDR3 memory
    controllers on the left/right edges and a system interface on the bottom
    edge — which the paper identifies as the cause of the inter-ONI
    temperature differences observed even under uniform activity
    (Section V.C).  Set ``include_infrastructure=False`` on the parameters to
    obtain a purely symmetric tile grid.
    """
    params = parameters or SccPackageParameters()
    die = Rect.from_size_mm(0.0, 0.0, params.die_width_mm, params.die_height_mm)
    if not params.include_infrastructure:
        return grid_floorplan(
            die,
            columns=params.tile_columns,
            rows=params.tile_rows,
            name_format="tile_{column}_{row}",
            kind="tile",
        )

    margin = params.infrastructure_margin_mm * 1.0e-3
    tile_region = Rect(
        die.x_min + margin,
        die.y_min + margin * 0.8,
        die.x_max - margin,
        die.y_max - margin * 0.25,
    )
    floorplan = Floorplan(die, name="scc_die")
    cell_width = tile_region.width / params.tile_columns
    cell_height = tile_region.height / params.tile_rows
    for row in range(params.tile_rows):
        for column in range(params.tile_columns):
            floorplan.add_rect(
                f"tile_{column}_{row}",
                Rect.from_size(
                    tile_region.x_min + column * cell_width,
                    tile_region.y_min + row * cell_height,
                    cell_width,
                    cell_height,
                ),
                kind="tile",
            )

    controller_width = margin * 0.85
    controller_height = die.height * 0.30
    for side, x_min in (("left", die.x_min + 0.1e-3), ("right", die.x_max - controller_width - 0.1e-3)):
        for position, y_center in (("low", die.y_min + 0.28 * die.height), ("high", die.y_min + 0.72 * die.height)):
            floorplan.add_rect(
                f"memory_controller_{side}_{position}",
                Rect.from_size(
                    x_min,
                    y_center - controller_height / 2.0,
                    controller_width,
                    controller_height,
                ),
                kind="memory_controller",
            )
    floorplan.add_rect(
        "system_interface",
        Rect.from_center(
            die.center[0],
            die.y_min + margin * 0.35,
            die.width * 0.35,
            margin * 0.6,
        ),
        kind="system_interface",
    )
    return floorplan


def build_scc_stack(parameters: Optional[SccPackageParameters] = None) -> LayerStack:
    """Package layer stack following the paper's Figure 7."""
    params = parameters or SccPackageParameters()
    die = Rect.from_size_mm(0.0, 0.0, params.die_width_mm, params.die_height_mm)
    margin = params.package_margin_mm * 1.0e-3
    package = die.expanded(margin)
    stack = LayerStack(package, name="scc_package")

    def um(value: float) -> float:
        return value * 1.0e-6

    def add(name: str, thickness_um: float, material: Material, die_only: bool = True) -> None:
        stack.add_layer(
            Layer(
                name=name,
                thickness=um(thickness_um),
                material=material,
                footprint=die if die_only else None,
                padding_material=EPOXY if die_only else None,
            )
        )

    tsv_bonding = mixed_material(
        "bonding_with_tsvs",
        COPPER,
        BONDING_LAYER,
        first_fraction=params.bonding_tsv_copper_fraction,
    )

    add("substrate", params.substrate_thickness_um, FR4, die_only=False)
    add("c4", params.c4_thickness_um, C4_LAYER)
    add("interposer", params.interposer_thickness_um, SILICON)
    add("die_silicon", params.die_silicon_thickness_um, SILICON)
    add("beol", params.beol_thickness_um, BEOL)
    add("bonding", params.bonding_thickness_um, tsv_bonding)
    add("optical_layer", params.optical_layer_thickness_um, OPTICAL_LAYER)
    add("optical_silicon", params.optical_silicon_thickness_um, SILICON)
    add("epoxy", params.epoxy_thickness_um, EPOXY)
    add("cap_silicon", params.cap_silicon_thickness_um, SILICON)
    add("tim", params.tim_thickness_um, THERMAL_INTERFACE)
    add("copper_lid", params.lid_thickness_um, COPPER, die_only=False)
    return stack


def build_scc_architecture(
    parameters: Optional[SccPackageParameters] = None,
    settings: Optional[SimulationSettings] = None,
) -> SccArchitecture:
    """Build the complete SCC-like case-study architecture."""
    params = parameters or SccPackageParameters()
    return SccArchitecture(
        parameters=params,
        settings=settings or SimulationSettings(),
        stack=build_scc_stack(params),
        floorplan=build_scc_floorplan(params),
    )
