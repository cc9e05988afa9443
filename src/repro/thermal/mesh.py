"""Non-uniform rectilinear 3D meshes for the finite-volume thermal solver.

The mesh follows the multi-resolution idea of the paper's IcTherm setup
(Section IV.B): the package is meshed coarsely, the die more finely, and the
regions containing optical interfaces with a micro-scale resolution.  Since
the mesh is rectilinear (a tensor product of x, y and z tick vectors), a
refinement region refines whole rows/columns; device-scale resolution is
obtained with the two-level zoom solver (:mod:`repro.thermal.zoom`) rather
than by meshing the whole chip at 5 um.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import LruCache
from ..errors import MeshError
from ..geometry import Box, LayerStack, Rect
from ..materials import AIR, Material
from ..units import um_to_m


@dataclass(frozen=True)
class BoxOverlap:
    """Separable box/mesh overlap: per-axis lengths on their nonzero ranges.

    All lengths are strictly positive (the nonzero overlap range along an
    axis is contiguous), so every cell of the
    ``[x_slice, y_slice, z_slice]`` sub-box overlaps the source box.
    """

    x_slice: slice
    y_slice: slice
    z_slice: slice
    x_lengths: np.ndarray
    y_lengths: np.ndarray
    z_lengths: np.ndarray

    @property
    def total_volume(self) -> float:
        """Total overlap volume [m^3]."""
        return float(
            self.x_lengths.sum() * self.y_lengths.sum() * self.z_lengths.sum()
        )

    def volumes(self) -> np.ndarray:
        """Dense per-cell overlap volumes of the sub-box."""
        return (
            self.x_lengths[:, None, None]
            * self.y_lengths[None, :, None]
            * self.z_lengths[None, None, :]
        )

    def weighted_sum(self, field: np.ndarray) -> float:
        """Overlap-volume-weighted sum of ``field`` (full mesh shape)."""
        sub = field[self.x_slice, self.y_slice, self.z_slice]
        return float(
            np.einsum(
                "ijk,i,j,k->",
                sub,
                self.x_lengths,
                self.y_lengths,
                self.z_lengths,
            )
        )


@dataclass(frozen=True)
class BoxRaster:
    """Overlap of an ordered box list with a mesh, flattened to entries.

    Entry ``e`` records that box ``owners[e]`` overlaps the cell with
    row-major flat index ``cells[e]`` by ``volumes[e]`` [m^3].  Entries are
    grouped by box in list order, so a ``np.bincount`` over ``cells`` sums
    each cell's terms in box order.  ``totals[b]`` is the overlap volume of
    box ``b`` (0.0 when it misses the mesh), rounded exactly as
    :attr:`BoxOverlap.total_volume`; the volumes equal
    :meth:`BoxOverlap.volumes` element for element.
    """

    cells: np.ndarray
    volumes: np.ndarray
    owners: np.ndarray
    totals: np.ndarray


#: Cache sentinel for "this box does not overlap the mesh" (LruCache treats
#: ``None`` as a miss, so the negative outcome needs its own marker).
_NO_OVERLAP = object()


def _axis_windows(
    ticks: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bisected ``[start, stop)`` cell windows of intervals along one axis.

    The same windows as :meth:`Mesh3D.box_overlap_profile`; an interval
    misses the axis when ``start >= stop``.
    """
    start = np.maximum(np.searchsorted(ticks, lower, side="right") - 1, 0)
    stop = np.minimum(np.searchsorted(ticks, upper, side="left"), ticks.size - 1)
    return start, stop


def _axis_runs(
    ticks: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    start: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-box overlap runs along one axis, concatenated in box order.

    Box ``b`` owns the ``counts[b]`` entries from ``first[b]`` on of the
    returned ``(first, cells, lengths)``: axis cell indices from
    ``start[b]`` on, and their overlap lengths.  The lengths come from the
    same operations as :meth:`Mesh3D.box_overlap_profile`, so they are
    bitwise equal to its profiles.
    """
    first = np.cumsum(counts) - counts
    cells = np.repeat(start - first, counts) + np.arange(int(counts.sum()))
    ends = np.minimum(ticks[cells + 1], np.repeat(upper, counts))
    starts = np.maximum(ticks[cells], np.repeat(lower, counts))
    return first, cells, np.clip(ends - starts, 0.0, None)


def _run_sums(counts: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``lengths[first[b]:first[b] + counts[b]].sum()`` for every box ``b``.

    Runs of equal length are summed together as the rows of one contiguous
    2-D array, which rounds each row exactly like a 1-D ``ndarray.sum()``
    (``np.add.reduceat`` does not).
    """
    sums = np.zeros(counts.size)
    for count in np.unique(counts[counts > 0]):
        boxes = np.flatnonzero(counts == count)
        rows = lengths[first[boxes][:, None] + np.arange(count)]
        sums[boxes] = rows.sum(axis=1)
    return sums


@dataclass(frozen=True)
class RefinementRegion:
    """A lateral region meshed with a finer target cell size."""

    rect: Rect
    cell_size: float

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise MeshError("refinement cell size must be positive")


def build_ticks(
    lower: float,
    upper: float,
    base_size: float,
    refinements: Sequence[Tuple[float, float, float]] = (),
) -> np.ndarray:
    """Build a 1D tick vector between ``lower`` and ``upper``.

    ``refinements`` is a sequence of ``(lo, hi, size)`` intervals meshed with
    the given target size; outside them the ``base_size`` applies.  Interval
    boundaries always become ticks so material/block edges are honoured.
    """
    if upper <= lower:
        raise MeshError(f"invalid tick range [{lower}, {upper}]")
    if base_size <= 0.0:
        raise MeshError("base cell size must be positive")

    breakpoints = {lower, upper}
    clipped: List[Tuple[float, float, float]] = []
    for lo, hi, size in refinements:
        if size <= 0.0:
            raise MeshError("refinement cell size must be positive")
        lo_clamped = max(lo, lower)
        hi_clamped = min(hi, upper)
        if hi_clamped <= lo_clamped:
            continue
        clipped.append((lo_clamped, hi_clamped, size))
        breakpoints.add(lo_clamped)
        breakpoints.add(hi_clamped)

    sorted_points = sorted(breakpoints)
    ticks: List[float] = [sorted_points[0]]
    for start, end in zip(sorted_points[:-1], sorted_points[1:]):
        length = end - start
        if length <= 0.0:
            continue
        midpoint = 0.5 * (start + end)
        target = base_size
        for lo, hi, size in clipped:
            if lo <= midpoint <= hi:
                target = min(target, size)
        divisions = max(1, int(math.ceil(length / target - 1.0e-9)))
        step = length / divisions
        for division in range(1, divisions + 1):
            ticks.append(start + division * step)
    # Breakpoints that nearly coincide (e.g. a refinement edge a rounding error
    # away from the domain boundary) would otherwise produce degenerate cells.
    tolerance = 1.0e-9 * (upper - lower)
    merged = merge_close_ticks(np.asarray(ticks, dtype=float), tolerance=tolerance)
    merged[-1] = upper
    return merged


def merge_close_ticks(ticks: np.ndarray, tolerance: float = 1.0e-9) -> np.ndarray:
    """Remove ticks closer than ``tolerance`` to their predecessor."""
    if ticks.size == 0:
        return ticks
    kept = [float(ticks[0])]
    for value in ticks[1:]:
        if value - kept[-1] > tolerance:
            kept.append(float(value))
    return np.asarray(kept, dtype=float)


class Mesh3D:
    """Rectilinear mesh with per-cell anisotropic conductivities.

    The conductivity arrays have shape ``(nx, ny, nz)``; ``k_lateral`` is used
    for heat flow along x and y, ``k_vertical`` along z.  The optional
    ``c_volumetric`` array carries the per-cell volumetric heat capacity
    (rho * c_p, [J/(m^3 K)]) consumed by the transient solver; steady-state
    solves ignore it, so meshes built without it remain fully usable.
    """

    def __init__(
        self,
        x_ticks: np.ndarray,
        y_ticks: np.ndarray,
        z_ticks: np.ndarray,
        k_lateral: np.ndarray,
        k_vertical: np.ndarray,
        c_volumetric: Optional[np.ndarray] = None,
    ) -> None:
        for name, ticks in (("x", x_ticks), ("y", y_ticks), ("z", z_ticks)):
            if ticks.ndim != 1 or ticks.size < 2:
                raise MeshError(f"{name}_ticks must be a 1D array with >= 2 entries")
            if np.any(np.diff(ticks) <= 0.0):
                raise MeshError(f"{name}_ticks must be strictly increasing")
        self.x_ticks = np.asarray(x_ticks, dtype=float)
        self.y_ticks = np.asarray(y_ticks, dtype=float)
        self.z_ticks = np.asarray(z_ticks, dtype=float)
        expected_shape = (self.nx, self.ny, self.nz)
        if k_lateral.shape != expected_shape or k_vertical.shape != expected_shape:
            raise MeshError(
                f"conductivity arrays must have shape {expected_shape}, got "
                f"{k_lateral.shape} and {k_vertical.shape}"
            )
        if np.any(k_lateral <= 0.0) or np.any(k_vertical <= 0.0):
            raise MeshError("cell conductivities must be strictly positive")
        self.k_lateral = np.asarray(k_lateral, dtype=float)
        self.k_vertical = np.asarray(k_vertical, dtype=float)
        if c_volumetric is not None:
            c_volumetric = np.asarray(c_volumetric, dtype=float)
            if c_volumetric.shape != expected_shape:
                raise MeshError(
                    f"heat capacity array must have shape {expected_shape}, got "
                    f"{c_volumetric.shape}"
                )
            if not np.all(np.isfinite(c_volumetric)) or not np.all(
                c_volumetric > 0.0
            ):
                raise MeshError(
                    "cell heat capacities must be strictly positive and finite"
                )
        self.c_volumetric = c_volumetric
        #: Box coordinates -> BoxOverlap (or the no-overlap sentinel).  The
        #: same boxes are rasterised over and over — every segment of an
        #: activity schedule re-projects the identical source geometry, only
        #: the powers change — so profiles are memoised per mesh.  Bounded
        #: LRU: large sweeps over moving probe windows must not accumulate
        #: profiles without limit.
        self._overlap_profiles: LruCache[object] = LruCache(max_entries=4096)
        #: Ordered box coordinates -> BoxRaster.  A source set is projected
        #: again for every new set of powers (sweep points, batch columns,
        #: schedule segments) while its geometry stays put, and a spec only
        #: uses a few geometries per mesh.
        self._box_rasters: LruCache[BoxRaster] = LruCache(max_entries=8)

    @property
    def has_heat_capacity(self) -> bool:
        """Whether the mesh carries per-cell volumetric heat capacities."""
        return self.c_volumetric is not None

    def capacitance_vector(self) -> np.ndarray:
        """Per-cell lumped thermal capacitance [J/K], flattened row-major.

        ``C_i = volume_i * (rho c_p)_i`` — the diagonal of the transient
        system's capacitance matrix.  Requires the mesh to have been built
        with heat capacities (:class:`MeshBuilder` fills them from the layer
        materials); hand-built meshes can pass ``c_volumetric`` explicitly.
        """
        if self.c_volumetric is None:
            raise MeshError(
                "the mesh has no heat-capacity data; build it with MeshBuilder "
                "or construct Mesh3D with an explicit c_volumetric array"
            )
        return (self.cell_volumes() * self.c_volumetric).ravel()

    # Shape ----------------------------------------------------------------

    @property
    def nx(self) -> int:
        """Number of cells along x."""
        return self.x_ticks.size - 1

    @property
    def ny(self) -> int:
        """Number of cells along y."""
        return self.y_ticks.size - 1

    @property
    def nz(self) -> int:
        """Number of cells along z."""
        return self.z_ticks.size - 1

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Cell-count tuple ``(nx, ny, nz)``."""
        return (self.nx, self.ny, self.nz)

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.nx * self.ny * self.nz

    # Spacings and centres ---------------------------------------------------

    @property
    def dx(self) -> np.ndarray:
        """Cell widths along x [m]."""
        return np.diff(self.x_ticks)

    @property
    def dy(self) -> np.ndarray:
        """Cell widths along y [m]."""
        return np.diff(self.y_ticks)

    @property
    def dz(self) -> np.ndarray:
        """Cell widths along z [m]."""
        return np.diff(self.z_ticks)

    @property
    def x_centers(self) -> np.ndarray:
        """Cell centre coordinates along x [m]."""
        return 0.5 * (self.x_ticks[:-1] + self.x_ticks[1:])

    @property
    def y_centers(self) -> np.ndarray:
        """Cell centre coordinates along y [m]."""
        return 0.5 * (self.y_ticks[:-1] + self.y_ticks[1:])

    @property
    def z_centers(self) -> np.ndarray:
        """Cell centre coordinates along z [m]."""
        return 0.5 * (self.z_ticks[:-1] + self.z_ticks[1:])

    def cell_volumes(self) -> np.ndarray:
        """Cell volumes [m^3] with shape ``(nx, ny, nz)``."""
        return (
            self.dx[:, None, None] * self.dy[None, :, None] * self.dz[None, None, :]
        )

    # Location ----------------------------------------------------------------

    def bounding_box(self) -> Box:
        """Bounding box of the mesh."""
        return Box(
            self.x_ticks[0],
            self.y_ticks[0],
            self.z_ticks[0],
            self.x_ticks[-1],
            self.y_ticks[-1],
            self.z_ticks[-1],
        )

    def locate(self, x: float, y: float, z: float) -> Tuple[int, int, int]:
        """Indices of the cell containing the point (clamped to the mesh)."""
        box = self.bounding_box()
        if not box.contains_point(x, y, z):
            raise MeshError(f"point ({x}, {y}, {z}) lies outside the mesh")
        i = min(max(bisect.bisect_right(self.x_ticks, x) - 1, 0), self.nx - 1)
        j = min(max(bisect.bisect_right(self.y_ticks, y) - 1, 0), self.ny - 1)
        k = min(max(bisect.bisect_right(self.z_ticks, z) - 1, 0), self.nz - 1)
        return i, j, k

    def cell_box(self, i: int, j: int, k: int) -> Box:
        """Bounding box of cell (i, j, k)."""
        self._check_indices(i, j, k)
        return Box(
            self.x_ticks[i],
            self.y_ticks[j],
            self.z_ticks[k],
            self.x_ticks[i + 1],
            self.y_ticks[j + 1],
            self.z_ticks[k + 1],
        )

    def flat_index(self, i: int, j: int, k: int) -> int:
        """Flattened (row-major) index of cell (i, j, k)."""
        self._check_indices(i, j, k)
        return (i * self.ny + j) * self.nz + k

    def _check_indices(self, i: int, j: int, k: int) -> None:
        if not (0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz):
            raise MeshError(
                f"cell index ({i}, {j}, {k}) outside mesh of shape {self.shape}"
            )

    # Overlap helpers ---------------------------------------------------------

    def box_overlap_profile(self, box: Box) -> Optional["BoxOverlap"]:
        """Separable overlap of ``box`` with the mesh, trimmed to its sub-box.

        The overlap volume of a rectilinear box with a tensor mesh factors
        into per-axis overlap lengths that are nonzero only on a contiguous
        index range.  Returning the three trimmed 1-D profiles (plus their
        index slices) lets hot paths work on the small sub-box instead of
        materialising a full ``(nx, ny, nz)`` array per box.  Returns ``None``
        when the box does not overlap the mesh.

        The overlap is computed only on the tick window the interval can
        touch (located by bisection) and memoised per box coordinates: the
        rasterisation cost of a source set then scales with the sources'
        footprint rather than the mesh size, and repeated projections of the
        same geometry (every segment of an activity schedule, every probe of
        a sweep) are free.
        """
        key = (box.x_min, box.x_max, box.y_min, box.y_max, box.z_min, box.z_max)
        cached = self._overlap_profiles.get(key)
        if cached is not None:
            return cached if isinstance(cached, BoxOverlap) else None
        profiles = []
        slices = []
        for ticks, lower, upper in (
            (self.x_ticks, box.x_min, box.x_max),
            (self.y_ticks, box.y_min, box.y_max),
            (self.z_ticks, box.z_min, box.z_max),
        ):
            # Cells strictly outside [lower, upper] cannot overlap; restrict
            # the vector work to the bisected candidate window.
            window_start = max(int(np.searchsorted(ticks, lower, side="right")) - 1, 0)
            window_stop = min(int(np.searchsorted(ticks, upper, side="left")), ticks.size - 1)
            if window_start >= window_stop:
                self._overlap_profiles.put(key, _NO_OVERLAP)
                return None
            starts = np.maximum(ticks[window_start:window_stop], lower)
            ends = np.minimum(ticks[window_start + 1 : window_stop + 1], upper)
            lengths = np.clip(ends - starts, 0.0, None)
            nonzero = np.flatnonzero(lengths)
            if nonzero.size == 0:
                self._overlap_profiles.put(key, _NO_OVERLAP)
                return None
            first, last = int(nonzero[0]), int(nonzero[-1]) + 1
            profiles.append(lengths[first:last])
            slices.append(slice(window_start + first, window_start + last))
        profile = BoxOverlap(
            x_slice=slices[0],
            y_slice=slices[1],
            z_slice=slices[2],
            x_lengths=profiles[0],
            y_lengths=profiles[1],
            z_lengths=profiles[2],
        )
        self._overlap_profiles.put(key, profile)
        return profile

    def box_overlap_volumes(self, box: Box) -> np.ndarray:
        """Per-cell overlap volume with ``box`` [m^3], shape ``(nx, ny, nz)``."""
        volumes = np.zeros(self.shape, dtype=float)
        profile = self.box_overlap_profile(box)
        if profile is not None:
            volumes[profile.x_slice, profile.y_slice, profile.z_slice] = (
                profile.volumes()
            )
        return volumes

    def box_raster(self, boxes: Sequence[Box]) -> BoxRaster:
        """Overlap of the ordered ``boxes`` with the mesh as flat entries.

        Memoised per mesh on the box coordinates in order, so projecting
        the same geometry with new weights (powers) is one ``bincount``
        over the cached entries.
        """
        key = tuple(
            (box.x_min, box.x_max, box.y_min, box.y_max, box.z_min, box.z_max)
            for box in boxes
        )
        raster = self._box_rasters.get(key)
        if raster is None:
            raster = self._compile_raster(np.array(key, dtype=float).reshape(-1, 6))
            self._box_rasters.put(key, raster)
        return raster

    def _compile_raster(self, coords: np.ndarray) -> BoxRaster:
        """Build the :class:`BoxRaster` of boxes given as ``(n, 6)`` coordinates.

        All boxes are processed at once: per-axis runs of overlapped cells
        are expanded to one entry per overlapped cell, box by box, with the
        x index outermost and z innermost.
        """
        axes = (self.x_ticks, self.y_ticks, self.z_ticks)
        lowers = [coords[:, 2 * axis] for axis in range(3)]
        uppers = [coords[:, 2 * axis + 1] for axis in range(3)]
        windows = [
            _axis_windows(ticks, lower, upper)
            for ticks, lower, upper in zip(axes, lowers, uppers)
        ]
        # A flat box overlaps no volume, even when its window is non-empty.
        hit = np.ones(coords.shape[0], dtype=bool)
        for (start, stop), lower, upper in zip(windows, lowers, uppers):
            hit &= (stop > start) & (upper > lower)
        counts, firsts, axis_cells, lengths, sums = [], [], [], [], []
        for ticks, lower, upper, (start, stop) in zip(axes, lowers, uppers, windows):
            count = np.where(hit, stop - start, 0)
            first, cells, length = _axis_runs(ticks, lower, upper, start, count)
            counts.append(count)
            firsts.append(first)
            axis_cells.append(cells)
            lengths.append(length)
            sums.append(_run_sums(count, first, length))
        # Per-cell entries, box by box: decompose each entry's offset within
        # its box into (ix, iy, iz) over the box's run lengths.
        n_x, n_y, n_z = counts
        box_cells = n_x * n_y * n_z
        owners = np.repeat(np.arange(coords.shape[0]), box_cells)
        offsets = np.arange(owners.size) - (np.cumsum(box_cells) - box_cells)[owners]
        ix, rest = np.divmod(offsets, (n_y * n_z)[owners])
        iy, iz = np.divmod(rest, n_z[owners])
        at = [firsts[0][owners] + ix, firsts[1][owners] + iy, firsts[2][owners] + iz]
        i, j, k = (cells[index] for cells, index in zip(axis_cells, at))
        raster = BoxRaster(
            cells=(i * self.ny + j) * self.nz + k,
            # Same products, in the same order, as BoxOverlap.volumes and
            # BoxOverlap.total_volume; boxes that miss get total 0.0.
            volumes=lengths[0][at[0]] * lengths[1][at[1]] * lengths[2][at[2]],
            owners=owners,
            totals=sums[0] * sums[1] * sums[2],
        )
        for array in (raster.cells, raster.volumes, raster.owners, raster.totals):
            array.setflags(write=False)
        return raster


class MeshBuilder:
    """Build a :class:`Mesh3D` from a :class:`~repro.geometry.LayerStack`.

    Lateral resolution is controlled by a base cell size plus refinement
    regions; vertical resolution honours every layer boundary and subdivides
    thick layers.
    """

    def __init__(
        self,
        stack: LayerStack,
        base_cell_size_um: float = 1000.0,
        max_cells: int = 2_000_000,
        padding_material: Material = AIR,
        max_sublayers: int = 4,
        vertical_target_um: float = 400.0,
        region: Optional[Rect] = None,
        vertical_range: Optional[Tuple[float, float]] = None,
    ) -> None:
        if base_cell_size_um <= 0.0:
            raise MeshError("base cell size must be positive")
        if max_cells <= 0:
            raise MeshError("max_cells must be positive")
        if region is not None and not stack.footprint.contains_rect(region):
            raise MeshError("mesh region must lie inside the stack footprint")
        if vertical_range is not None:
            z_low, z_high = vertical_range
            if not 0.0 <= z_low < z_high <= stack.total_thickness + 1.0e-12:
                raise MeshError(
                    "vertical_range must be an increasing sub-interval of the stack height"
                )
        self._stack = stack
        self._region = region
        self._vertical_range = vertical_range
        self._base_cell_size = um_to_m(base_cell_size_um)
        self._max_cells = max_cells
        self._padding_material = padding_material
        self._max_sublayers = max(1, max_sublayers)
        self._vertical_target = um_to_m(vertical_target_um)
        self._refinements: List[RefinementRegion] = []

    def add_refinement(self, rect: Rect, cell_size_um: float) -> None:
        """Mesh the lateral region ``rect`` with the given target cell size."""
        self._refinements.append(
            RefinementRegion(rect=rect, cell_size=um_to_m(cell_size_um))
        )

    def add_refinements(self, rects: Iterable[Rect], cell_size_um: float) -> None:
        """Add the same refinement size for several regions."""
        for rect in rects:
            self.add_refinement(rect, cell_size_um)

    # Internal helpers --------------------------------------------------------

    def _z_ticks(self) -> np.ndarray:
        ticks: List[float] = [0.0]
        z = 0.0
        for layer in self._stack:
            sublayers = max(
                1,
                min(
                    self._max_sublayers,
                    int(math.ceil(layer.thickness / self._vertical_target)),
                ),
            )
            step = layer.thickness / sublayers
            for index in range(1, sublayers + 1):
                ticks.append(z + index * step)
            z += layer.thickness
        merged = merge_close_ticks(np.asarray(ticks, dtype=float))
        if self._vertical_range is None:
            return merged
        z_low, z_high = self._vertical_range
        inside = merged[(merged > z_low + 1.0e-12) & (merged < z_high - 1.0e-12)]
        clipped = np.concatenate(([z_low], inside, [z_high]))
        return merge_close_ticks(clipped)

    def _lateral_ticks(self) -> Tuple[np.ndarray, np.ndarray]:
        footprint = self._region or self._stack.footprint
        x_refinements = [
            (region.rect.x_min, region.rect.x_max, region.cell_size)
            for region in self._refinements
        ]
        y_refinements = [
            (region.rect.y_min, region.rect.y_max, region.cell_size)
            for region in self._refinements
        ]
        layer_hints_x: List[Tuple[float, float, float]] = []
        layer_hints_y: List[Tuple[float, float, float]] = []
        for layer in self._stack:
            if layer.mesh_hint_um is None:
                continue
            rect = layer.footprint or footprint
            size = um_to_m(layer.mesh_hint_um)
            layer_hints_x.append((rect.x_min, rect.x_max, size))
            layer_hints_y.append((rect.y_min, rect.y_max, size))
        x_ticks = build_ticks(
            footprint.x_min,
            footprint.x_max,
            self._base_cell_size,
            x_refinements + layer_hints_x,
        )
        y_ticks = build_ticks(
            footprint.y_min,
            footprint.y_max,
            self._base_cell_size,
            y_refinements + layer_hints_y,
        )
        return merge_close_ticks(x_ticks), merge_close_ticks(y_ticks)

    def _fill_cell_properties(
        self,
        x_centers: np.ndarray,
        y_centers: np.ndarray,
        z_centers: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nx, ny, nz = x_centers.size, y_centers.size, z_centers.size
        k_lateral = np.empty((nx, ny, nz), dtype=float)
        k_vertical = np.empty((nx, ny, nz), dtype=float)
        c_volumetric = np.empty((nx, ny, nz), dtype=float)
        for k_index, z in enumerate(z_centers):
            layer = self._stack.layer_at(z)
            default = layer.material
            k_lateral[:, :, k_index] = default.lateral_conductivity
            k_vertical[:, :, k_index] = default.vertical_conductivity
            c_volumetric[:, :, k_index] = default.volumetric_heat_capacity_j_m3k()
            if layer.footprint is not None:
                padding = layer.padding_material or self._padding_material
                inside_x = (x_centers >= layer.footprint.x_min) & (
                    x_centers <= layer.footprint.x_max
                )
                inside_y = (y_centers >= layer.footprint.y_min) & (
                    y_centers <= layer.footprint.y_max
                )
                outside = ~(inside_x[:, None] & inside_y[None, :])
                k_lateral[:, :, k_index][outside] = padding.lateral_conductivity
                k_vertical[:, :, k_index][outside] = padding.vertical_conductivity
                c_volumetric[:, :, k_index][outside] = (
                    padding.volumetric_heat_capacity_j_m3k()
                )
            for block in layer.blocks:
                in_x = (x_centers >= block.footprint.x_min) & (
                    x_centers <= block.footprint.x_max
                )
                in_y = (y_centers >= block.footprint.y_min) & (
                    y_centers <= block.footprint.y_max
                )
                region = in_x[:, None] & in_y[None, :]
                k_lateral[:, :, k_index][region] = block.material.lateral_conductivity
                k_vertical[:, :, k_index][region] = block.material.vertical_conductivity
                c_volumetric[:, :, k_index][region] = (
                    block.material.volumetric_heat_capacity_j_m3k()
                )
        return k_lateral, k_vertical, c_volumetric

    # Public API ---------------------------------------------------------------

    def build(self) -> Mesh3D:
        """Construct the mesh; raises :class:`MeshError` if it would be too large."""
        x_ticks, y_ticks = self._lateral_ticks()
        z_ticks = self._z_ticks()
        n_cells = (x_ticks.size - 1) * (y_ticks.size - 1) * (z_ticks.size - 1)
        if n_cells > self._max_cells:
            raise MeshError(
                f"mesh would contain {n_cells} cells, above the configured limit "
                f"of {self._max_cells}; relax the resolutions or raise max_cells"
            )
        x_centers = 0.5 * (x_ticks[:-1] + x_ticks[1:])
        y_centers = 0.5 * (y_ticks[:-1] + y_ticks[1:])
        z_centers = 0.5 * (z_ticks[:-1] + z_ticks[1:])
        k_lateral, k_vertical, c_volumetric = self._fill_cell_properties(
            x_centers, y_centers, z_centers
        )
        return Mesh3D(
            x_ticks, y_ticks, z_ticks, k_lateral, k_vertical, c_volumetric
        )
