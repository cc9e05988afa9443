"""Parity of the rasterised ``power_density_field`` with a per-source loop.

``loop_power_density_field`` is the straightforward projection, one source
at a time onto its separable overlap profile.  It is kept here as the
oracle: the library's raster + ``bincount`` path must reproduce it bit for
bit, because every artifact hash depends on the rounding of the load
vectors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from repro.errors import SolverError
from repro.geometry import Box
from repro.thermal import HeatSource, power_density_field
from repro.thermal.mesh import Mesh3D


def loop_power_density_field(mesh, sources):
    field = np.zeros(mesh.shape, dtype=float)
    for source in sources:
        if source.power_w == 0.0:
            continue
        profile = mesh.box_overlap_profile(source.box)
        total_overlap = profile.total_volume if profile is not None else 0.0
        if profile is None or total_overlap <= 0.0:
            raise SolverError(
                f"heat source {source.name!r} does not overlap the thermal mesh"
            )
        field[profile.x_slice, profile.y_slice, profile.z_slice] += (
            profile.volumes() * (source.power_w / total_overlap)
        )
    return field


def tensor_mesh(x_ticks, y_ticks, z_ticks):
    shape = (len(x_ticks) - 1, len(y_ticks) - 1, len(z_ticks) - 1)
    return Mesh3D(
        np.asarray(x_ticks, dtype=float),
        np.asarray(y_ticks, dtype=float),
        np.asarray(z_ticks, dtype=float),
        np.ones(shape),
        np.ones(shape),
    )


def cube_mesh(cells=4, size=1.0e-3):
    ticks = np.linspace(0.0, size, cells + 1)
    return tensor_mesh(ticks, ticks, ticks)


@st.composite
def axis_ticks(draw, max_cells):
    """Strictly increasing ticks with uneven (unrounded) cell widths."""
    start = draw(st.floats(min_value=-1.0e-3, max_value=1.0e-3))
    widths = draw(
        st.lists(
            st.floats(min_value=1.0e-6, max_value=1.0e-4),
            min_size=1,
            max_size=max_cells,
        )
    )
    ticks = start + np.cumsum([0.0] + widths)
    assume(np.all(np.diff(ticks) > 0.0))
    return ticks


@st.composite
def interval(draw, ticks):
    """``lower < upper`` anywhere around the axis, often exactly on ticks."""
    span = ticks[-1] - ticks[0]
    coordinate = st.one_of(
        st.sampled_from(list(ticks)),
        st.floats(min_value=ticks[0] - 0.5 * span, max_value=ticks[-1] + 0.5 * span),
    )
    lower, upper = sorted(draw(st.lists(coordinate, min_size=2, max_size=2, unique=True)))
    return lower, upper


@st.composite
def mesh_and_sources(draw):
    axes = (
        draw(axis_ticks(max_cells=30)),
        draw(axis_ticks(max_cells=12)),
        draw(axis_ticks(max_cells=5)),
    )
    mesh = tensor_mesh(*axes)
    # A small pool drawn with replacement yields duplicate and overlapping
    # boxes; intervals partly or wholly off an axis miss the mesh.
    pool = draw(
        st.lists(
            st.tuples(*(interval(ticks) for ticks in axes)), min_size=1, max_size=6
        )
    )
    boxes = [Box(x[0], y[0], z[0], x[1], y[1], z[1]) for x, y, z in pool]
    # Extents a few ulps wide can multiply to a zero volume.
    assume(all(box.volume > 0.0 for box in boxes))
    picks = draw(st.lists(st.sampled_from(boxes), max_size=12))
    power = st.one_of(st.just(0.0), st.floats(min_value=1.0e-6, max_value=10.0))
    sources = [
        HeatSource(name=f"s{index}", box=box, power_w=draw(power))
        for index, box in enumerate(picks)
    ]
    return mesh, sources


def outcome(function, mesh, sources):
    try:
        return function(mesh, sources)
    except SolverError as error:
        return str(error)


class TestRasterParity:
    @given(mesh_and_sources())
    @hyp_settings(max_examples=300, deadline=None)
    def test_matches_per_source_loop_bitwise(self, case):
        mesh, sources = case
        expected = outcome(loop_power_density_field, mesh, sources)
        actual = outcome(power_density_field, mesh, sources)
        if isinstance(expected, str):
            assert actual == expected
        else:
            assert actual.shape == mesh.shape
            assert actual.dtype == np.float64
            assert np.array_equal(actual, expected)

    @given(mesh_and_sources())
    @hyp_settings(max_examples=100, deadline=None)
    def test_raster_entries_match_overlap_profiles(self, case):
        mesh, sources = case
        raster = mesh.box_raster([source.box for source in sources])
        assert np.all(np.diff(raster.owners) >= 0)
        for index, source in enumerate(sources):
            profile = mesh.box_overlap_profile(source.box)
            mine = raster.owners == index
            dense = np.zeros(mesh.n_cells)
            dense[raster.cells[mine]] = raster.volumes[mine]
            if profile is None:
                assert not mine.any()
                assert raster.totals[index] == 0.0
            else:
                assert raster.totals[index] == profile.total_volume
                assert np.array_equal(
                    dense.reshape(mesh.shape), mesh.box_overlap_volumes(source.box)
                )

    def test_repeated_geometry_with_new_powers(self):
        mesh = tensor_mesh(
            np.cumsum([0.0] + [3.1e-5] * 17 + [7.3e-6] * 9),
            np.linspace(0.0, 5.0e-4, 13),
            np.array([0.0, 1.0e-4, 1.7e-4, 4.0e-4]),
        )
        boxes = [
            Box(1.0e-5, 2.0e-5, 0.0, 6.1e-4, 3.3e-4, 2.0e-4),
            Box(2.0e-4, 0.0, 1.0e-4, 2.6e-4, 5.0e-4, 1.7e-4),
            Box(1.0e-5, 2.0e-5, 0.0, 6.1e-4, 3.3e-4, 2.0e-4),
        ]
        for powers in ((1.0, 0.5, 2.0), (0.0, 3.0, 0.25), (7.0, 0.0, 0.0)):
            sources = [
                HeatSource(name=f"s{index}", box=box, power_w=power)
                for index, (box, power) in enumerate(zip(boxes, powers))
            ]
            assert np.array_equal(
                power_density_field(mesh, sources),
                loop_power_density_field(mesh, sources),
            )
        assert len(mesh._box_rasters) == 1

    def test_empty_source_list(self):
        mesh = cube_mesh()
        field = power_density_field(mesh, [])
        assert field.shape == mesh.shape
        assert field.dtype == np.float64
        assert not field.any()


class TestRasterErrors:
    def test_powered_source_off_mesh_raises_naming_it(self):
        mesh = cube_mesh()
        sources = [
            HeatSource(name="inside", box=Box(0.0, 0.0, 0.0, 5e-4, 5e-4, 5e-4), power_w=1.0),
            HeatSource(name="off_a", box=Box(2e-3, 0.0, 0.0, 3e-3, 1e-3, 1e-3), power_w=1.0),
            HeatSource(name="off_b", box=Box(0.0, 2e-3, 0.0, 1e-3, 3e-3, 1e-3), power_w=1.0),
        ]
        with pytest.raises(SolverError, match="'off_a' does not overlap"):
            power_density_field(mesh, sources)

    def test_box_touching_the_mesh_only_on_a_face_misses(self):
        mesh = cube_mesh()
        touching = HeatSource(
            name="face", box=Box(1e-3, 0.0, 0.0, 2e-3, 1e-3, 1e-3), power_w=1.0
        )
        with pytest.raises(SolverError, match="'face' does not overlap"):
            power_density_field(mesh, [touching])

    def test_zero_power_source_off_mesh_never_raises(self):
        mesh = cube_mesh()
        sources = [
            HeatSource(name="off", box=Box(2e-3, 2e-3, 2e-3, 3e-3, 3e-3, 3e-3), power_w=0.0),
            HeatSource(name="on", box=Box(0.0, 0.0, 0.0, 5e-4, 5e-4, 5e-4), power_w=2.0),
        ]
        field = power_density_field(mesh, sources)
        assert np.array_equal(field, loop_power_density_field(mesh, sources))
        assert field.sum() == pytest.approx(2.0, rel=1e-12)


class TestRasterCache:
    def test_hit_returns_the_cached_raster(self):
        mesh = cube_mesh()
        boxes = [Box(0.0, 0.0, 0.0, 5e-4, 5e-4, 5e-4)]
        first = mesh.box_raster(boxes)
        assert mesh.box_raster(list(boxes)) is first
        assert not first.volumes.flags.writeable

    def test_lru_stays_at_capacity(self):
        mesh = cube_mesh()
        capacity = mesh._box_rasters.max_entries
        for index in range(capacity + 5):
            offset = index * 1.0e-5
            source = HeatSource(
                name="s", box=Box(offset, 0.0, 0.0, 5e-4 + offset, 5e-4, 5e-4), power_w=1.0
            )
            power_density_field(mesh, [source])
            assert len(mesh._box_rasters) == min(index + 1, capacity)
        assert len(mesh._box_rasters) == capacity
