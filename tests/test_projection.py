"""Multi-view projection: plane collapse, HU windowing, crop/resize, symmetry."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mvpad import (
    EmptyMaskError,
    PROJECTION_SETS,
    PhantomConfig,
    ProjectionType,
    Volume,
    aip_project,
    generate_case,
    mip_project,
    project_case,
    split_left_right,
)
from mvpad import projection
from mvpad.errors import DimensionMismatchError, InvalidArgumentError
from mvpad.projection import (
    ALL_PROJECTIONS,
    ProjectionGeometry,
    bilinear_sample,
    crop_resize_to_canvas,
    nearest_sample,
    plane_shape,
)
from mvpad.segmentation import LungPair
from mvpad.volume import DEFAULT_HU_HI, DEFAULT_HU_LO, window_unit


def unit_volume(arr):
    return Volume(np.asarray(arr, dtype=np.float32))


class TestProjectionType:
    def test_exactly_six_in_canonical_order(self):
        assert [p.value for p in ALL_PROJECTIONS] == [
            "right_sagittal",
            "right_coronal",
            "right_axial",
            "left_sagittal",
            "left_coronal",
            "left_axial",
        ]

    def test_plane_to_axis_map(self):
        assert ProjectionType.RIGHT_AXIAL.axis == 0
        assert ProjectionType.LEFT_CORONAL.axis == 1
        assert ProjectionType.RIGHT_SAGITTAL.axis == 2

    def test_plane_shape_drops_collapsed_axis(self):
        dims = (3, 5, 7)
        assert plane_shape(dims, ProjectionType.RIGHT_AXIAL) == (5, 7)
        assert plane_shape(dims, ProjectionType.RIGHT_CORONAL) == (3, 7)
        assert plane_shape(dims, ProjectionType.RIGHT_SAGITTAL) == (3, 5)

    def test_from_string_round_trip_and_rejection(self):
        for p in ALL_PROJECTIONS:
            assert ProjectionType.from_string(p.value) is p
        with pytest.raises(InvalidArgumentError):
            ProjectionType.from_string("upper_oblique")


class TestPrepareLungVolume:
    """project_case windows only the lung: every other voxel on a ray is the
    fill ``hu_lo``, which maps to exactly 0.0."""

    @staticmethod
    def right_axial(ct, labels, method, **window):
        pair = LungPair(Volume(np.asarray(labels, dtype=np.uint8)))
        canvas = plane_shape(ct.dims, ProjectionType.RIGHT_AXIAL)  # the crop is the whole plane
        [(img, mask)] = project_case(ct, pair, method, canvas, ptypes=(ProjectionType.RIGHT_AXIAL,), **window)
        return img.pixels[0], mask.pixels[0]

    def test_examples(self):
        # the right lung's box spans z 0..2 at x=1: -400 and -900 HU around a
        # 40 HU non-lung voxel; x=0 is non-lung, x=2 the left lung
        ct = Volume(np.array([[[40, -400, -900]], [[40, 40, 40]], [[40, -900, 40]]], dtype=np.int16))
        labels = [[[0, 1, 2]], [[0, 0, 0]], [[0, 1, 0]]]
        mip, mask = self.right_axial(ct, labels, "mip")
        # outside lung -> 0; -400 -> midpoint; -900 clamps to -800 -> 0
        np.testing.assert_array_equal(mip, np.float32([0.0, 0.5, 0.0]))
        np.testing.assert_array_equal(mask, np.uint8([0, 1, 0]))
        aip, _ = self.right_axial(ct, labels, "aip")
        np.testing.assert_array_equal(aip, np.float32([0.0, 0.5 / 3, 0.0]))

    def test_custom_window(self):
        ct = Volume(
            np.array([[[40, -400, -1000, 200, -400]], [[40] * 5], [[40, -1000, -1000, -1000, 40]]], dtype=np.int16)
        )
        labels = [[[0, 1, 1, 1, 2]], [[0] * 5], [[0, 1, 1, 1, 0]]]
        mip, mask = self.right_axial(ct, labels, "mip", hu_lo=-1000, hu_hi=200)
        # the non-lung fill is hu_lo, so it still maps to exactly 0
        np.testing.assert_array_equal(mip, np.float32([0.0, 0.5, 0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(mask, np.uint8([0, 1, 1, 1, 0]))
        aip, _ = self.right_axial(ct, labels, "aip", hu_lo=-1000, hu_hi=200)
        np.testing.assert_array_equal(aip, np.float32([0.0, 0.5 / 3, 0.0, 1 / 3, 0.0]))

    def test_dim_mismatch(self):
        ct = Volume(np.zeros((2, 2, 2), dtype=np.int16))
        for dims in ((2, 2, 3), (3, 2, 2)):
            labels = np.ones(dims, dtype=np.uint8)
            labels[..., -1] = 2
            with pytest.raises(DimensionMismatchError):
                project_case(ct, LungPair(Volume(labels)), canvas=(2, 2))

    @pytest.mark.parametrize("ct", [
        Volume(np.full((2, 2, 2), 0.5, dtype=np.float32)),
        Volume(np.ones((2, 2, 2), dtype=np.uint8)),
    ])
    def test_rejects_non_int16_ct(self, ct):
        # a unit volume or a label grid is never cast to int16 and projected
        labels = np.ones((2, 2, 2), dtype=np.uint8)
        labels[..., 1] = 2
        with pytest.raises(InvalidArgumentError):
            project_case(ct, LungPair(Volume(labels)), canvas=(2, 2))


class TestPlaneProjections:
    def test_mip_max_of_column(self):
        v = unit_volume(np.array([0.1, 0.9]).reshape(2, 1, 1))
        out = mip_project(v, ProjectionType.RIGHT_AXIAL)
        assert out[0, 0] == np.float32(0.9)

    def test_aip_mean_of_column(self):
        v = unit_volume(np.array([0.1, 0.9]).reshape(2, 1, 1))
        out = aip_project(v, ProjectionType.RIGHT_AXIAL)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("ptype", [ProjectionType.RIGHT_SAGITTAL, ProjectionType.RIGHT_CORONAL, ProjectionType.RIGHT_AXIAL])
    def test_constant_volume_projects_to_constant(self, ptype):
        v = unit_volume(np.full((3, 4, 5), 0.25))
        np.testing.assert_array_equal(mip_project(v, ptype), np.full(plane_shape((3, 4, 5), ptype), np.float32(0.25)))
        np.testing.assert_allclose(aip_project(v, ptype), 0.25, atol=1e-7)

    def test_mip_matches_naive_loop_oracle_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = unit_volume(rng.random((4, 4, 4), dtype=np.float32))
            for ptype in (ProjectionType.RIGHT_SAGITTAL, ProjectionType.RIGHT_CORONAL, ProjectionType.RIGHT_AXIAL):
                got = mip_project(v, ptype)
                oh, ow = plane_shape(v.dims, ptype)
                for a in range(oh):
                    for b in range(ow):
                        best = -1.0
                        for k in range(v.dims[ptype.axis]):
                            idx = [a, b]
                            idx.insert(ptype.axis, k)
                            best = max(best, float(v.voxels[tuple(idx)]))
                        assert float(got[a, b]) == best

    def test_aip_matches_naive_loop_oracle_within_1e6(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            v = unit_volume(rng.random((4, 4, 4), dtype=np.float32))
            for ptype in (ProjectionType.RIGHT_SAGITTAL, ProjectionType.RIGHT_CORONAL, ProjectionType.RIGHT_AXIAL):
                got = aip_project(v, ptype)
                oh, ow = plane_shape(v.dims, ptype)
                for a in range(oh):
                    for b in range(ow):
                        total = 0.0
                        n = v.dims[ptype.axis]
                        for k in range(n):
                            idx = [a, b]
                            idx.insert(ptype.axis, k)
                            total += float(v.voxels[tuple(idx)])
                        assert abs(float(got[a, b]) - total / n) < 1e-6

    def test_mip_pointwise_at_least_aip(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            v = unit_volume(rng.random((5, 6, 7), dtype=np.float32))
            for ptype in ALL_PROJECTIONS:
                assert np.all(mip_project(v, ptype) >= aip_project(v, ptype) - 1e-7)

    def test_brightening_a_voxel_never_darkens_its_mip_pixel(self):
        rng = np.random.default_rng(34)
        vox = rng.random((4, 5, 6), dtype=np.float32) * 0.5
        before = mip_project(unit_volume(vox), ProjectionType.RIGHT_AXIAL)
        vox2 = vox.copy()
        vox2[2, 3, 4] = 0.99
        after = mip_project(unit_volume(vox2), ProjectionType.RIGHT_AXIAL)
        assert after[3, 4] >= before[3, 4]
        mask = np.ones_like(before, dtype=bool)
        mask[3, 4] = False
        np.testing.assert_array_equal(after[mask], before[mask])

    def test_mip_rejects_hu_volume(self):
        with pytest.raises(InvalidArgumentError):
            mip_project(Volume(np.zeros((2, 2, 2), dtype=np.int16)), ProjectionType.RIGHT_AXIAL)


class TestProjectMask:
    """project_case's mask plane is the lung OR-ed along the collapse axis."""

    def test_single_voxel_projects_to_single_pixel(self):
        ct = Volume(np.full((3, 4, 5), -400, dtype=np.int16))
        labels = np.zeros((3, 4, 5), dtype=np.uint8)
        labels[1, 2, 3] = 1
        labels[0, 0, 0] = 2
        [(img, m)] = project_case(
            ct, LungPair(Volume(labels)), canvas=(3, 4), ptypes=(ProjectionType.RIGHT_CORONAL,)
        )  # collapse y: pixel (1, 3) of the 3x5 plane, in the crop of rows 0:3, cols 1:5
        assert m.geometry.plane_shape == (3, 5) and m.geometry.bbox == (0, 1, 3, 5)
        assert m.geometry.scale == 1.0
        expected = np.zeros((3, 4), dtype=np.uint8)
        expected[1, 2] = 1
        np.testing.assert_array_equal(m.pixels, expected)
        np.testing.assert_array_equal(img.pixels, expected * np.float32(0.5))

    def test_full_mask_projects_full(self):
        ct = Volume(np.full((3, 3, 3), -400, dtype=np.int16))
        pair = LungPair(Volume(np.ones((3, 3, 3), dtype=np.uint8)))
        right = [p for p in ALL_PROJECTIONS if p.side == "right"]
        for _, m in project_case(ct, pair, canvas=(3, 3), ptypes=right):
            assert m.pixels.all()


class TestCropResize:
    def test_canvas_sized_full_mask_is_identity(self):
        rng = np.random.default_rng(41)
        img = rng.random((64, 64))
        mask = np.ones((64, 64), dtype=np.uint8)
        pi, pm = crop_resize_to_canvas(img, mask, ProjectionType.RIGHT_AXIAL, canvas=(64, 64))
        np.testing.assert_array_equal(pi.pixels, img.astype(np.float32))
        np.testing.assert_array_equal(pm.pixels, mask)
        assert pi.geometry.scale == 1.0

    def test_scale_uses_larger_cropped_extent(self):
        # 10-row x 20-col mask away from edges: crop is 14x24, scale 256/24
        img = np.zeros((128, 128))
        mask = np.zeros((128, 128), dtype=np.uint8)
        mask[50:60, 40:60] = 1
        pi, _ = crop_resize_to_canvas(img, mask, ProjectionType.RIGHT_AXIAL, canvas=(256, 256))
        assert pi.geometry.bbox == (48, 38, 62, 62)
        assert pi.geometry.scale == 256.0 / 24.0

    def test_mask_superset_of_image_support(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            img = rng.random((40, 50))
            mask = np.zeros((40, 50), dtype=np.uint8)
            r, c = rng.integers(5, 20), rng.integers(5, 25)
            mask[r : r + rng.integers(4, 15), c : c + rng.integers(4, 15)] = 1
            pi, pm = crop_resize_to_canvas(img, mask, ProjectionType.RIGHT_AXIAL, canvas=(96, 96))
            assert not np.any((pi.pixels > 0) & (pm.pixels == 0))

    @pytest.mark.parametrize("sampler", [bilinear_sample, nearest_sample])
    def test_broadcast_coordinates_equal_flat_coordinate_arrays(self, sampler):
        # crop_resize_to_canvas samples with a column of rows and a row of
        # columns; that equals the flat repeat/tile arrays byte for byte,
        # clamped coordinates and round-half-even ties included
        rng = np.random.default_rng(43)
        src = rng.random((11, 17))
        rows = np.linspace(-1.5, 12.5, 23)
        cols = np.linspace(-2.0, 18.0, 41)
        flat = sampler(src, np.repeat(rows, cols.size), np.tile(cols, rows.size))
        got = sampler(src, rows[:, None], cols[None, :])
        assert got.shape == (rows.size, cols.size)
        assert got.tobytes() == flat.reshape(rows.size, cols.size).tobytes()

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            crop_resize_to_canvas(np.zeros((8, 8)), np.zeros((8, 8), dtype=np.uint8), ProjectionType.RIGHT_AXIAL)

    @staticmethod
    def small_geometry(**changes):
        kwargs = dict(
            ptype=ProjectionType.LEFT_CORONAL, plane_shape=(8, 10), bbox=(0, 0, 8, 10),
            scale=1.0, canvas=(16, 16),
        )
        return ProjectionGeometry(**{**kwargs, **changes})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_geometry_rejects_non_positive_or_non_finite_scale(self, bad):
        with pytest.raises(InvalidArgumentError):
            self.small_geometry(scale=bad)

    @pytest.mark.parametrize(
        "bbox",
        [
            (0, 0, 80, 10),  # r1 past the plane's 8 rows
            (0, 0, 8, 11),  # c1 past the plane's 10 columns
            (5, 0, 2, 10),  # r1 < r0
            (0, 6, 8, 6),  # empty column range
            (-1, 0, 8, 10),  # negative start
        ],
    )
    def test_geometry_rejects_bbox_outside_plane(self, bbox):
        with pytest.raises(InvalidArgumentError):
            self.small_geometry(bbox=bbox)

    def test_geometry_bbox_may_span_the_whole_plane(self):
        assert self.small_geometry(bbox=(0, 0, 8, 10)).crop_shape == (8, 10)


@pytest.fixture(scope="module")
def phantom():
    ct, mask, _ = generate_case(PhantomConfig(dims=(32, 48, 48), seed=9, vessel_count=6))
    return ct, split_left_right(mask)


class TestProjectCase:

    def test_six_outputs_in_canonical_order(self, phantom):
        ct, pair = phantom
        pairs = project_case(ct, pair, canvas=(64, 64))
        assert [img.ptype for img, _ in pairs] == list(ALL_PROJECTIONS)
        assert [m.ptype for _, m in pairs] == list(ALL_PROJECTIONS)

    def test_images_nonzero_only_inside_their_masks(self, phantom):
        ct, pair = phantom
        for img, m in project_case(ct, pair, canvas=(64, 64)):
            assert not np.any((img.pixels > 0) & (m.pixels == 0))
            assert 0.0 <= float(img.pixels.min()) and float(img.pixels.max()) <= 1.0

    def test_mirrored_case_swaps_sides(self, phantom):
        """x-flipping a case (and swapping lung labels) swaps right/left outputs."""
        ct, pair = phantom
        flipped_ct = Volume(ct.voxels[:, :, ::-1], ct.spacing_mm)
        relabeled = np.zeros_like(pair.labels.voxels)
        relabeled[pair.labels.voxels[:, :, ::-1] == 1] = 2
        relabeled[pair.labels.voxels[:, :, ::-1] == 2] = 1
        flipped_pair = split_left_right(Volume(relabeled, ct.spacing_mm))

        orig = {img.ptype: img for img, _ in project_case(ct, pair, canvas=(64, 64))}
        flip = {img.ptype: img for img, _ in project_case(flipped_ct, flipped_pair, canvas=(64, 64))}
        # sagittal planes (z, y) are untouched by an x flip: exact equality
        np.testing.assert_array_equal(
            flip[ProjectionType.RIGHT_SAGITTAL].pixels, orig[ProjectionType.LEFT_SAGITTAL].pixels
        )
        np.testing.assert_array_equal(
            flip[ProjectionType.LEFT_SAGITTAL].pixels, orig[ProjectionType.RIGHT_SAGITTAL].pixels
        )
        # coronal/axial planes mirror their column axis; resampling positions
        # shift by a sub-pixel amount, so compare the raw projected planes
        prep_orig_left = reference_unit(ct, pair.mask("left").voxels, -800, 0)
        prep_flip_right = reference_unit(flipped_ct, flipped_pair.mask("right").voxels, -800, 0)
        for ptype in (ProjectionType.RIGHT_CORONAL, ProjectionType.RIGHT_AXIAL):
            got = mip_project(prep_flip_right, ptype)
            want = mip_project(prep_orig_left, ptype)[:, ::-1]
            np.testing.assert_array_equal(got, want)

    def test_empty_left_lung_raises(self, phantom):
        ct, pair = phantom
        right_only = np.where(pair.labels.voxels == 1, np.uint8(1), np.uint8(0))
        broken = LungPair(Volume(right_only, ct.spacing_mm))
        with pytest.raises(EmptyMaskError):
            project_case(ct, broken, canvas=(64, 64))

    def test_unsegmented_ignores_masks(self, phantom):
        ct, pair = phantom
        pairs = project_case(ct, pair, canvas=(64, 64), unsegmented=True)
        by_ptype = {img.ptype: img for img, _ in pairs}
        np.testing.assert_array_equal(
            by_ptype[ProjectionType.RIGHT_AXIAL].pixels, by_ptype[ProjectionType.LEFT_AXIAL].pixels
        )

    def test_unknown_method_rejected(self, phantom):
        ct, pair = phantom
        with pytest.raises(InvalidArgumentError):
            project_case(ct, pair, method="median")

    def test_default_window_matches_fixed_window_formula(self, phantom):
        """The default window reproduces the fixed -1000 fill and [-800, 0]
        window bit for bit, through to the canvas images."""
        ct, pair = phantom
        for side in ("right", "left"):
            lung = pair.mask(side).voxels
            fixed = np.clip(np.where(lung > 0, ct.voxels, np.int16(-1000)), -800, 0)
            got = reference_unit(ct, lung, DEFAULT_HU_LO, DEFAULT_HU_HI)
            assert got.voxels.tobytes() == window_unit(fixed, -800, 0).tobytes()
        default = project_case(ct, pair, canvas=(64, 64))
        explicit = project_case(ct, pair, canvas=(64, 64), hu_lo=DEFAULT_HU_LO, hu_hi=DEFAULT_HU_HI)
        for (a, _), (b, _) in zip(default, explicit):
            assert a.pixels.tobytes() == b.pixels.tobytes()

    @pytest.mark.parametrize("unsegmented", [False, True])
    def test_window_changes_images(self, phantom, unsegmented):
        ct, pair = phantom
        default = project_case(ct, pair, canvas=(64, 64), unsegmented=unsegmented)
        wide = project_case(ct, pair, canvas=(64, 64), unsegmented=unsegmented, hu_lo=-1000, hu_hi=200)
        assert any(not np.array_equal(a.pixels, b.pixels) for (a, _), (b, _) in zip(default, wide))

    @pytest.mark.parametrize("unsegmented", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_rejects_non_int16_ct(self, phantom, dtype, unsegmented):
        ct, pair = phantom
        bad = Volume(np.full(ct.dims, 0.5, dtype) if dtype == np.float32 else pair.labels.voxels, ct.spacing_mm)
        assert bad.voxels.dtype == dtype
        with pytest.raises(InvalidArgumentError):
            project_case(bad, pair, canvas=(64, 64), unsegmented=unsegmented)

    def test_dims_mismatch_raises(self, phantom):
        ct, pair = phantom
        small = Volume(ct.voxels[:-1], ct.spacing_mm)
        with pytest.raises(DimensionMismatchError):
            project_case(small, pair, canvas=(64, 64))

    @pytest.mark.parametrize("hu_lo, hu_hi", [(0, 0), (100, -100)])
    def test_empty_window_raises(self, phantom, hu_lo, hu_hi):
        ct, pair = phantom
        with pytest.raises(InvalidArgumentError):
            project_case(ct, pair, canvas=(64, 64), hu_lo=hu_lo, hu_hi=hu_hi)


# ---------------------------------------------------------------------------
# project_case against the whole-grid definition, which reads no lung box


def reference_unit(ct, lung, hu_lo, hu_hi):
    """The whole grid windowed to unit intensities, with every voxel outside
    ``lung`` set to ``hu_lo`` first, so it lands at exactly 0.0."""
    return Volume(window_unit(np.where(lung, ct.voxels, np.int16(hu_lo)), hu_lo, hu_hi), ct.spacing_mm)


def reference_project_case(ct, pair, method, canvas, unsegmented, hu_lo, hu_hi):
    """The definition of project_case: window each side's masked whole grid,
    collapse it with mip_project/aip_project, OR the lung along the same axis
    for the mask, then crop and resize. Unsegmented, the lung is the whole grid."""
    project = mip_project if method == "mip" else aip_project
    out = []
    for ptype in ALL_PROJECTIONS:
        lung = np.ones(ct.dims, dtype=bool) if unsegmented else pair.mask(ptype.side).voxels > 0
        img2d = project(reference_unit(ct, lung, hu_lo, hu_hi), ptype)
        out.append(crop_resize_to_canvas(img2d, lung.any(axis=ptype.axis), ptype, canvas))
    return out


def assert_same_bytes(got, want):
    assert len(got) == len(want) == len(ALL_PROJECTIONS)
    for (gi, gm), (wi, wm) in zip(got, want):
        assert gi.geometry == wi.geometry and gm.geometry == wm.geometry
        assert gi.pixels.dtype == wi.pixels.dtype and gi.pixels.tobytes() == wi.pixels.tobytes()
        assert gm.pixels.dtype == wm.pixels.dtype and gm.pixels.tobytes() == wm.pixels.tobytes()


@pytest.fixture(scope="module", params=[((32, 48, 48), 9), ((64, 96, 96), 3)], ids=["32x48x48", "64x96x96"])
def sized_phantom(request):
    dims, seed = request.param
    ct, mask, _ = generate_case(PhantomConfig(dims=dims, seed=seed))
    return ct, split_left_right(mask)


class TestProjectCaseMatchesReference:
    @pytest.mark.parametrize("unsegmented", [False, True], ids=["segmented", "unsegmented"])
    @pytest.mark.parametrize("hu_lo, hu_hi", [(-800, 0), (-1000, 200)])
    @pytest.mark.parametrize("method", ["mip", "aip"])
    def test_phantom_bytes_equal_reference(self, sized_phantom, method, hu_lo, hu_hi, unsegmented):
        ct, pair = sized_phantom
        args = (ct, pair, method, (64, 64), unsegmented, hu_lo, hu_hi)
        got = project_case(*args[:5], hu_lo=hu_lo, hu_hi=hu_hi)
        assert_same_bytes(got, reference_project_case(*args))

    @pytest.mark.parametrize("unsegmented", [False, True], ids=["segmented", "unsegmented"])
    @pytest.mark.parametrize("method", ["mip", "aip"])
    @pytest.mark.parametrize(
        "names",
        [
            *PROJECTION_SETS.values(),
            ("left_axial",),
            ("right_sagittal", "right_axial"),
            ("left_coronal", "right_sagittal"),
        ],
        ids=[*PROJECTION_SETS, "left-axial", "right-only", "reordered"],
    )
    def test_subset_equals_entries_of_full_call(self, sized_phantom, names, method, unsegmented):
        ct, pair = sized_phantom
        ptypes = tuple(ProjectionType.from_string(name) for name in names)
        kwargs = dict(method=method, canvas=(64, 64), unsegmented=unsegmented)
        full = {img.ptype: (img, mask) for img, mask in project_case(ct, pair, **kwargs)}
        got = project_case(ct, pair, **kwargs, ptypes=ptypes)
        assert [img.ptype for img, _ in got] == list(ptypes)
        for (gi, gm), ptype in zip(got, ptypes):
            wi, wm = full[ptype]
            assert gi.geometry == wi.geometry and gm.geometry == wm.geometry
            assert gi.pixels.tobytes() == wi.pixels.tobytes()
            assert gm.pixels.tobytes() == wm.pixels.tobytes()

    @pytest.mark.parametrize("method", ["mip", "aip"])
    def test_one_voxel_lungs_in_opposite_corners(self, method):
        # each lung's box is one voxel on the grid border; every other ray misses it
        ct = Volume(np.random.default_rng(5).integers(-1500, 600, (5, 6, 7)).astype(np.int16))
        labels = np.zeros(ct.dims, dtype=np.uint8)
        labels[0, 0, 0] = 1
        labels[-1, -1, -1] = 2
        pair = split_left_right(Volume(labels))
        got = project_case(ct, pair, method=method, canvas=(16, 16))
        assert_same_bytes(got, reference_project_case(ct, pair, method, (16, 16), False, -800, 0))

    @pytest.mark.parametrize("method", ["mip", "aip"])
    def test_lung_box_spanning_the_whole_grid(self, method):
        ct = Volume(np.random.default_rng(6).integers(-1500, 600, (4, 5, 6)).astype(np.int16))
        labels = np.zeros(ct.dims, dtype=np.uint8)
        labels[0, 0, 0] = labels[-1, -1, 0] = 1
        labels[0, -1, -1] = labels[-1, 0, -1] = 2
        pair = split_left_right(Volume(labels))
        got = project_case(ct, pair, method=method, canvas=(16, 16))
        assert_same_bytes(got, reference_project_case(ct, pair, method, (16, 16), False, -800, 0))


@pytest.mark.parametrize("slab_voxels", [1, 5 * 48 * 48, 1 << 30], ids=["one-plane", "uneven", "one-slab"])
@pytest.mark.parametrize("unsegmented", [False, True], ids=["segmented", "unsegmented"])
def test_aip_bytes_do_not_depend_on_slab_size(phantom, monkeypatch, slab_voxels, unsegmented):
    ct, pair = phantom  # 32 planes of 48x48: five-plane slabs leave a two-plane remainder
    monkeypatch.setattr(projection, "_SLAB_VOXELS", slab_voxels)
    got = project_case(ct, pair, method="aip", canvas=(64, 64), unsegmented=unsegmented)
    assert_same_bytes(got, reference_project_case(ct, pair, "aip", (64, 64), unsegmented, -800, 0))


# The two claims project_case's box path rests on, over int16 HU windows
# lo < hi up to the widest one (hi - lo = 2**16 - 1)
INT16_WINDOWS = st.lists(st.integers(-(2**15), 2**15 - 1), min_size=2, max_size=2, unique=True).map(sorted)
SMALL_GRIDS = arrays(np.int16, array_shapes(min_dims=3, max_dims=3, max_side=7))


@settings(max_examples=200, deadline=None)
@given(hu=arrays(np.int16, st.integers(1, 64)), window=INT16_WINDOWS)
def test_window_unit_is_monotone(hu, window):
    unit = window_unit(np.sort(hu), *window)
    assert np.all(np.diff(unit) >= 0)
    assert unit.min() >= 0.0 and unit.max() <= 1.0


@settings(max_examples=200, deadline=None)
@given(hu=SMALL_GRIDS, window=INT16_WINDOWS)
def test_window_unit_commutes_with_max_bit_for_bit(hu, window):
    # the MIP half: the max runs on int16, then only the plane is windowed
    for axis in range(3):
        got = window_unit(hu.max(axis=axis), *window)
        assert got.tobytes() == window_unit(hu, *window).max(axis=axis).tobytes()


@settings(max_examples=200, deadline=None)
@given(hu=SMALL_GRIDS, window=INT16_WINDOWS, slab_voxels=st.integers(1, 40))
def test_windowed_sums_over_full_length_equal_float64_mean(hu, window, slab_voxels):
    # the AIP half: slab sums are exact, so dividing by the axis length is
    # np.mean over the windowed grid, in float64 bytes
    lo, hi = window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_SLAB_VOXELS", slab_voxels)
        sums = projection._windowed_sums(hu, (0, 1, 2), lo, hi)
    unit = window_unit(hu, lo, hi)
    for axis in (0, 1, 2):
        want = np.mean(unit, axis=axis, dtype=np.float64)
        assert (sums[axis] / hu.shape[axis]).tobytes() == want.tobytes()


@st.composite
def small_cases(draw):
    """A random int16 grid with HU on both sides of the window and two disjoint,
    non-empty lungs; the left lung is a single voxel in about half the cases."""
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    n = math.prod(dims)
    hu = draw(arrays(np.int16, dims, elements=st.integers(-1500, 600)))
    labels = draw(arrays(np.uint8, n, elements=st.sampled_from([0, 0, 0, 1, 2])))
    if draw(st.booleans()):
        labels[labels == 2] = 0
    right_at = draw(st.integers(0, n - 1))
    left_at = draw(st.integers(0, n - 2))
    left_at += left_at >= right_at
    labels[right_at], labels[left_at] = 1, 2
    lo = draw(st.integers(-1200, 100))
    hi = lo + draw(st.integers(1, 1500))
    return Volume(hu), split_left_right(Volume(labels.reshape(dims))), lo, hi


@settings(max_examples=150, deadline=None)
@given(case=small_cases(), method=st.sampled_from(["mip", "aip"]), unsegmented=st.booleans())
def test_project_case_equals_reference_on_random_grids(case, method, unsegmented):
    ct, pair, lo, hi = case
    got = project_case(ct, pair, method=method, canvas=(12, 12), unsegmented=unsegmented, hu_lo=lo, hu_hi=hi)
    assert_same_bytes(got, reference_project_case(ct, pair, method, (12, 12), unsegmented, lo, hi))


def ellipsoid_lungs(dims):
    """CT of -850 HU lungs in 40 HU tissue, and the labeled pair of two ellipsoids."""
    z, y, x = np.ogrid[: dims[0], : dims[1], : dims[2]]
    ez = ((z - dims[0] / 2) / (0.4 * dims[0])) ** 2
    ey = ((y - dims[1] / 2) / (0.3 * dims[1])) ** 2
    right = ez + ey + ((x - 0.3 * dims[2]) / (0.15 * dims[2])) ** 2 <= 1.0
    left = ez + ey + ((x - 0.7 * dims[2]) / (0.15 * dims[2])) ** 2 <= 1.0
    ct = np.where(right | left, np.int16(-850), np.int16(40))
    labels = right.astype(np.uint8) + 2 * left.astype(np.uint8)
    return Volume(ct), split_left_right(Volume(labels))


@pytest.mark.parametrize("unsegmented", [False, True])
@pytest.mark.parametrize("method", ["mip", "aip"])
def test_project_case_peak_memory_per_voxel(method, unsegmented):
    # windowing whole-grid float64 and float32 copies per side peaked at 26 B/voxel;
    # unsegmented AIP windowed the whole grid at once and peaked at 12 B/voxel
    ct, pair = ellipsoid_lungs((96, 160, 160))
    tracemalloc.start()
    try:
        project_case(ct, pair, method=method, canvas=(64, 64), unsegmented=unsegmented)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / math.prod(ct.dims) <= 5.0
