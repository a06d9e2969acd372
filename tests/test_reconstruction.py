"""Percentile normalization, 2D-to-3D reverse projection, fusion, binarization."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvpad import (
    AnomalyMap2D,
    EmptyMaskError,
    ProjectionType,
    RunConfig,
    build_banks,
    compute_case_features,
    generate_dataset,
    load_manifest_cases,
    localize_case,
    mask_normalize_2d,
    percentile_minmax,
    reverse_project,
)
from mvpad.errors import DimensionMismatchError, InvalidArgumentError, OverlapError
from mvpad.pipeline import CaseFeatures, LoadedCase, case_anomaly_maps
from mvpad.projection import ProjectedMask, ProjectionGeometry, bilinear_sample, crop_resize_to_canvas
from mvpad.reconstruction import (
    AnomalyVolume,
    STAGE_FINAL,
    STAGE_PER_LUNG,
    STAGE_PER_PROJECTION,
    _weighted_nearest_rank,
    back_project_plane,
    binarize_top,
    fuse_final,
    fuse_per_lung,
    localization_hit,
    percentile_nearest_rank,
)
from mvpad.segmentation import LungPair
from mvpad.volume import Volume

PT = ProjectionType.RIGHT_CORONAL


def make_volume(values, stage, region=None, dims=None):
    values = np.asarray(values, dtype=np.float32)
    if region is None:
        region = np.ones(values.shape, dtype=bool)
    return AnomalyVolume(values=values, stage=stage, region=np.asarray(region, dtype=bool))


class TestPercentiles:
    def test_nearest_rank_median_of_five(self):
        assert percentile_nearest_rank(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 50.0) == 2.0

    def test_nearest_rank_q_zero_is_minimum(self):
        assert percentile_nearest_rank(np.array([3.0, 1.0, 2.0]), 0.0) == 1.0

    def test_nearest_rank_single_value(self):
        assert percentile_nearest_rank(np.array([7.5]), 99.0) == 7.5

    def test_nearest_rank_is_order_statistic(self):
        rng = np.random.default_rng(81)
        vals = rng.random(137)
        for q in (10.0, 50.0, 99.0, 99.5):
            rank = min(max(int(np.ceil(q * vals.size / 100.0)), 1), vals.size)
            assert percentile_nearest_rank(vals, q) == np.sort(vals)[rank - 1]

    def test_nearest_rank_rejections(self):
        with pytest.raises(EmptyMaskError):
            percentile_nearest_rank(np.array([]), 50.0)
        with pytest.raises(InvalidArgumentError):
            percentile_nearest_rank(np.array([1.0]), 100.0)

    def test_minmax_five_value_example(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out = percentile_minmax(vals, np.ones(5, dtype=bool), 50.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.5, 1.0])

    def test_minmax_constant_region_is_all_zero(self):
        out = percentile_minmax(np.full(6, 3.3), np.ones(6, dtype=bool), 50.0)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_minmax_zero_outside_region(self):
        vals = np.array([9.0, 1.0, 2.0, 9.0])
        region = np.array([False, True, True, False])
        out = percentile_minmax(vals, region, 0.0)
        assert out[0] == 0.0 and out[3] == 0.0
        np.testing.assert_array_equal(out[1:3], [0.0, 1.0])

    def test_minmax_empty_region_raises(self):
        with pytest.raises(EmptyMaskError):
            percentile_minmax(np.zeros(4), np.zeros(4, dtype=bool), 50.0)


class TestMaskNormalize2D:
    def make_map(self, pixels, ptype=PT):
        pixels = np.asarray(pixels, dtype=np.float32)
        return AnomalyMap2D(ptype=ptype, pixels=pixels, score=float(pixels.max()))

    def make_mask(self, pixels, ptype=PT):
        pixels = np.asarray(pixels, dtype=np.uint8)
        h, w = pixels.shape
        geo = ProjectionGeometry(ptype=ptype, plane_shape=(h, w), bbox=(0, 0, h, w), scale=1.0, canvas=(h, w))
        return ProjectedMask(geo, pixels)

    def test_matches_direct_percentile_minmax(self):
        rng = np.random.default_rng(82)
        pixels = rng.random((6, 6), dtype=np.float32)
        mask = (rng.random((6, 6)) < 0.7).astype(np.uint8)
        mask[0, 0] = 1
        out = mask_normalize_2d(self.make_map(pixels), self.make_mask(mask), q=50.0)
        expected = percentile_minmax(np.where(mask > 0, pixels.astype(np.float64), 0.0), mask > 0, 50.0)
        np.testing.assert_array_equal(out, expected)

    def test_out_of_mask_pixels_ignored_and_zeroed(self):
        pixels = np.array([[5.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        mask = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        out = mask_normalize_2d(self.make_map(pixels), self.make_mask(mask), q=0.0)
        assert out[0, 0] == 0.0
        assert out[1, 1] == 1.0  # 3 is the in-mask max even though 5 sits outside

    def test_ptype_mismatch_rejected(self):
        amap = self.make_map(np.ones((2, 2)), ptype=ProjectionType.LEFT_AXIAL)
        with pytest.raises(InvalidArgumentError):
            mask_normalize_2d(amap, self.make_mask(np.ones((2, 2), dtype=np.uint8)))

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMaskError):
            mask_normalize_2d(self.make_map(np.ones((2, 2))), self.make_mask(np.zeros((2, 2), dtype=np.uint8)))


class TestBackProjection:
    def test_identity_geometry_round_trips_exactly(self):
        rng = np.random.default_rng(83)
        img = rng.random((8, 10))
        geo = ProjectionGeometry(ptype=PT, plane_shape=(8, 10), bbox=(0, 0, 8, 10), scale=1.0, canvas=(8, 10))
        np.testing.assert_array_equal(back_project_plane(img, geo), img)

    def test_crop_resize_round_trip_recovers_linear_ramp(self):
        # bilinear sampling reproduces affine images exactly, so resize then
        # back-project is the identity away from the masked/clamped border
        h, w = 20, 24
        img = (np.arange(h)[:, None] + np.arange(w)[None, :]).astype(np.float64) / (h + w)
        mask = np.zeros((h, w), dtype=np.uint8)
        mask[4:16, 3:21] = 1
        pi, _ = crop_resize_to_canvas(img, mask, PT, canvas=(64, 64))
        plane = back_project_plane(pi.pixels.astype(np.float64), pi.geometry)
        np.testing.assert_allclose(plane[7:13, 6:18], img[7:13, 6:18], atol=1e-6)

    def test_outside_bbox_stays_zero(self):
        geo = ProjectionGeometry(ptype=PT, plane_shape=(10, 10), bbox=(2, 3, 6, 7), scale=16.0, canvas=(64, 64))
        plane = back_project_plane(np.ones((64, 64)), geo)
        assert plane[:2].sum() == 0 and plane[6:].sum() == 0
        assert np.all(plane[2:6, 3:7] > 0)

    def test_canvas_shape_mismatch_rejected(self):
        geo = ProjectionGeometry(ptype=PT, plane_shape=(4, 4), bbox=(0, 0, 4, 4), scale=1.0, canvas=(8, 8))
        with pytest.raises(DimensionMismatchError):
            back_project_plane(np.zeros((4, 4)), geo)

    def test_broadcast_sampling_equals_flat_coordinate_arrays(self):
        # sampling with a column of rows and a row of columns equals
        # sampling the flat repeat/tile coordinate arrays, byte for byte
        rng = np.random.default_rng(92)
        geo = ProjectionGeometry(ptype=PT, plane_shape=(37, 53), bbox=(3, 5, 30, 41), scale=48 / 27, canvas=(48, 80))
        grid = rng.random(geo.canvas)
        r0, c0, r1, c1 = geo.bbox
        rows = (np.arange(r0, r1, dtype=np.float64) - r0 + 0.5) * geo.scale - 0.5
        cols = (np.arange(c0, c1, dtype=np.float64) - c0 + 0.5) * geo.scale - 0.5
        flat = bilinear_sample(grid, np.repeat(rows, cols.size), np.tile(cols, rows.size))
        expected = np.zeros(geo.plane_shape)
        expected[r0:r1, c0:c1] = flat.reshape(r1 - r0, c1 - c0)
        assert_same_bytes(back_project_plane(grid, geo), expected)



class TestReverseProject:
    def geometry(self, region_shape=(4, 5, 6), canvas=(16, 16)):
        plane = tuple(d for ax, d in enumerate(region_shape) if ax != PT.axis)
        scale = min(canvas[0] / plane[0], canvas[1] / plane[1])
        return ProjectionGeometry(ptype=PT, plane_shape=plane, bbox=(0, 0, plane[0], plane[1]), scale=scale, canvas=canvas)

    def test_values_constant_along_collapsed_axis_inside_region(self):
        rng = np.random.default_rng(84)
        region = np.zeros((4, 5, 6), dtype=bool)
        region[1:4, 1:4, 2:5] = True
        grid = rng.random((16, 16))
        out = reverse_project(grid, self.geometry(), region, q=50.0)
        assert out.stage == STAGE_PER_PROJECTION
        moved = np.moveaxis(out.values, PT.axis, 0)
        moved_region = np.moveaxis(region, PT.axis, 0)
        for a in range(moved.shape[1]):
            for b in range(moved.shape[2]):
                col = moved[:, a, b][moved_region[:, a, b]]
                assert np.unique(col).size <= 1

    def test_output_in_unit_range_and_zero_outside_region(self):
        rng = np.random.default_rng(85)
        region = np.zeros((4, 5, 6), dtype=bool)
        region[1:3, 1:4, 1:5] = True
        out = reverse_project(rng.random((16, 16)), self.geometry(), region)
        assert float(out.values.max()) <= 1.0
        assert float(out.values.min()) >= 0.0
        assert not out.values[~region].any()

    def test_plane_shape_mismatch_rejected(self):
        region = np.ones((4, 5, 6), dtype=bool)
        bad_geo = self.geometry(region_shape=(4, 5, 7))
        with pytest.raises(DimensionMismatchError):
            reverse_project(np.zeros((16, 16)), bad_geo, region)

    def test_empty_region_rejected(self):
        with pytest.raises(EmptyMaskError):
            reverse_project(np.zeros((16, 16)), self.geometry(), np.zeros((4, 5, 6), dtype=bool))

    def test_read_only_region_is_shared_not_copied(self):
        region = np.zeros((4, 5, 6), dtype=bool)
        region[1:3, 1:4, 1:5] = True
        region.flags.writeable = False
        out = reverse_project(np.random.default_rng(90).random((16, 16)), self.geometry(), region)
        assert out.region is region
        assert not out.values.flags.writeable


class TestFusion:
    def unit_volume(self, values, region):
        return AnomalyVolume(values=np.asarray(values, dtype=np.float32), stage=STAGE_PER_PROJECTION, region=region)

    def test_per_lung_sum_can_exceed_one(self):
        region = np.ones((2, 2, 2), dtype=bool)
        ones = self.unit_volume(np.ones((2, 2, 2)), region)
        fused = fuse_per_lung(ones, ones, ones, region)
        assert fused.stage == STAGE_PER_LUNG
        assert float(fused.values.max()) == 3.0

    def test_per_lung_zero_outside_mask(self):
        region = np.ones((2, 2, 2), dtype=bool)
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0] = True
        ones = self.unit_volume(np.ones((2, 2, 2)), region)
        fused = fuse_per_lung(ones, ones, ones, mask)
        assert not fused.values[~mask].any()
        assert np.all(fused.values[mask] == 3.0)

    def test_per_lung_rejects_wrong_stage(self):
        region = np.ones((2, 2, 2), dtype=bool)
        ones = self.unit_volume(np.ones((2, 2, 2)), region)
        lung = fuse_per_lung(ones, ones, ones, region)
        with pytest.raises(InvalidArgumentError):
            fuse_per_lung(lung, ones, ones, region)

    def lung_pair(self):
        region_r = np.zeros((1, 1, 6), dtype=bool)
        region_r[0, 0, :3] = True
        region_l = np.zeros((1, 1, 6), dtype=bool)
        region_l[0, 0, 3:] = True
        v_r = np.zeros((1, 1, 6), dtype=np.float32)
        v_r[0, 0, :3] = [0.2, 0.6, 1.0]
        right = AnomalyVolume(values=v_r, stage=STAGE_PER_LUNG, region=region_r)
        left = AnomalyVolume(values=np.zeros((1, 1, 6), dtype=np.float32), stage=STAGE_PER_LUNG, region=region_l)
        return right, left

    def test_final_with_one_silent_lung(self):
        right, left = self.lung_pair()
        out = fuse_final(right, left, q=50.0)
        # median over the union is 0 (three zeros from the left lung), so the
        # right-lung values pass through unscaled
        np.testing.assert_allclose(out.values[0, 0], [0.2, 0.6, 1.0, 0.0, 0.0, 0.0], atol=1e-7)
        assert out.stage == STAGE_FINAL
        assert float(out.values.max()) == 1.0

    def test_final_max_is_one_for_nonconstant_input(self):
        rng = np.random.default_rng(86)
        region_r = np.zeros((3, 4, 8), dtype=bool)
        region_r[:, :, :4] = True
        region_l = ~region_r
        v_r = np.where(region_r, rng.random((3, 4, 8)), 0.0).astype(np.float32)
        v_l = np.where(region_l, rng.random((3, 4, 8)), 0.0).astype(np.float32)
        right = AnomalyVolume(values=v_r, stage=STAGE_PER_LUNG, region=region_r)
        left = AnomalyVolume(values=v_l, stage=STAGE_PER_LUNG, region=region_l)
        out = fuse_final(right, left)
        assert float(out.values.max()) == 1.0
        assert not out.values[~(region_r | region_l)].any()

    def test_final_invariant_to_per_lung_scaling(self):
        rng = np.random.default_rng(87)
        right, left = self.lung_pair()
        v_l = np.where(left.region, rng.random((1, 1, 6)), 0.0).astype(np.float32)
        left = AnomalyVolume(values=v_l, stage=STAGE_PER_LUNG, region=left.region)
        base = fuse_final(right, left)
        scaled = fuse_final(
            AnomalyVolume(values=right.values * 4.0, stage=STAGE_PER_LUNG, region=right.region),
            AnomalyVolume(values=left.values * 4.0, stage=STAGE_PER_LUNG, region=left.region),
        )
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-6)

    def test_final_rejects_overlapping_lungs(self):
        region = np.ones((2, 2, 2), dtype=bool)
        vol = AnomalyVolume(values=np.zeros((2, 2, 2), dtype=np.float32), stage=STAGE_PER_LUNG, region=region)
        with pytest.raises(OverlapError):
            fuse_final(vol, vol)

    def test_final_rejects_wrong_stage(self):
        right, left = self.lung_pair()
        wrong = AnomalyVolume(values=np.zeros((1, 1, 6), dtype=np.float32), stage=STAGE_FINAL, region=left.region)
        with pytest.raises(InvalidArgumentError):
            fuse_final(right, wrong)

    def test_per_lung_rejects_mixed_spacing(self):
        region = np.ones((2, 2, 2), dtype=bool)
        ones = self.unit_volume(np.ones((2, 2, 2)), region)
        coarse = AnomalyVolume(values=ones.values, stage=STAGE_PER_PROJECTION, region=region, spacing_mm=(2.0, 1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            fuse_per_lung(ones, coarse, ones, region)

    def test_final_rejects_mixed_spacing(self):
        right, left = self.lung_pair()
        left = AnomalyVolume(values=left.values, stage=STAGE_PER_LUNG, region=left.region, spacing_mm=(1.0, 1.0, 2.5))
        with pytest.raises(DimensionMismatchError):
            fuse_final(right, left)

    def test_common_spacing_carried_through(self):
        region = np.zeros((1, 1, 6), dtype=bool)
        region[0, 0, :3] = True
        spacing = (2.5, 0.7, 0.7)
        part = AnomalyVolume(values=np.where(region, 0.5, 0.0).astype(np.float32), stage=STAGE_PER_PROJECTION, region=region, spacing_mm=spacing)
        right = fuse_per_lung(part, part, part, region)
        left = AnomalyVolume(values=np.zeros((1, 1, 6), dtype=np.float32), stage=STAGE_PER_LUNG, region=~region, spacing_mm=spacing)
        assert right.spacing_mm == spacing
        assert fuse_final(right, left).spacing_mm == spacing

    def test_read_only_mask_is_shared_not_copied(self):
        region = np.ones((2, 2, 2), dtype=bool)
        region.flags.writeable = False
        ones = self.unit_volume(np.ones((2, 2, 2)), region)
        assert ones.region is region
        assert fuse_per_lung(ones, ones, ones, region).region is region


class TestAnomalyVolumeType:
    def test_rejects_negative_values(self):
        with pytest.raises(InvalidArgumentError):
            make_volume(np.full((2, 2, 2), -0.5), STAGE_PER_LUNG)

    def test_rejects_above_one_for_normalized_stages(self):
        make_volume(np.full((2, 2, 2), 1.5), STAGE_PER_LUNG)  # sums may exceed 1
        with pytest.raises(InvalidArgumentError):
            make_volume(np.full((2, 2, 2), 1.5), STAGE_FINAL)

    def test_rejects_values_outside_region(self):
        region = np.zeros((2, 2, 2), dtype=bool)
        region[0] = True
        with pytest.raises(InvalidArgumentError):
            AnomalyVolume(values=np.ones((2, 2, 2), dtype=np.float32), stage=STAGE_FINAL, region=region)

    @pytest.mark.parametrize("stage", [STAGE_PER_PROJECTION, STAGE_PER_LUNG, STAGE_FINAL])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_at_every_stage(self, stage, bad):
        vals = np.zeros((2, 3, 4), dtype=np.float32)
        vals[1, 2, 3] = bad
        with pytest.raises(InvalidArgumentError):
            make_volume(vals, stage)

    def test_negative_zero_outside_region_counts_as_zero(self):
        region = np.zeros((2, 2, 2), dtype=bool)
        region[0] = True
        vals = np.where(region, 0.5, -0.0).astype(np.float32)
        assert AnomalyVolume(values=vals, stage=STAGE_FINAL, region=region).dims == (2, 2, 2)

    @pytest.mark.parametrize(
        "spacing",
        [(np.nan, -1.0, 0.0), (1.0,), (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, np.inf)],
    )
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(InvalidArgumentError):
            AnomalyVolume(
                values=np.zeros((2, 2, 2), dtype=np.float32),
                stage=STAGE_FINAL,
                region=np.ones((2, 2, 2), dtype=bool),
                spacing_mm=spacing,
            )

    def test_spacing_stored_as_float_tuple(self):
        vol = AnomalyVolume(
            values=np.zeros((2, 2, 2), dtype=np.float32),
            stage=STAGE_FINAL,
            region=np.ones((2, 2, 2), dtype=bool),
            spacing_mm=[2, 1, 0.5],
        )
        assert vol.spacing_mm == (2.0, 1.0, 0.5)
        assert all(type(s) is float for s in vol.spacing_mm)

    def test_argmax_voxel(self):
        vals = np.zeros((3, 4, 5), dtype=np.float32)
        vals[2, 1, 3] = 1.0
        assert make_volume(vals, STAGE_FINAL).argmax_voxel() == (2, 1, 3)


class TestBinarize:
    def test_thousand_grid_keeps_six_voxels_at_default_pct(self):
        vals = (np.arange(1000, dtype=np.float32) / 999.0).reshape(10, 10, 10)
        vol = make_volume(vals, STAGE_FINAL)
        pred = binarize_top(vol, pct=99.5)
        assert int(pred.sum()) == 6
        assert pred.ravel()[-6:].all()

    def test_higher_pct_never_keeps_more(self):
        rng = np.random.default_rng(88)
        vals = rng.random((8, 8, 8)).astype(np.float32)
        vol = make_volume(vals, STAGE_FINAL)
        kept = [int(binarize_top(vol, pct=p).sum()) for p in (90.0, 99.0, 99.5)]
        assert kept[0] >= kept[1] >= kept[2] >= 1

    def test_prediction_confined_to_region(self):
        region = np.zeros((4, 4, 4), dtype=bool)
        region[1:3] = True
        vals = np.where(region, np.random.default_rng(89).random((4, 4, 4)), 0.0).astype(np.float32)
        pred = binarize_top(AnomalyVolume(values=vals, stage=STAGE_FINAL, region=region), pct=50.0)
        assert not pred[~region].any()

    def test_localization_hit_logic(self):
        pred = np.zeros((2, 2, 2), dtype=bool)
        gt = np.zeros((2, 2, 2), dtype=np.uint8)
        assert localization_hit(pred, gt) is False
        pred[0, 0, 0] = True
        gt[0, 0, 0] = 1
        assert localization_hit(pred, gt) is True
        gt2 = np.zeros((2, 2, 2), dtype=np.uint8)
        gt2[1, 1, 1] = 1
        assert localization_hit(pred, gt2) is False
        with pytest.raises(DimensionMismatchError):
            localization_hit(pred, np.zeros((3, 3, 3)))


class TestWeightedNearestRank:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=30),
        q=st.floats(0.0, 100.0, exclude_max=True),
    )
    @example(pairs=[(2, 1), (2, 1), (-1, 1)], q=0.0)
    @example(pairs=[(1, 3), (0, 1), (1, 2), (3, 1)], q=math.nextafter(100.0, 0.0))
    @example(pairs=[(0, 1)], q=50.0)
    def test_equals_order_statistic_of_repeated_values(self, pairs, q):
        values = np.array([v for v, _ in pairs], dtype=np.float64) / 4.0
        counts = np.array([c for _, c in pairs], dtype=np.int64)
        expanded = np.sort(np.repeat(values, counts))
        rank = min(max(math.ceil(q * expanded.size / 100.0), 1), expanded.size)
        assert _weighted_nearest_rank(values, counts, q) == expanded[rank - 1]

    def test_rejections_match_unweighted(self):
        with pytest.raises(EmptyMaskError):
            _weighted_nearest_rank(np.array([]), np.array([], dtype=np.int64), 50.0)
        with pytest.raises(InvalidArgumentError):
            _weighted_nearest_rank(np.array([1.0]), np.array([2]), 100.0)


# ---------------------------------------------------------------------------
# The voxel-grid computation the plane-space code replaced, kept as an
# oracle: a float64 replica of each plane, a percentile from a full sort,
# and float64 sums over the whole grid.


def _reference_percentile(values, q):
    flat = np.asarray(values, dtype=np.float64).ravel()
    rank = min(max(math.ceil(q * flat.size / 100.0), 1), flat.size)
    return float(np.sort(flat)[rank - 1])


def _reference_minmax(values, region, q):
    vals = np.asarray(values, dtype=np.float64)
    inside = vals[region]
    p_q = _reference_percentile(inside, q)
    m = float(inside.max())
    out = np.zeros(vals.shape, dtype=np.float64)
    if m > p_q:
        out[region] = np.clip((vals[region] - p_q) / (m - p_q), 0.0, 1.0)
    return out


def _reference_reverse_project(grid, geometry, region, q):
    plane = back_project_plane(grid, geometry)
    axis = geometry.ptype.axis
    replica = np.repeat(np.expand_dims(plane, axis), region.shape[axis], axis=axis)
    return _reference_minmax(replica, region, q).astype(np.float32)


def _reference_fuse_per_lung(parts, mask):
    total = sum(part.astype(np.float64) for part in parts)
    total[~mask] = 0.0
    return total.astype(np.float32)


def _reference_fuse_final(right, left, union, q):
    summed = right.astype(np.float64) + left.astype(np.float64)
    return _reference_minmax(summed, union, q).astype(np.float32)


def _reference_binarize(values, region, pct):
    return region & (values >= _reference_percentile(values[region], pct))


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def phantom_maps(tmp_path_factory):
    """Four 64x96x96 phantom cases (two abnormal) and their anomaly maps
    against banks built from the two normals."""
    manifest = generate_dataset(2, 2, seed=515, out_dir=tmp_path_factory.mktemp("recon"))
    cases, records = load_manifest_cases(manifest)
    cfg = RunConfig(canvas=(64, 64), seed=3)
    feats = {cid: compute_case_features(case, cfg) for cid, case in cases.items()}
    banks = build_banks([feats[r.case_id] for r in records if r.label == "normal"], cfg)
    maps = {cid: case_anomaly_maps(feats[cid], banks, cfg) for cid in cases}
    return cases, feats, banks, maps, cfg


class TestPlaneSpaceEquivalence:
    @pytest.mark.parametrize("ptype", list(ProjectionType))
    @pytest.mark.parametrize("q", [0.0, 50.0, 99.5])
    def test_reverse_project_matches_reference_on_sparse_regions(self, ptype, q):
        rng = np.random.default_rng(91)
        shape = (5, 6, 7)
        region = rng.random(shape) < 0.3
        column = [0, 0]
        column.insert(ptype.axis, slice(None))
        region[tuple(column)] = False  # no region voxel behind plane pixel (0, 0) ...
        plane_shape = tuple(d for ax, d in enumerate(shape) if ax != ptype.axis)
        grid = rng.random(plane_shape)
        grid[0, 0] = 5.0  # ... so the hottest pixel must not set the max
        geo = ProjectionGeometry(ptype=ptype, plane_shape=plane_shape, bbox=(0, 0, *plane_shape), scale=1.0, canvas=plane_shape)
        got = reverse_project(grid, geo, region, q)
        assert_same_bytes(got.values, _reference_reverse_project(grid, geo, region, q))

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.5])
    def test_every_stage_matches_voxel_reference_bytes(self, phantom_maps, q):
        cases, feats, banks, maps, cfg = phantom_maps
        for cid, case in cases.items():
            lungs, ref_lungs, regions = {}, {}, {}
            for side in ("right", "left"):
                region = case.lungs.mask(side).voxels > 0
                parts, ref_parts = {}, {}
                for ptype in cfg.ptypes:
                    if ptype.side != side:
                        continue
                    mask = feats[cid].masks[ptype]
                    grid = mask_normalize_2d(maps[cid][ptype], mask, q)
                    parts[ptype.plane] = reverse_project(grid, mask.geometry, region, q)
                    ref_parts[ptype.plane] = _reference_reverse_project(grid, mask.geometry, region, q)
                    assert_same_bytes(parts[ptype.plane].values, ref_parts[ptype.plane])
                order = ("sagittal", "coronal", "axial")
                lungs[side] = fuse_per_lung(*(parts[p] for p in order), region)
                ref_lungs[side] = _reference_fuse_per_lung([ref_parts[p] for p in order], region)
                assert_same_bytes(lungs[side].values, ref_lungs[side])
                regions[side] = region
            union = regions["right"] | regions["left"]
            fused = fuse_final(lungs["right"], lungs["left"], q)
            ref_fused = _reference_fuse_final(ref_lungs["right"], ref_lungs["left"], union, q)
            assert_same_bytes(fused.values, ref_fused)
            for pct in (q, cfg.localization_pct):
                assert_same_bytes(binarize_top(fused, pct), _reference_binarize(ref_fused, union, pct))
            result = localize_case(case, feats[cid], banks, replace(cfg, q=q), maps=maps[cid])
            assert_same_bytes(result.fused.values, ref_fused)
            assert_same_bytes(result.binarized, _reference_binarize(ref_fused, union, cfg.localization_pct))
            assert_matches_reference(result, case, feats[cid], maps[cid], replace(cfg, q=q))

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.5])
    def test_localize_case_matches_reference_on_lungs_touching_grid_faces(self, phantom_maps, face_case, q):
        _, _, banks, _, cfg = phantom_maps
        case, feats, maps = face_case
        cfg = replace(cfg, q=q)
        result = localize_case(case, feats, banks, cfg, maps=maps)
        assert_matches_reference(result, case, feats, maps, cfg)
        assert result.fused.spacing_mm == FACE_SPACING
        assert result.hit is not None

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.5])
    def test_localize_case_matches_reference_on_constant_maps(self, phantom_maps, face_case, q):
        # constant 2D maps normalize to all zeros, so every scaling takes its m <= p_q branch
        _, _, banks, _, cfg = phantom_maps
        case, feats, maps = face_case
        flat = {ptype: replace(amap, pixels=np.full_like(amap.pixels, 0.25), score=0.25) for ptype, amap in maps.items()}
        cfg = replace(cfg, q=q)
        result = localize_case(case, feats, banks, cfg, maps=flat)
        assert not result.fused.values.any()
        assert_matches_reference(result, case, feats, flat, cfg)

    def test_localize_case_rejects_sidecar_plane_mismatch(self, phantom_maps):
        cases, feats, banks, maps, cfg = phantom_maps
        cid = sorted(cases)[0]
        mask = feats[cid].masks[ProjectionType.LEFT_AXIAL]
        h, w = mask.geometry.plane_shape
        bad = ProjectedMask(replace(mask.geometry, plane_shape=(h + 1, w)), mask.pixels)
        with pytest.raises(DimensionMismatchError, match="does not match volume dims"):
            localize_case(cases[cid], with_mask(feats[cid], bad), banks, cfg, maps=maps[cid])

    def test_localize_case_rejects_empty_projected_mask(self, phantom_maps):
        cases, feats, banks, maps, cfg = phantom_maps
        cid = sorted(cases)[0]
        mask = feats[cid].masks[ProjectionType.RIGHT_CORONAL]
        empty = ProjectedMask(mask.geometry, np.zeros_like(mask.pixels))
        with pytest.raises(EmptyMaskError):
            localize_case(cases[cid], with_mask(feats[cid], empty), banks, cfg, maps=maps[cid])

    def test_localize_case_peak_memory_per_voxel(self, phantom_maps):
        # one full-grid float32 volume per stage would peak near 30 traced
        # bytes per voxel; only the final volume and its masks are full-grid
        cases, feats, banks, maps, cfg = phantom_maps
        case = next(c for c in cases.values() if c.gt is not None)
        tracemalloc.start()
        try:
            localize_case(case, feats[case.case_id], banks, cfg, maps=maps[case.case_id])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / math.prod(case.ct.dims) <= 12.0


FACE_SPACING = (2.5, 0.75, 0.625)


@pytest.fixture(scope="module")
def face_case(phantom_maps):
    """A 24x40x48 case with non-unit spacing whose right lung's box spans all of
    z and starts at x = 0, and whose left lung's box ends at the last x index,
    with a ground-truth nodule in the right lung."""
    _, _, banks, _, cfg = phantom_maps
    dims = (24, 40, 48)
    z, y, x = np.ogrid[: dims[0], : dims[1], : dims[2]]
    ez = ((z - 11.5) / 14.0) ** 2
    ey = ((y - 20.0) / 12.0) ** 2
    right = ez + ey + ((x - 6.0) / 12.0) ** 2 <= 1.0
    left = ez + ey + ((x - 41.0) / 12.0) ** 2 <= 1.0
    rng = np.random.default_rng(93)
    hu = rng.integers(-950, -600, size=dims, dtype=np.int16)
    hu[8:12, 16:22, 3:7] = -100  # a dense nodule inside the right lung
    ct = np.where(right | left, hu, np.int16(40))
    gt = np.zeros(dims, dtype=np.uint8)
    gt[8:12, 16:22, 3:7] = 1
    right_z = np.flatnonzero(right.any(axis=(1, 2)))
    assert (right_z[0], right_z[-1]) == (0, dims[0] - 1)
    assert right.any(axis=(0, 1))[0] and left.any(axis=(0, 1))[-1]
    case = LoadedCase(
        case_id="faces",
        label="abnormal",
        ct=Volume(ct, FACE_SPACING),
        lungs=LungPair(Volume(right.astype(np.uint8) + 2 * left.astype(np.uint8), FACE_SPACING)),
        gt=Volume(gt, FACE_SPACING),
    )
    feats = compute_case_features(case, cfg)
    return case, feats, case_anomaly_maps(feats, banks, cfg)


def with_mask(feats, mask):
    return CaseFeatures(case_id=feats.case_id, grids=feats.grids, masks={**feats.masks, mask.ptype: mask})


def assert_matches_reference(result, case, feats, maps, cfg):
    """``result`` equals the composition of the full-grid reference stages, byte for byte."""
    per_lung = {}
    for side in ("right", "left"):
        region = case.lungs.mask(side).voxels > 0
        parts = {
            ptype.plane: reverse_project(
                mask_normalize_2d(maps[ptype], feats.masks[ptype], cfg.q),
                feats.masks[ptype].geometry,
                region,
                cfg.q,
                spacing_mm=case.ct.spacing_mm,
            )
            for ptype in cfg.ptypes
            if ptype.side == side
        }
        per_lung[side] = fuse_per_lung(parts["sagittal"], parts["coronal"], parts["axial"], region)
    fused = fuse_final(per_lung["right"], per_lung["left"], cfg.q)
    binarized = binarize_top(fused, cfg.localization_pct)
    assert_same_bytes(result.fused.values, fused.values)
    assert_same_bytes(result.fused.region, fused.region)
    assert result.fused.stage == fused.stage
    assert result.fused.spacing_mm == fused.spacing_mm
    assert_same_bytes(result.binarized, binarized)
    assert result.hit == (None if case.gt is None else localization_hit(binarized, case.gt.voxels))
