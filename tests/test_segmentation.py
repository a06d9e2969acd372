"""Left/right splitting, lung boxes, phantom threshold segmentation, Dice/IoU."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from mvpad import (
    EmptyMaskError,
    PhantomConfig,
    RunConfig,
    Volume,
    build_banks,
    compute_case_features,
    generate_case,
    generate_dataset,
    localize_case,
    project_case,
    split_left_right,
)
from mvpad.errors import ComponentSplitError, InvalidArgumentError
from mvpad.phantom import AnomalySpec
from mvpad.pipeline import LoadedCase, load_case
from mvpad.segmentation import LungPair, dice, iou, threshold_segment_phantom
from mvpad.volume import read_manifest

SMALL = (32, 48, 48)


class TestSplitLeftRight:
    def test_labeled_input_passes_through(self):
        vox = np.zeros((4, 4, 8), dtype=np.uint8)
        vox[1:3, 1:3, 1:3] = 1
        vox[1:3, 1:3, 5:7] = 2
        pair = split_left_right(Volume(vox))
        np.testing.assert_array_equal(pair.mask("right").voxels, (vox == 1).astype(np.uint8))
        np.testing.assert_array_equal(pair.mask("left").voxels, (vox == 2).astype(np.uint8))
        np.testing.assert_array_equal(pair.labels.voxels, vox)

    def test_uint8_labels_are_kept_without_a_copy(self):
        rng = np.random.default_rng(3)
        vox = rng.choice(np.array([0, 1, 2], dtype=np.uint8), size=(6, 7, 8))
        mask = Volume(vox)
        pair = split_left_right(mask)
        assert pair.labels.voxels is mask.voxels
        for k, side in ((1, "right"), (2, "left")):
            got = pair.mask(side).voxels
            assert got.dtype == np.uint8 and got.tobytes() == (vox == k).astype(np.uint8).tobytes()
            assert not got.flags.writeable
            # Volume kept the uint8 view of the bool comparison instead of copying it
            assert not got.flags.owndata and got.base.dtype == np.bool_

    def test_int16_labels_split_like_uint8(self):
        vox = np.zeros((4, 4, 8), dtype=np.uint8)
        vox[1:3, 1:3, 1:3] = 1
        vox[1:3, 1:3, 5:7] = 2
        pair = split_left_right(Volume(vox.astype(np.int16)))
        assert pair.labels.voxels.dtype == np.uint8
        np.testing.assert_array_equal(pair.labels.voxels, vox)

    @pytest.mark.parametrize("bad", [np.int16(3), np.int16(-1), np.float32(0.5)])
    def test_non_uint8_mask_with_unexpected_labels_raises(self, bad):
        vox = np.zeros((4, 4, 8), dtype=bad.dtype)
        vox[1, 1, 1] = 1
        vox[2, 2, 6] = bad
        with pytest.raises(ComponentSplitError):
            split_left_right(Volume(vox))

    def test_binary_input_right_lung_is_lower_x(self):
        vox = np.zeros((20, 20, 80), dtype=np.uint8)
        vox[5:15, 5:15, 5:16] = 1   # low-x cube -> right
        vox[5:15, 5:15, 60:71] = 1  # high-x cube -> left
        pair = split_left_right(Volume(vox))
        assert pair.mask("right").voxels[10, 10, 10] == 1
        assert pair.mask("right").voxels[10, 10, 65] == 0
        assert pair.mask("left").voxels[10, 10, 65] == 1

    def test_binary_input_keeps_two_largest_components(self):
        vox = np.zeros((10, 10, 30), dtype=np.uint8)
        vox[2:8, 2:8, 2:8] = 1    # large low-x
        vox[2:8, 2:8, 20:28] = 1  # large high-x
        vox[0, 0, 12] = 1         # speck, must be dropped
        pair = split_left_right(Volume(vox))
        assert pair.mask("right").voxels[0, 0, 12] == 0
        assert pair.mask("left").voxels[0, 0, 12] == 0
        want = np.zeros_like(vox)
        want[2:8, 2:8, 2:8] = 1
        want[2:8, 2:8, 20:28] = 2
        assert pair.labels.voxels.tobytes() == want.tobytes()
        assert not pair.labels.voxels.flags.writeable

    @pytest.mark.parametrize("seed", range(6))
    def test_binary_split_equals_full_grid_definition(self, seed):
        # many components with tied sizes and tied mean x: the kept pair and
        # its sides equal the full-grid sum_labels / nonzero definition
        rng = np.random.default_rng(seed)
        vox = (rng.random((5, 6, 9)) < 0.25).astype(np.uint8)
        vox[0, 0, [0, 8]] = 1  # two isolated voxels, tied in size and mirrored in x
        labeled, n = ndimage.label(vox, structure=ndimage.generate_binary_structure(3, 1))
        sizes = ndimage.sum_labels(np.ones_like(labeled), labeled, index=np.arange(1, n + 1))
        keep = np.argsort(sizes)[-2:] + 1
        mean_x = [float(np.mean(np.nonzero(labeled == k)[2])) for k in keep]
        want = np.zeros(n + 1, dtype=np.uint8)
        want[keep[np.argsort(mean_x, kind="stable")]] = (1, 2)
        assert split_left_right(Volume(vox)).labels.voxels.tobytes() == want[labeled].tobytes()

    def test_single_component_binary_raises(self):
        vox = np.zeros((6, 6, 6), dtype=np.uint8)
        vox[2:4, 2:4, 2:4] = 1
        with pytest.raises(ComponentSplitError):
            split_left_right(Volume(vox))

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            split_left_right(Volume(np.zeros((4, 4, 4), dtype=np.uint8)))

    def test_labeled_with_only_label_two_raises(self):
        vox = np.zeros((4, 4, 4), dtype=np.uint8)
        vox[1, 1, 1] = 2
        with pytest.raises(ComponentSplitError):
            split_left_right(Volume(vox))



def recombined(pair):
    """The {0,1,2} volume rebuilt from the two side masks."""
    out = np.zeros(pair.dims, dtype=np.uint8)
    out[pair.mask("right").voxels > 0] = 1
    out[pair.mask("left").voxels > 0] = 2
    return out


def nonzero_box(hit):
    """Tight end-exclusive 3D box of a bool volume, from np.nonzero."""
    idx = np.nonzero(hit)
    return tuple(slice(int(i.min()), int(i.max()) + 1) for i in idx)


class TestLungPair:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_int16_and_binary_masks_give_the_phantom_labels(self, seed):
        _, mask, _ = generate_case(PhantomConfig(dims=SMALL, seed=seed, vessel_count=6))
        want = mask.voxels
        for given in (want.astype(np.int16), (want > 0).astype(np.uint8)):
            pair = split_left_right(Volume(given, mask.spacing_mm))
            assert pair.labels.voxels.dtype == np.uint8
            assert pair.labels.voxels.tobytes() == want.tobytes()
            assert pair.labels.spacing_mm == mask.spacing_mm
            assert recombined(pair).tobytes() == want.tobytes()

    def test_box_is_the_tight_nonzero_box_on_random_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            dims = tuple(int(d) for d in rng.integers(1, 8, size=3))
            labels = rng.choice(np.array([0, 1, 2], dtype=np.uint8), size=dims, p=[0.9, 0.05, 0.05])
            for axis in range(3):  # some lung voxel on every grid face
                for face in (0, dims[axis] - 1):
                    at = [int(rng.integers(0, d)) for d in dims]
                    at[axis] = face
                    labels[tuple(at)] = rng.integers(1, 3)
            pair = LungPair(Volume(labels))
            for k, side in ((1, "right"), (2, "left")):
                hit = labels == k
                if not hit.any():
                    with pytest.raises(EmptyMaskError, match=f"empty {side} lung"):
                        pair.box(side)
                    continue
                box, region = pair.box(side)
                assert box == nonzero_box(hit)
                assert region.dtype == np.bool_ and not region.flags.writeable
                assert region.tobytes() == hit[box].tobytes()

    def test_box_rejects_an_unknown_side(self):
        pair = LungPair(Volume(np.ones((2, 2, 2), dtype=np.uint8)))
        with pytest.raises(ValueError):
            pair.box("middle")

    def test_non_uint8_labels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LungPair(Volume(np.ones((2, 2, 2), dtype=np.int16)))

    def test_empty_side_raises_from_project_and_localize(self):
        ct, mask, _ = generate_case(PhantomConfig(dims=SMALL, seed=5, vessel_count=6))
        cfg = RunConfig(canvas=(64, 64), coreset_frac=1.0)
        case = LoadedCase("whole", "normal", ct, split_left_right(mask), None)
        feats = compute_case_features(case, cfg)
        banks = build_banks([feats], cfg)
        no_left = np.where(mask.voxels == 2, 0, mask.voxels).astype(np.uint8)
        broken = LoadedCase("no_left", "normal", ct, LungPair(Volume(no_left, mask.spacing_mm)), None)
        with pytest.raises(EmptyMaskError, match="empty left lung"):
            project_case(broken.ct, broken.lungs, canvas=cfg.canvas)
        with pytest.raises(EmptyMaskError, match="empty left lung"):
            localize_case(broken, feats, banks, cfg)

    def test_loaded_case_retains_at_most_3_5_bytes_per_voxel(self, tmp_path):
        # the int16 CT and the uint8 label file are 3 B/voxel; the lung boxes'
        # regions add little, and no per-side full-grid mask is kept
        manifest = generate_dataset(1, 0, seed=29, out_dir=tmp_path)
        record = read_manifest(manifest)[0]
        gc.collect()
        tracemalloc.start()
        try:
            case = load_case(record, tmp_path)
            project_case(case.ct, case.lungs)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert case.gt is None
        assert kept / math.prod(case.ct.dims) <= 3.5


class TestThresholdSegmenter:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_dice_against_phantom_truth_at_least_095(self, seed):
        ct, mask, _ = generate_case(PhantomConfig(dims=SMALL, seed=seed, vessel_count=6))
        seg = threshold_segment_phantom(ct)
        assert dice(seg, mask) >= 0.95
        # per-side agreement too, so left/right are not swapped
        assert dice(seg.voxels == 1, mask.voxels == 1) >= 0.95
        assert dice(seg.voxels == 2, mask.voxels == 2) >= 0.95

    def test_all_air_volume_raises(self):
        ct = Volume(np.full(SMALL, -1000, dtype=np.int16))
        with pytest.raises(EmptyMaskError):
            threshold_segment_phantom(ct)

    def test_anomaly_blob_stays_enclosed_in_segmentation(self):
        cfg = PhantomConfig(dims=SMALL, seed=4, vessel_count=6, anomaly=AnomalySpec(radius_vox=2.5))
        ct, _, gt = generate_case(cfg)
        seg = threshold_segment_phantom(ct)
        # the blob's HU leaves the threshold band, but hole filling must keep it
        assert np.all(seg.voxels[gt.voxels > 0] > 0)

    def test_rejects_float_volume(self):
        with pytest.raises(InvalidArgumentError):
            threshold_segment_phantom(Volume(np.zeros(SMALL, dtype=np.float32)))


class TestOverlapScores:
    def cube(self, fill_slices, dims=(4, 4, 4)):
        vox = np.zeros(dims, dtype=np.uint8)
        vox[fill_slices] = 1
        return Volume(vox)

    def test_identical_masks_score_one(self):
        a = self.cube((slice(0, 2), slice(0, 2), slice(0, 1)))
        assert dice(a, a) == 1.0
        assert iou(a, a) == 1.0

    def test_disjoint_masks_score_zero(self):
        a = self.cube((slice(0, 1), slice(0, 1), slice(0, 2)))
        b = self.cube((slice(3, 4), slice(3, 4), slice(0, 2)))
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_half_overlap_example(self):
        # |a| = |b| = 4, intersection 2 -> dice 0.5, iou 1/3
        a = self.cube((slice(0, 1), slice(0, 1), slice(0, 4)))
        b = self.cube((slice(0, 1), slice(0, 1), slice(2, 4)))
        b2 = np.array(b.voxels, dtype=np.uint8)
        b2[1, 0, 0:2] = 1
        b = Volume(b2)
        assert dice(a, b) == 0.5
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_both_empty_score_one(self):
        a = self.cube((slice(0, 0), slice(0, 0), slice(0, 0)))
        assert dice(a, a) == 1.0
        assert iou(a, a) == 1.0

    def test_dice_iou_identity_on_random_masks(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.random((5, 5, 5)) < 0.4
            b = rng.random((5, 5, 5)) < 0.4
            d, j = dice(a, b), iou(a, b)
            assert d == pytest.approx(2.0 * j / (1.0 + j))
            assert 0.0 <= j <= d <= 1.0

    def test_dim_mismatch_raises(self):
        from mvpad.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            dice(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)))
