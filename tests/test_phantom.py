"""Synthetic phantom generator: determinism, anatomy invariants, anomaly placement."""

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from mvpad import PhantomConfig, generate_case, generate_dataset, phantom
from mvpad.errors import AnomalyFitError, InvalidArgumentError
from mvpad.phantom import AnomalySpec
from mvpad.volume import read_manifest, volumes_equal

SMALL = (32, 48, 48)


def small_cfg(seed=0, anomaly=None):
    return PhantomConfig(dims=SMALL, seed=seed, vessel_count=6, anomaly=anomaly)


class TestDeterminism:
    def test_same_config_is_byte_identical(self):
        cfg = small_cfg(seed=3, anomaly=AnomalySpec())
        a_ct, a_mask, a_gt = generate_case(cfg)
        b_ct, b_mask, b_gt = generate_case(cfg)
        assert volumes_equal(a_ct, b_ct)
        assert volumes_equal(a_mask, b_mask)
        assert volumes_equal(a_gt, b_gt)

    def test_different_seeds_differ(self):
        a_ct, _, _ = generate_case(small_cfg(seed=0))
        b_ct, _, _ = generate_case(small_cfg(seed=1))
        assert not np.array_equal(a_ct.voxels, b_ct.voxels)

    def test_dataset_regeneration_is_byte_identical(self, tmp_path):
        m1 = generate_dataset(1, 1, seed=5, out_dir=tmp_path / "a", dims=SMALL, vessel_count=6)
        m2 = generate_dataset(1, 1, seed=5, out_dir=tmp_path / "b", dims=SMALL, vessel_count=6)
        for f1, f2 in zip(sorted(m1.parent.iterdir()), sorted(m2.parent.iterdir())):
            assert f1.name == f2.name
            assert f1.read_bytes() == f2.read_bytes()


class TestAnatomy:
    def test_normal_case_has_no_gt(self):
        ct, mask, gt = generate_case(small_cfg())
        assert gt is None
        assert ct.voxels.dtype == np.int16
        assert mask.voxels.dtype == np.uint8

    def test_labels_one_and_two_nonempty(self):
        _, mask, _ = generate_case(small_cfg())
        assert np.any(mask.voxels == 1)
        assert np.any(mask.voxels == 2)
        assert set(np.unique(mask.voxels)) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(5))
    def test_lungs_never_touch_volume_boundary(self, seed):
        _, mask, _ = generate_case(small_cfg(seed=seed))
        vox = mask.voxels
        for face in (vox[0], vox[-1], vox[:, 0], vox[:, -1], vox[:, :, 0], vox[:, :, -1]):
            assert not np.any(face)

    @pytest.mark.parametrize("seed", range(5))
    def test_lung_centroids_separated_in_x(self, seed):
        _, mask, _ = generate_case(small_cfg(seed=seed))
        xs = np.nonzero(mask.voxels == 1)[2].mean()
        xl = np.nonzero(mask.voxels == 2)[2].mean()
        assert abs(xl - xs) >= SMALL[2] / 4

    def test_right_lung_is_label_one_at_lower_x(self):
        _, mask, _ = generate_case(small_cfg())
        xs = np.nonzero(mask.voxels == 1)[2].mean()
        xl = np.nonzero(mask.voxels == 2)[2].mean()
        assert xs < xl

    def test_body_is_positive_air_is_negative_1000(self):
        ct, mask, _ = generate_case(small_cfg())
        assert ct.voxels[0, 0, 0] == -1000
        outside_lung_body = (mask.voxels == 0) & (ct.voxels > -500)
        assert np.any(outside_lung_body), "body shell should exist around the lungs"


class TestAnomaly:
    def test_blob_peak_hu_inside_salient_window(self):
        ct, _, gt = generate_case(small_cfg(seed=2, anomaly=AnomalySpec()))
        inside = ct.voxels[gt.voxels > 0]
        assert inside.size > 0
        assert -800 < int(inside.max()) < 0

    def test_gt_lies_inside_a_lung(self):
        _, mask, gt = generate_case(small_cfg(seed=2, anomaly=AnomalySpec()))
        assert np.all(mask.voxels[gt.voxels > 0] > 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_abnormal_differs_from_normal_only_inside_dilated_gt(self, seed):
        normal_ct, _, _ = generate_case(small_cfg(seed=seed))
        abn_ct, _, gt = generate_case(small_cfg(seed=seed, anomaly=AnomalySpec()))
        diff = normal_ct.voxels != abn_ct.voxels
        allowed = binary_dilation(gt.voxels > 0, structure=np.ones((3, 3, 3), dtype=bool))
        assert np.any(diff), "anomaly must change at least one voxel"
        assert not np.any(diff & ~allowed)

    def test_oversized_anomaly_raises_fit_error(self):
        with pytest.raises(AnomalyFitError):
            generate_case(small_cfg(anomaly=AnomalySpec(radius_vox=6.0)))

    def test_anomaly_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            AnomalySpec(radius_vox=1.0)
        with pytest.raises(InvalidArgumentError):
            AnomalySpec(intensity_hu=-50.0)
        with pytest.raises(InvalidArgumentError):
            AnomalySpec(count=0)

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            PhantomConfig(dims=(8, 8, 8))
        with pytest.raises(InvalidArgumentError):
            PhantomConfig(vessel_count=-1)


class TestDataset:
    def test_empty_dataset_writes_header_only_manifest(self, tmp_path):
        manifest = generate_dataset(0, 0, seed=0, out_dir=tmp_path)
        assert read_manifest(manifest) == []
        assert manifest.read_text().strip() == "case_id,volume_path,mask_path,label,anomaly_gt_path"

    def test_two_normal_one_abnormal_label_order(self, tmp_path):
        manifest = generate_dataset(
            2, 1, seed=0, out_dir=tmp_path, dims=SMALL, vessel_count=4, radius_range=(2.0, 3.0)
        )
        records = read_manifest(manifest)
        assert [r.label for r in records] == ["normal", "normal", "abnormal"]
        assert records[0].anomaly_gt_path is None
        assert records[2].anomaly_gt_path is not None
        for rec in records:
            assert (tmp_path / rec.volume_path).exists()
            assert (tmp_path / rec.mask_path).exists()

    def test_negative_counts_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            generate_dataset(-1, 0, seed=0, out_dir=tmp_path)


def reference_stamp_ball(values, inside_field, point, radius, hu, dims):
    """One ball at a time over its clipped local box: the straight-line
    definition that `phantom._stamp_balls` vectorizes."""
    lo = np.maximum(np.floor(point - radius - 1).astype(int), 0)
    hi = np.minimum(np.ceil(point + radius + 1).astype(int) + 1, dims)
    if np.any(lo >= hi):
        return
    sl = tuple(slice(l, h) for l, h in zip(lo, hi))
    zz, yy, xx = np.ogrid[sl[0], sl[1], sl[2]]
    dist2 = (zz - point[0]) ** 2 + (yy - point[1]) ** 2 + (xx - point[2]) ** 2
    hit = (dist2 <= radius * radius) & (inside_field[sl] <= 0.95)
    region = values[sl]
    region[hit] = np.maximum(region[hit], hu)


def reference_stamp_balls(values, inside_field, points, radius, hu, dims):
    for point in points:
        reference_stamp_ball(values, inside_field, point, radius, hu, dims)


class TestVesselRaster:
    @pytest.mark.parametrize("seed", range(6))
    def test_balls_match_per_ball_reference_with_edge_clipping(self, seed):
        rng = np.random.default_rng(seed)
        dims = (9, 12, 7)
        field = rng.uniform(0.0, 1.2, size=dims)
        base = rng.uniform(-1000.0, 0.0, size=dims)
        # points inside, on and past every face, so boxes clip or miss the grid
        points = rng.uniform(-3.0, np.array(dims) + 3.0, size=(48, 3))
        radius = float(rng.uniform(0.9, 1.4))
        hu = float(rng.uniform(-200.0, -40.0))
        got, want = base.copy(), base.copy()
        phantom._stamp_balls(got, field, points, radius, hu, dims)
        reference_stamp_balls(want, field, points, radius, hu, dims)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, base)

    @pytest.mark.parametrize(
        "dims, seed", [((32, 48, 48), 0), ((32, 48, 48), 7), ((48, 64, 64), 3), ((64, 96, 96), 1)]
    )
    def test_case_bytes_match_per_ball_reference(self, monkeypatch, dims, seed):
        cfg = PhantomConfig(dims=dims, seed=seed, anomaly=AnomalySpec())
        got = generate_case(cfg)
        monkeypatch.setattr(phantom, "_stamp_balls", reference_stamp_balls)
        want = generate_case(cfg)
        for a, b in zip(got, want):
            assert a.voxels.tobytes() == b.voxels.tobytes()
