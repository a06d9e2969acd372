"""Patch descriptor extraction: grid geometry, filter stats, shift behavior."""

import math

import numpy as np
import pytest

from mvpad import ExtractorConfig, ProjectionType
from mvpad.errors import InvalidArgumentError
from mvpad.features import _window_stats, extract_features, grid_dims
from mvpad.projection import ProjectedImage, ProjectionGeometry

DEFAULT_HASH = "318941e69a7e88e7"


def make_image(pixels, ptype=ProjectionType.RIGHT_AXIAL):
    pixels = np.asarray(pixels, dtype=np.float32)
    h, w = pixels.shape
    geo = ProjectionGeometry(ptype=ptype, plane_shape=(h, w), bbox=(0, 0, h, w), scale=1.0, canvas=(h, w))
    return ProjectedImage(geo, pixels)


class TestConfig:
    def test_default_dim_is_20(self):
        assert ExtractorConfig().feature_dim == 20

    def test_hash_is_stable_and_config_sensitive(self):
        assert ExtractorConfig().extractor_hash == DEFAULT_HASH
        assert ExtractorConfig(stride=2).extractor_hash != DEFAULT_HASH
        assert ExtractorConfig(scales=(1,)).extractor_hash != DEFAULT_HASH

    def test_round_trip_dict(self):
        cfg = ExtractorConfig(patch_size=7, stride=3, scales=(1, 2, 4))
        assert ExtractorConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ExtractorConfig(patch_size=8)
        with pytest.raises(InvalidArgumentError):
            ExtractorConfig(stride=0)
        with pytest.raises(InvalidArgumentError):
            ExtractorConfig(scales=())


class TestGridGeometry:
    def test_default_canvas_grid_is_62x62(self):
        assert grid_dims((256, 256), ExtractorConfig()) == (62, 62)

    def test_grid_dims_formula(self):
        cfg = ExtractorConfig(patch_size=5, stride=3)
        assert grid_dims((17, 11), cfg) == ((17 - 5) // 3 + 1, (11 - 5) // 3 + 1)

    def test_canvas_smaller_than_patch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            grid_dims((8, 64), ExtractorConfig())


class TestExtraction:
    def test_constant_image_analytics(self):
        c = 0.4
        grid = extract_features(make_image(np.full((17, 17), c)), ExtractorConfig())
        # per scale: identity mean c / std 0, gaussian mean c / std 0,
        # both sobels and the laplacian are zero-sum on a constant image
        per_scale = [c, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        expected = np.array(per_scale * 2, dtype=np.float32)
        for vec in grid.flat():
            np.testing.assert_allclose(vec, expected, atol=1e-6)

    def test_identical_inputs_give_identical_grids(self):
        rng = np.random.default_rng(51)
        pixels = rng.random((33, 33), dtype=np.float32)
        a = extract_features(make_image(pixels), ExtractorConfig())
        b = extract_features(make_image(pixels.copy()), ExtractorConfig())
        np.testing.assert_array_equal(a.features, b.features)

    def test_single_location_matches_straight_line_oracle(self):
        rng = np.random.default_rng(52)
        pixels = rng.random((9, 9))
        cfg = ExtractorConfig()
        grid = extract_features(make_image(pixels), cfg)
        assert grid.grid_shape == (1, 1)
        got = grid.features[0, 0]

        gauss_1d = np.exp(-0.5 * np.arange(-2, 3) ** 2.0)
        gauss = np.outer(gauss_1d, gauss_1d) / gauss_1d.sum() ** 2
        kernels = {
            "identity": None,
            "gaussian": gauss,
            "sobel_x": np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]) / 8.0,
            "sobel_y": np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]]) / 8.0,
            "laplacian": np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]]) / 4.0,
        }

        def correlate_reflect(img, kernel):
            k = kernel.shape[0] // 2
            padded = np.pad(img, k, mode="symmetric")
            out = np.zeros_like(img)
            for r in range(img.shape[0]):
                for c in range(img.shape[1]):
                    acc = 0.0
                    for dr in range(kernel.shape[0]):
                        for dc in range(kernel.shape[1]):
                            acc += kernel[dr, dc] * padded[r + dr, c + dc]
                    out[r, c] = acc
            return out

        def block_mean_2(img):
            hs, ws = img.shape[0] // 2, img.shape[1] // 2
            out = np.zeros((hs, ws))
            for r in range(hs):
                for c in range(ws):
                    out[r, c] = img[2 * r : 2 * r + 2, 2 * c : 2 * c + 2].mean()
            return out

        def upsample_edge(resp, shape):
            full = np.repeat(np.repeat(resp, 2, axis=0), 2, axis=1)
            out = np.zeros(shape)
            for r in range(shape[0]):
                for c in range(shape[1]):
                    out[r, c] = full[min(r, full.shape[0] - 1), min(c, full.shape[1] - 1)]
            return out

        expected = []
        for s in (1, 2):
            base = pixels if s == 1 else block_mean_2(pixels)
            for name in ("identity", "gaussian", "sobel_x", "sobel_y", "laplacian"):
                resp = base if kernels[name] is None else correlate_reflect(base, kernels[name])
                full = resp if s == 1 else upsample_edge(resp, pixels.shape)
                window = full[0:9, 0:9]
                expected.append(window.mean())
                expected.append(window.std())
        np.testing.assert_allclose(got, np.array(expected, dtype=np.float32), atol=1e-5)

    def test_impulse_shifted_by_one_stride_shifts_grid_by_one_cell(self):
        cfg = ExtractorConfig()
        base = np.zeros((41, 41), dtype=np.float32)
        base[12, 16] = 1.0
        shifted = np.zeros((41, 41), dtype=np.float32)
        shifted[12 + cfg.stride, 16] = 1.0
        a = extract_features(make_image(base), cfg).features
        b = extract_features(make_image(shifted), cfg).features
        # interior rows only: row i of the shifted grid equals row i-1 of the base
        np.testing.assert_array_equal(b[2:7], a[1:6])

    def test_features_invariant_to_zero_padding_outside_bbox(self):
        from mvpad.projection import crop_resize_to_canvas

        rng = np.random.default_rng(53)
        img = rng.random((40, 40))
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[10:30, 8:26] = 1
        img = img * mask
        pi1, _ = crop_resize_to_canvas(img, mask, ProjectionType.RIGHT_AXIAL, canvas=(64, 64))
        padded_img = np.pad(img, ((0, 7), (5, 0)))
        padded_mask = np.pad(mask, ((0, 7), (5, 0)))
        pi2, _ = crop_resize_to_canvas(padded_img, padded_mask, ProjectionType.RIGHT_AXIAL, canvas=(64, 64))
        cfg = ExtractorConfig()
        np.testing.assert_array_equal(
            extract_features(pi1, cfg).features, extract_features(pi2, cfg).features
        )

    def test_all_values_finite_on_random_images(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            grid = extract_features(make_image(rng.random((25, 31), dtype=np.float32)), ExtractorConfig())
            assert np.isfinite(grid.features).all()

    def test_grid_carries_extractor_identity(self):
        grid = extract_features(make_image(np.zeros((16, 16))), ExtractorConfig())
        assert grid.extractor_hash == DEFAULT_HASH
        assert grid.feature_dim == 20
        assert grid.canvas == (16, 16)


def window_grid(shape, cfg):
    """Top-left corner (row, col) of every patch window, in grid order."""
    gh, gw = grid_dims(shape, cfg)
    return [[(i * cfg.stride, j * cfg.stride) for j in range(gw)] for i in range(gh)]


class TestWindowStats:
    """`_window_stats` against exact per-window arithmetic."""

    def test_flat_windows_are_exact(self):
        rng = np.random.default_rng(55)
        img = np.zeros((72, 72))
        img[:36] = rng.random((36, 72))
        img[36:, 36:] = 0.5  # bottom-left block stays all 0
        cfg = ExtractorConfig()
        mean, std = _window_stats(img, cfg)
        checked = {0.0: 0, 0.5: 0}
        for i, row in enumerate(window_grid(img.shape, cfg)):
            for j, (r, c) in enumerate(row):
                if r >= 36 and (c + cfg.patch_size <= 36 or c >= 36):
                    value = float(img[r, c])
                    assert mean[i, j] == value
                    assert std[i, j] == 0.0
                    checked[value] += 1
        assert checked[0.0] > 0 and checked[0.5] > 0

    @pytest.mark.parametrize(
        "patch_size, stride, shape", [(9, 4, (256, 256)), (5, 3, (128, 160)), (7, 1, (40, 37))]
    )
    def test_random_windows_match_two_pass_fsum(self, patch_size, stride, shape):
        rng = np.random.default_rng(56)
        img = rng.random(shape)
        cfg = ExtractorConfig(patch_size=patch_size, stride=stride)
        mean, std = _window_stats(img, cfg)
        p = cfg.patch_size
        for i, row in enumerate(window_grid(shape, cfg)):
            for j, (r, c) in enumerate(row):
                values = img[r : r + p, c : c + p].ravel().tolist()
                mu = math.fsum(values) / len(values)
                sigma = math.sqrt(math.fsum((x - mu) ** 2 for x in values) / len(values))
                # 1e-14, not 1e-12: an integral image stays within 4e-13 here
                assert abs(mean[i, j] - mu) <= 1e-14
                assert abs(std[i, j] - sigma) <= 1e-14
