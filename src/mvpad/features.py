"""Locally aware patch features for projected images.

The extractor is deliberately closed-form so that every value can be checked
against a straight-line oracle: per scale (block-mean downsample), the image
is filtered with a fixed five-filter bank (identity, gaussian sigma=1,
sobel-x, sobel-y, laplacian, all reflect-padded), the response is replicated
back to canvas resolution, and each patch contributes the mean and standard
deviation of every response over its footprint.

Feature vectors are concatenated in fixed (scale, filter, stat) order, so
the default config (scales [1,2]) yields 5 * 2 * 2 = 20 dimensions. The
extractor is an interface boundary: banks store a hash of the config and
refuse to score features produced under a different one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidArgumentError
from .projection import ProjectedImage, ProjectionType
from .volume import freeze_array, is_int

_G = np.exp(-0.5 * np.arange(-2, 3, dtype=np.float64) ** 2)
_G /= _G.sum()

FILTER_BANK: tuple[tuple[str, np.ndarray | None], ...] = (
    ("identity", None),
    ("gaussian", np.outer(_G, _G)),
    ("sobel_x", np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 8.0),
    ("sobel_y", np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64) / 8.0),
    ("laplacian", np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64) / 4.0),
)

STATS = ("mean", "std")


@dataclass(frozen=True)
class ExtractorConfig:
    patch_size: int = 9
    stride: int = 4
    scales: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if not is_int(self.patch_size) or self.patch_size < 1 or self.patch_size % 2 == 0:
            raise InvalidArgumentError(f"patch_size must be an odd int >= 1, got {self.patch_size!r}")
        if not is_int(self.stride) or self.stride < 1:
            raise InvalidArgumentError(f"stride must be an int >= 1, got {self.stride!r}")
        scales = tuple(self.scales)
        if not scales or not all(is_int(s) and s >= 1 for s in scales):
            raise InvalidArgumentError(f"scales must be positive ints, got {self.scales!r}")
        object.__setattr__(self, "patch_size", int(self.patch_size))
        object.__setattr__(self, "stride", int(self.stride))
        object.__setattr__(self, "scales", tuple(int(s) for s in scales))

    @property
    def feature_dim(self) -> int:
        return len(FILTER_BANK) * len(self.scales) * len(STATS)

    def to_dict(self) -> dict:
        return {
            "patch_size": self.patch_size,
            "stride": self.stride,
            "scales": list(self.scales),
            "filters": [name for name, _ in FILTER_BANK],
            "stats": list(STATS),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractorConfig":
        """Inverse of `to_dict`; ``filters`` and ``stats`` may only restate the fixed ones."""
        if not isinstance(d, dict):
            raise InvalidArgumentError(f"extractor config must be an object, got {type(d).__name__}")
        fixed = {"filters": [name for name, _ in FILTER_BANK], "stats": list(STATS)}
        unknown = set(d) - {"patch_size", "stride", "scales", *fixed}
        if unknown:
            raise InvalidArgumentError(f"unknown extractor keys: {sorted(unknown)}")
        for key, value in fixed.items():
            if key in d and d[key] != value:
                raise InvalidArgumentError(f"extractor {key} must be {value}, got {d[key]!r}")
        kwargs = {key: d[key] for key in ("patch_size", "stride", "scales") if key in d}
        if "scales" in kwargs:
            if not isinstance(kwargs["scales"], list):
                raise InvalidArgumentError(f"scales must be a list, got {kwargs['scales']!r}")
            kwargs["scales"] = tuple(kwargs["scales"])
        return cls(**kwargs)

    @property
    def extractor_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def grid_dims(canvas: tuple[int, int], cfg: ExtractorConfig) -> tuple[int, int]:
    h, w = canvas
    if h < cfg.patch_size or w < cfg.patch_size:
        raise InvalidArgumentError(f"canvas {canvas} smaller than patch_size {cfg.patch_size}")
    return (
        (h - cfg.patch_size) // cfg.stride + 1,
        (w - cfg.patch_size) // cfg.stride + 1,
    )


@dataclass(frozen=True)
class FeatureGrid:
    ptype: ProjectionType
    features: np.ndarray  # (H', W', D) float32
    extractor_hash: str
    patch_size: int
    stride: int
    canvas: tuple[int, int] = (256, 256)

    def __post_init__(self):
        feats = freeze_array(self.features, np.float32)
        if feats.ndim != 3:
            raise InvalidArgumentError(f"features must be (H', W', D), got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise InvalidArgumentError("feature vectors must be finite")
        object.__setattr__(self, "features", feats)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.features.shape[:2]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    def flat(self) -> np.ndarray:
        """(H'*W', D) row-major view of the feature vectors."""
        return self.features.reshape(-1, self.features.shape[2])


# ---------------------------------------------------------------------------
# Extraction


def _block_mean(img: np.ndarray, s: int) -> np.ndarray:
    h, w = img.shape
    hs, ws = h // s, w // s
    if hs < 1 or ws < 1:
        raise InvalidArgumentError(f"image {img.shape} too small for scale {s}")
    crop = img[: hs * s, : ws * s]
    return crop.reshape(hs, s, ws, s).mean(axis=(1, 3))


def _upsample_to(resp: np.ndarray, s: int, shape: tuple[int, int]) -> np.ndarray:
    full = np.repeat(np.repeat(resp, s, axis=0), s, axis=1)
    pad_h = shape[0] - full.shape[0]
    pad_w = shape[1] - full.shape[1]
    if pad_h or pad_w:
        full = np.pad(full, ((0, pad_h), (0, pad_w)), mode="edge")
    return full


def _window_stats(resp: np.ndarray, cfg: ExtractorConfig):
    """Mean and population std of every patch window, via direct strided sums.

    The response and its square are stacked as one (2, H, W) array. The p
    stride-s column slices are added into one copy, then the p stride-s row
    slices of that result, always in the same order, so every window sum is
    built the same way on every run and thread. A window whose values and
    squares sum exactly (all 0, or all 0.5) gets its exact mean and std 0."""
    p, s = cfg.patch_size, cfg.stride
    gh, gw = grid_dims(resp.shape, cfg)
    both = np.stack((resp, resp * resp))
    span_w = (gw - 1) * s + 1
    cols = both[:, :, 0:span_w:s].copy()
    for k in range(1, p):
        cols += both[:, :, k : k + span_w : s]
    span_h = (gh - 1) * s + 1
    sums = cols[:, 0:span_h:s].copy()
    for k in range(1, p):
        sums += cols[:, k : k + span_h : s]
    area = float(p * p)
    mean = sums[0] / area
    var = sums[1] / area - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return mean, std


def _extract_array(pixels: np.ndarray, cfg: ExtractorConfig) -> np.ndarray:
    """(H', W', D) float64 feature tensor for a raw 2D image."""
    img = np.asarray(pixels, dtype=np.float64)
    gh, gw = grid_dims(img.shape, cfg)
    planes = []
    for s in cfg.scales:
        scaled = img if s == 1 else _block_mean(img, s)
        for _, kernel in FILTER_BANK:
            resp = scaled if kernel is None else ndimage.correlate(scaled, kernel, mode="reflect")
            full = resp if s == 1 else _upsample_to(resp, s, img.shape)
            mean, std = _window_stats(full, cfg)
            planes.append(mean)
            planes.append(std)
    return np.stack(planes, axis=-1)


def extract_features(img: ProjectedImage, cfg: ExtractorConfig) -> FeatureGrid:
    """Extract the per-location descriptor grid for one projected image."""
    tensor = _extract_array(img.pixels, cfg)
    return FeatureGrid(
        ptype=img.ptype,
        features=tensor.astype(np.float32),
        extractor_hash=cfg.extractor_hash,
        patch_size=cfg.patch_size,
        stride=cfg.stride,
        canvas=img.pixels.shape,
    )
