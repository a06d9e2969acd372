"""Stage 3: normalization, 2D-to-3D reverse projection, fusion, localization.

The 2D anomaly maps are masked and normalized, projected back into the CT
voxel grid by inverting the crop/resize mapping and replicating along the
collapsed axis, normalized again in 3D over the side's lung region, summed
per lung and across lungs, and finally binarized for localization.

Normalization is a percentile-based min-max: values at or below the q-th
nearest-rank percentile of the region collapse to zero, the region max maps
to one. A constant region yields all zeros (no ranking information).

``reverse_project``, ``fuse_per_lung`` and ``fuse_final`` are the reference
definitions: each builds one full-grid ``AnomalyVolume`` per stage.
``restore_in_lung_boxes`` computes the same final volume, byte for byte,
inside each lung's bounding box, and is what localization runs:

- The replicated volume is constant along the collapsed axis, so its 3D
  normalization runs on the plane. Each pixel counts as many times as the
  region has voxels behind it, the percentile is the weighted nearest rank
  over those pixels, and the max is taken over the pixels with a positive
  count. All such pixels lie in the box's footprint on the plane.
- Each normalized float32 plane is read at the box's region voxels, and a
  lung's three parts are summed in float64 in ``fuse_per_lung``'s order, then
  rounded to float32.
- The lungs are disjoint, so the final nearest rank and max run over the two
  lungs' region values, which is order-free; the min-max scaling is per
  value. Only the final float32 volume and its union region are full-grid.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMaskError,
    InvalidArgumentError,
    OverlapError,
)
from .memory_bank import AnomalyMap2D
from .projection import ProjectedMask, ProjectionGeometry, ProjectionType, bilinear_sample
from .segmentation import LungPair, _as_foreground
from .volume import checked_spacing, freeze_array, mark_readonly

DEFAULT_PERCENTILE_Q = 50.0
DEFAULT_BINARIZE_PCT = 99.5

# fusion stage tags, in pipeline order
STAGE_PER_PROJECTION = "per_projection"
STAGE_PER_LUNG = "per_lung"
STAGE_FINAL = "final"
_STAGES = (STAGE_PER_PROJECTION, STAGE_PER_LUNG, STAGE_FINAL)

# the order in which fuse_per_lung sums one lung's three parts
_FUSION_ORDER = ("sagittal", "coronal", "axial")

# per-lung maps are sums of up to three unit-range maps, so only the
# normalized stages promise the [0,1] range
_UNIT_RANGE_STAGES = (STAGE_PER_PROJECTION, STAGE_FINAL)


@dataclass(frozen=True)
class AnomalyVolume:
    """A 3D anomaly map in CT voxel space, tagged with its fusion stage."""

    values: np.ndarray  # (Z, Y, X) float32, zero outside region
    stage: str
    region: np.ndarray  # (Z, Y, X) bool, the lung support
    spacing_mm: tuple[float, float, float] = field(default=(1.0, 1.0, 1.0))

    def __post_init__(self):
        values = freeze_array(self.values, np.float32)
        region = freeze_array(self.region, bool)
        if values.ndim != 3:
            raise InvalidArgumentError(f"anomaly volume must be 3D, got shape {values.shape}")
        if region.shape != values.shape:
            raise DimensionMismatchError(
                f"region shape {region.shape} != values shape {values.shape}"
            )
        if self.stage not in _STAGES:
            raise InvalidArgumentError(f"unknown stage {self.stage!r}, expected one of {_STAGES}")
        spacing = checked_spacing(self.spacing_mm)
        lo, hi = float(values.min(initial=0.0)), float(values.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max propagate NaN
            raise InvalidArgumentError("anomaly volume values must be finite")
        if lo < 0.0:
            raise InvalidArgumentError("anomaly volume values must be >= 0")
        if self.stage in _UNIT_RANGE_STAGES and hi > 1.0:
            raise InvalidArgumentError(f"stage {self.stage} values must be <= 1")
        if np.greater(values != 0, region).any():  # -0.0 counts as zero
            raise InvalidArgumentError("anomaly volume must be zero outside its region")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "spacing_mm", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self.values.shape)

    def argmax_voxel(self) -> tuple[int, int, int]:
        flat = int(np.argmax(self.values))
        return tuple(int(v) for v in np.unravel_index(flat, self.values.shape))


# ---------------------------------------------------------------------------
# Percentile min-max normalization


def _nearest_rank(n: int, q: float) -> int:
    """The 1-based rank ceil(q*n/100), clamped to [1, n], of n values."""
    if n == 0:
        raise EmptyMaskError("percentile of an empty value set")
    if not 0.0 <= q < 100.0:
        raise InvalidArgumentError(f"percentile q must be in [0,100), got {q}")
    return min(max(math.ceil(q * n / 100.0), 1), n)


def percentile_nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n/100)-th smallest value (1-based)."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    rank = _nearest_rank(flat.size, q)
    return float(np.partition(flat, rank - 1)[rank - 1])


def _weighted_nearest_rank(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """percentile_nearest_rank of ``values`` with value i repeated counts[i] times."""
    rank = _nearest_rank(int(counts.sum()), q)
    order = np.argsort(values, kind="stable")
    return float(values[order[np.searchsorted(np.cumsum(counts[order]), rank)]])


def _minmax_scale(x: np.ndarray, p_q: float, m: float) -> np.ndarray:
    """clip((x - p_q) / (m - p_q), 0, 1) in float64; all zeros when m <= p_q."""
    if m > p_q:
        return np.clip((x - p_q) / (m - p_q), 0.0, 1.0)
    return np.zeros(x.shape, dtype=np.float64)


def percentile_minmax(values: np.ndarray, region: np.ndarray, q: float) -> np.ndarray:
    """Min-max over a region with the floor raised to the q-th percentile.

    Values at or below the percentile collapse to 0, the region max maps to
    1, everything outside the region is 0. A constant region maps to zeros.
    """
    vals = np.asarray(values, dtype=np.float64)
    reg = np.asarray(region, dtype=bool)
    if reg.shape != vals.shape:
        raise DimensionMismatchError(f"region shape {reg.shape} != values shape {vals.shape}")
    if not reg.any():
        raise EmptyMaskError("percentile_minmax over an empty region")
    inside = vals[reg]
    out = np.zeros(vals.shape, dtype=np.float64)
    out[reg] = _minmax_scale(inside, percentile_nearest_rank(inside, q), float(inside.max()))
    return out


def mask_normalize_2d(amap: AnomalyMap2D, mask: ProjectedMask, q: float = DEFAULT_PERCENTILE_Q) -> np.ndarray:
    """Mask a 2D anomaly map and normalize over the in-mask pixels."""
    if mask.ptype != amap.ptype:
        raise InvalidArgumentError(
            f"mask projection {mask.ptype.value} != map projection {amap.ptype.value}"
        )
    if mask.pixels.shape != amap.pixels.shape:
        raise DimensionMismatchError(
            f"mask shape {mask.pixels.shape} != map shape {amap.pixels.shape}"
        )
    region = mask.pixels > 0
    if not region.any():
        raise EmptyMaskError(f"empty projected mask for {amap.ptype.value}")
    masked = np.where(region, amap.pixels.astype(np.float64), 0.0)
    return percentile_minmax(masked, region, q)


# ---------------------------------------------------------------------------
# Reverse projection


def back_project_plane(grid: np.ndarray, geometry: ProjectionGeometry) -> np.ndarray:
    """Invert crop_resize_to_canvas: canvas-resolution grid -> collapsed plane.

    Plane pixels inside the forward bbox sample the canvas bilinearly at the
    coordinates the forward resize drew them from; pixels outside are 0.
    """
    src = np.asarray(grid, dtype=np.float64)
    if src.shape != geometry.canvas:
        raise DimensionMismatchError(f"grid shape {src.shape} != canvas {geometry.canvas}")
    plane = np.zeros(geometry.plane_shape, dtype=np.float64)
    r0, c0, r1, c1 = geometry.bbox
    rows = (np.arange(r0, r1, dtype=np.float64) - r0 + 0.5) * geometry.scale - 0.5
    cols = (np.arange(c0, c1, dtype=np.float64) - c0 + 0.5) * geometry.scale - 0.5
    plane[r0:r1, c0:c1] = bilinear_sample(src, rows[:, None], cols[None, :])
    return plane


def _normalized_plane(grid, geometry, dims, box, region, q) -> np.ndarray:
    """One projection's float32 normalized plane, cut to the footprint of ``box``.

    ``box`` is a 3D slice tuple of a ``dims`` grid and ``region`` the side's
    lung region inside it. Each pixel counts as many times as the region has
    voxels behind it. Every such pixel lies in the footprint, so the weighted
    nearest rank and the max are those of the whole plane."""
    ptype = geometry.ptype
    expected_plane = tuple(d for ax, d in enumerate(dims) if ax != ptype.axis)
    if geometry.plane_shape != expected_plane:
        raise DimensionMismatchError(
            f"{ptype.value} sidecar plane {geometry.plane_shape} does not match "
            f"volume dims {tuple(dims)}"
        )
    footprint = tuple(s for ax, s in enumerate(box) if ax != ptype.axis)
    plane = back_project_plane(grid, geometry)[footprint]
    counts = region.sum(axis=ptype.axis)
    covered = counts > 0
    seen = plane[covered]
    p_q = _weighted_nearest_rank(seen, counts[covered], q)
    return _minmax_scale(plane, p_q, float(seen.max())).astype(np.float32)


def _region_values(norm: np.ndarray, axis: int, region: np.ndarray) -> np.ndarray:
    """The plane ``norm`` replicated along ``axis``, read at the region voxels in C order."""
    return np.broadcast_to(np.expand_dims(norm, axis), region.shape)[region]


def reverse_project(
    grid: np.ndarray,
    geometry: ProjectionGeometry,
    lung_region: np.ndarray,
    q: float = DEFAULT_PERCENTILE_Q,
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> AnomalyVolume:
    """Lift a normalized 2D map into CT voxel space for one projection.

    The canvas grid is mapped back onto the collapsed-plane pixel grid,
    replicated along the collapsed axis, and re-normalized in 3D over the
    side's lung region. The normalization runs on the plane, each pixel
    weighted by its count of region voxels along the axis, and only the
    region voxels are written.
    """
    region = np.asarray(lung_region, dtype=bool)
    if region.ndim != 3:
        raise InvalidArgumentError(f"lung region must be 3D, got shape {region.shape}")
    norm = _normalized_plane(grid, geometry, region.shape, (slice(None),) * 3, region, q)
    values = np.zeros(region.shape, dtype=np.float32)
    values[region] = _region_values(norm, geometry.ptype.axis, region)
    return AnomalyVolume(
        values=mark_readonly(values),
        stage=STAGE_PER_PROJECTION,
        region=region,
        spacing_mm=spacing_mm,
    )


# ---------------------------------------------------------------------------
# Fusion


def _same_spacing(parts) -> None:
    spacings = {part.spacing_mm for part in parts}
    if len(spacings) > 1:
        raise DimensionMismatchError(f"fusion parts have different spacing_mm: {sorted(spacings)}")


def fuse_per_lung(
    u_sagittal: AnomalyVolume,
    u_coronal: AnomalyVolume,
    u_axial: AnomalyVolume,
    lung_mask: np.ndarray,
) -> AnomalyVolume:
    """Sum one lung's three per-projection volumes inside its mask.

    The sum is kept unscaled; dividing by three would be cancelled by the
    final normalization anyway.
    """
    mask = np.asarray(lung_mask, dtype=bool)
    parts = (u_sagittal, u_coronal, u_axial)
    for part in parts:
        if part.dims != tuple(mask.shape):
            raise DimensionMismatchError(
                f"per-projection volume dims {part.dims} != lung mask shape {mask.shape}"
            )
        if part.stage != STAGE_PER_PROJECTION:
            raise InvalidArgumentError(f"fuse_per_lung expects per-projection inputs, got {part.stage}")
    _same_spacing(parts)
    values = np.zeros(mask.shape, dtype=np.float32)
    values[mask] = sum(part.values[mask].astype(np.float64) for part in parts)
    return AnomalyVolume(
        values=mark_readonly(values),
        stage=STAGE_PER_LUNG,
        region=mask,
        spacing_mm=u_sagittal.spacing_mm,
    )


def fuse_final(u_right: AnomalyVolume, u_left: AnomalyVolume, q: float = DEFAULT_PERCENTILE_Q) -> AnomalyVolume:
    """Combine the per-lung volumes and normalize over the union lung region."""
    if u_right.dims != u_left.dims:
        raise DimensionMismatchError(f"lung volume dims differ: {u_right.dims} vs {u_left.dims}")
    for part in (u_right, u_left):
        if part.stage != STAGE_PER_LUNG:
            raise InvalidArgumentError(f"fuse_final expects per-lung inputs, got {part.stage}")
    _same_spacing((u_right, u_left))
    if (u_right.region & u_left.region).any():
        raise OverlapError("per-lung supports overlap; lungs must be disjoint")
    union = u_right.region | u_left.region
    # disjoint supports, each volume zero outside its own: the sum is exact
    inside = u_right.values[union].astype(np.float64) + u_left.values[union]
    p_q = percentile_nearest_rank(inside, q)
    values = np.zeros(union.shape, dtype=np.float32)
    values[union] = _minmax_scale(inside, p_q, float(inside.max()))
    return AnomalyVolume(
        values=mark_readonly(values),
        stage=STAGE_FINAL,
        region=mark_readonly(union),
        spacing_mm=u_right.spacing_mm,
    )


def restore_in_lung_boxes(
    lungs: LungPair,
    grids: Mapping[ProjectionType, tuple[np.ndarray, ProjectionGeometry]],
    q: float = DEFAULT_PERCENTILE_Q,
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> AnomalyVolume:
    """The final fused volume of both lungs, computed inside each lung's bounding box.

    ``grids`` maps each of the six projection types to its normalized canvas
    grid and geometry. Each side's bounding box and region come from
    ``lungs.box(side)``, found once when the ``LungPair`` was made. The bytes
    equal ``fuse_final`` of the two ``fuse_per_lung`` sums of
    ``reverse_project`` of each grid.
    """
    dims = lungs.dims
    sums = []
    for side in ("right", "left"):
        box, region = lungs.box(side)
        parts = []
        for plane in _FUSION_ORDER:
            grid, geometry = grids[ProjectionType(f"{side}_{plane}")]
            norm = _normalized_plane(grid, geometry, dims, box, region, q)
            parts.append(_region_values(norm, geometry.ptype.axis, region).astype(np.float64))
        sums.append(sum(parts).astype(np.float32))  # fuse_per_lung's order and rounding
    # fuse_final's nearest rank and max ignore value order, and its scaling is per value
    inside = np.concatenate(sums).astype(np.float64)
    scaled = _minmax_scale(inside, percentile_nearest_rank(inside, q), float(inside.max()))
    scaled = scaled.astype(np.float32)
    values = np.zeros(dims, dtype=np.float32)
    union = np.zeros(dims, dtype=bool)
    start = 0
    for side, part in zip(("right", "left"), sums):
        box, region = lungs.box(side)
        values[box][region] = scaled[start : start + part.size]
        union[box] |= region
        start += part.size
    return AnomalyVolume(
        values=mark_readonly(values),
        stage=STAGE_FINAL,
        region=mark_readonly(union),
        spacing_mm=spacing_mm,
    )


# ---------------------------------------------------------------------------
# Localization


def binarize_top(volume: AnomalyVolume, pct: float = DEFAULT_BINARIZE_PCT) -> np.ndarray:
    """Keep the voxels at or above the pct nearest-rank percentile of the region."""
    threshold = percentile_nearest_rank(volume.values[volume.region], pct)
    return volume.region & (volume.values >= threshold)


def localization_hit(pred: np.ndarray, gt: np.ndarray) -> bool:
    """True iff the predicted and ground-truth binary volumes intersect."""
    p, g = _as_foreground(pred), _as_foreground(gt)
    if p.shape != g.shape:
        raise DimensionMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    return bool(np.any(p & g))
