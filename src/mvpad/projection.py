"""Stage 1: multi-view projection of masked, truncated, normalized volumes.

Each case yields six projected images, one per (lung side, plane):
(right, sagittal), (right, coronal), (right, axial), then the left side in
the same plane order. Plane collapse axes are fixed: axial collapses z,
coronal collapses y, sagittal collapses x.

Projected images are cropped to the projected lung's bounding box (plus a
2-pixel margin), isotropically resized, and zero-padded top-left onto a
fixed canvas so feature grids are comparable across cases. The crop box,
scale, and source plane shape are kept as geometry metadata for the inverse
mapping used during 3D reconstruction.

``project_case`` produces the bytes of the reference path (``prepare_lung_volume``
→ ``mip_project``/``aip_project``, ``project_mask``) while reading only each
lung's bounding box, and without a float copy of the whole grid:

- Box rule. Outside the lung's 3D bounding box every prepared voxel is the
  fill ``hu_lo``, which the window maps to exactly 0.0; so every ray that
  misses the box projects to 0.0 (image) and 0 (mask). The planes start as
  zeros and only the box's 2D footprint is computed.
- MIP reduces first, then windows. The window (clip, float64 affine, clip,
  float32; ``volume.window_unit``) is monotone non-decreasing at every step,
  rounding included, so ``max(window(x)) == window(max(x))`` bit for bit. The
  max runs over the int16 masked box; only the 2D result is windowed.
- AIP sums the windowed box in float64, windowing it in z slabs, and divides
  by the *full* axis length.
  For an int16 window (hi - lo < 2**16) and axis lengths below 2**14 this
  equals ``np.mean(..., dtype=float64)`` over the whole grid byte for byte:
  every nonzero unit value is a float32 >= 1/(hi - lo) > 2**-16, hence a
  multiple of 2**-39, and at most 1. Every partial sum of such values is then
  a multiple of 2**-39 below 2**14, which float64 holds exactly, so the sum is
  exact in any order and the zeros outside the box change nothing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, EmptyMaskError, InvalidArgumentError
from .volume import (
    DEFAULT_HU_HI,
    DEFAULT_HU_LO,
    Volume,
    freeze_array,
    mark_readonly,
    normalize_truncated,
    require_hu,
    require_window,
    truncate_hu,
    window_unit,
)

DEFAULT_CANVAS = (256, 256)
BBOX_MARGIN = 2
_SLAB_VOXELS = 1 << 18  # AIP windows at most this many voxels at a time (3 MiB of float copies)

_PLANE_AXIS = {"axial": 0, "coronal": 1, "sagittal": 2}


class ProjectionType(Enum):
    """The six (side, plane) projection identifiers, in canonical order."""

    RIGHT_SAGITTAL = "right_sagittal"
    RIGHT_CORONAL = "right_coronal"
    RIGHT_AXIAL = "right_axial"
    LEFT_SAGITTAL = "left_sagittal"
    LEFT_CORONAL = "left_coronal"
    LEFT_AXIAL = "left_axial"

    @property
    def side(self) -> str:
        return self.value.split("_")[0]

    @property
    def plane(self) -> str:
        return self.value.split("_")[1]

    @property
    def axis(self) -> int:
        """Volume axis collapsed by this projection."""
        return _PLANE_AXIS[self.plane]

    @classmethod
    def from_string(cls, text: str) -> "ProjectionType":
        for ptype in cls:
            if ptype.value == text:
                return ptype
        raise InvalidArgumentError(f"unknown projection type {text!r}")


ALL_PROJECTIONS = tuple(ProjectionType)


def plane_shape(volume_dims: tuple[int, int, int], ptype: ProjectionType) -> tuple[int, int]:
    """2D shape left after collapsing the ptype's axis."""
    dims = [d for a, d in enumerate(volume_dims) if a != ptype.axis]
    return (dims[0], dims[1])


@dataclass(frozen=True)
class ProjectionGeometry:
    """Everything needed to invert a crop/resize: source plane shape, the
    crop box actually used (row0, col0, row1, col1; end-exclusive), the
    isotropic scale, and the canvas size. Resized content is anchored at
    the canvas top-left corner."""

    ptype: ProjectionType
    plane_shape: tuple[int, int]
    bbox: tuple[int, int, int, int]
    scale: float
    canvas: tuple[int, int]

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidArgumentError(f"geometry scale must be finite and > 0, got {self.scale!r}")
        (h, w), (r0, c0, r1, c1) = self.plane_shape, self.bbox
        if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
            raise InvalidArgumentError(
                f"geometry bbox {self.bbox} must be non-empty and inside plane {self.plane_shape}"
            )

    @property
    def crop_shape(self) -> tuple[int, int]:
        r0, c0, r1, c1 = self.bbox
        return (r1 - r0, c1 - c0)

    @property
    def resized_shape(self) -> tuple[int, int]:
        ch, cw = self.crop_shape
        return (
            max(1, int(round(ch * self.scale))),
            max(1, int(round(cw * self.scale))),
        )

    def to_dict(self) -> dict:
        return {
            "ptype": self.ptype.value,
            "plane_shape": list(self.plane_shape),
            "bbox": list(self.bbox),
            "scale": self.scale,
            "canvas": list(self.canvas),
        }


@dataclass(frozen=True)
class ProjectedImage:
    geometry: ProjectionGeometry
    pixels: np.ndarray  # (canvas_h, canvas_w) float32 in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "pixels", freeze_array(self.pixels, None))

    @property
    def ptype(self) -> ProjectionType:
        return self.geometry.ptype


@dataclass(frozen=True)
class ProjectedMask:
    geometry: ProjectionGeometry
    pixels: np.ndarray  # (canvas_h, canvas_w) uint8 {0, 1}

    def __post_init__(self):
        object.__setattr__(self, "pixels", freeze_array(self.pixels, None))

    @property
    def ptype(self) -> ProjectionType:
        return self.geometry.ptype


# ---------------------------------------------------------------------------
# Volume preparation and plane projections


def prepare_lung_volume(ct: Volume, lung: Volume, *, hu_lo=DEFAULT_HU_LO, hu_hi=DEFAULT_HU_HI) -> Volume:
    """Mask a CT to one lung, truncate to [hu_lo, hu_hi] HU, normalize to [0, 1].

    Non-lung voxels are set to hu_lo before truncation, so they land exactly
    at 0.0 in the normalized volume.
    """
    _check_lung_dims(ct, lung)
    require_hu(ct, "prepare_lung_volume")
    masked = np.where(lung.voxels > 0, ct.voxels, np.int16(hu_lo))
    vol = Volume(masked, ct.spacing_mm)
    return normalize_truncated(truncate_hu(vol, hu_lo, hu_hi), hu_lo, hu_hi)


def prepare_unsegmented_volume(ct: Volume, *, hu_lo=DEFAULT_HU_LO, hu_hi=DEFAULT_HU_HI) -> Volume:
    """Ablation path: truncate/normalize the whole volume, no lung masking."""
    return normalize_truncated(truncate_hu(ct, hu_lo, hu_hi), hu_lo, hu_hi)


def _check_unit_volume(v: Volume, op: str) -> None:
    if v.voxels.dtype != np.float32:
        raise InvalidArgumentError(f"{op} expects a float32 unit volume, got {v.voxels.dtype}")


def mip_project(v: Volume, ptype: ProjectionType) -> np.ndarray:
    """Maximum intensity projection along the ptype's collapse axis."""
    _check_unit_volume(v, "mip_project")
    return np.max(v.voxels, axis=ptype.axis)


def aip_project(v: Volume, ptype: ProjectionType) -> np.ndarray:
    """Average intensity projection along the ptype's collapse axis."""
    _check_unit_volume(v, "aip_project")
    return np.mean(v.voxels, axis=ptype.axis, dtype=np.float64).astype(np.float32)


def project_mask(mask: Volume, ptype: ProjectionType) -> np.ndarray:
    """Logical-OR projection of a binary mask along the collapse axis."""
    return (mask.voxels > 0).max(axis=ptype.axis).astype(np.uint8)


# ---------------------------------------------------------------------------
# Crop / resize onto the canvas


def bilinear_sample(src: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample src (float64) at fractional (rows, cols), clamping at edges.

    ``rows`` and ``cols`` broadcast against each other, so a column of rows
    and a row of columns sample a whole grid; each output value is computed
    exactly as for the same pair passed as flat arrays."""
    h, w = src.shape
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    w00 = (1.0 - fr) * (1.0 - fc)
    w01 = (1.0 - fr) * fc
    w10 = fr * (1.0 - fc)
    w11 = fr * fc
    return w00 * src[r0, c0] + w01 * src[r0, c1] + w10 * src[r1, c0] + w11 * src[r1, c1]


def nearest_sample(src: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Nearest-neighbor sampling with round-half-even (mirror-symmetric); broadcasts like bilinear_sample."""
    h, w = src.shape
    ri = np.clip(np.rint(rows).astype(np.intp), 0, h - 1)
    ci = np.clip(np.rint(cols).astype(np.intp), 0, w - 1)
    return src[ri, ci]


def mask_bbox(mask2d: np.ndarray) -> tuple[int, int, int, int]:
    """Tight end-exclusive bounding box of a 2D binary mask."""
    rows = np.any(mask2d > 0, axis=1)
    cols = np.any(mask2d > 0, axis=0)
    if not rows.any():
        raise EmptyMaskError("cannot take the bounding box of an empty mask")
    r = np.nonzero(rows)[0]
    c = np.nonzero(cols)[0]
    return (int(r[0]), int(c[0]), int(r[-1]) + 1, int(c[-1]) + 1)


def crop_resize_to_canvas(
    img: np.ndarray,
    mask2d: np.ndarray,
    ptype: ProjectionType,
    canvas: tuple[int, int] = DEFAULT_CANVAS,
) -> tuple[ProjectedImage, ProjectedMask]:
    """Crop both grids to the mask bbox + 2-pixel margin, resize isotropically
    (bilinear image, nearest mask), and zero-pad to the canvas.

    The resized image is multiplied by the resized mask, which keeps the mask
    a superset of the image's nonzero support by construction.
    """
    if img.shape != mask2d.shape:
        raise DimensionMismatchError(f"image {img.shape} and mask {mask2d.shape} shapes differ")
    h0, w0 = img.shape
    r0, c0, r1, c1 = mask_bbox(mask2d)
    r0 = max(0, r0 - BBOX_MARGIN)
    c0 = max(0, c0 - BBOX_MARGIN)
    r1 = min(h0, r1 + BBOX_MARGIN)
    c1 = min(w0, c1 + BBOX_MARGIN)
    crop_h, crop_w = r1 - r0, c1 - c0
    ch, cw = canvas
    scale = min(ch / crop_h, cw / crop_w)
    geometry = ProjectionGeometry(
        ptype=ptype,
        plane_shape=(h0, w0),
        bbox=(r0, c0, r1, c1),
        scale=scale,
        canvas=(ch, cw),
    )
    rh, rw = geometry.resized_shape

    # pixel-center aligned sampling positions back in crop coordinates
    src_r = (np.arange(rh, dtype=np.float64) + 0.5) / scale - 0.5
    src_c = (np.arange(rw, dtype=np.float64) + 0.5) / scale - 0.5
    rows, cols = src_r[:, None], src_c[None, :]

    crop_img = img[r0:r1, c0:c1].astype(np.float64)
    crop_mask = (mask2d[r0:r1, c0:c1] > 0).astype(np.uint8)
    resized_img = bilinear_sample(crop_img, rows, cols)
    resized_mask = nearest_sample(crop_mask, rows, cols)
    resized_img *= resized_mask

    canvas_img = np.zeros((ch, cw), dtype=np.float64)
    canvas_mask = np.zeros((ch, cw), dtype=np.uint8)
    canvas_img[:rh, :rw] = resized_img
    canvas_mask[:rh, :rw] = resized_mask
    canvas_img = np.clip(canvas_img, 0.0, 1.0).astype(np.float32)
    image = ProjectedImage(geometry, mark_readonly(canvas_img))
    return image, ProjectedMask(geometry, mark_readonly(canvas_mask))


# ---------------------------------------------------------------------------
# Per-case driver


def _check_lung_dims(ct: Volume, lung: Volume) -> None:
    if ct.dims != lung.dims:
        raise DimensionMismatchError(f"ct dims {ct.dims} != lung mask dims {lung.dims}")


def _windowed_sums(hu_box, axes, hu_lo, hu_hi) -> dict[int, np.ndarray]:
    """Float64 sums of the windowed box along each axis in ``axes``.

    The box is windowed in z slabs of at most ``_SLAB_VOXELS`` voxels, so the
    float copies stay small. The sums are exact (see the module docstring), so
    adding the slabs' z sums gives the whole box's sums bit for bit."""
    nz, ny, nx = hu_box.shape
    sums = {axis: np.zeros(tuple(d for a, d in enumerate(hu_box.shape) if a != axis)) for axis in axes}
    step = max(1, _SLAB_VOXELS // (ny * nx))
    for z0 in range(0, nz, step):
        unit = window_unit(hu_box[z0 : z0 + step], hu_lo, hu_hi)
        for axis in axes:
            if axis == 0:
                sums[0] += unit.sum(axis=0, dtype=np.float64)
            else:
                sums[axis][z0 : z0 + step] = unit.sum(axis=axis, dtype=np.float64)
    return sums


def _planes(hu_box, fg_box, box, dims, axes, method, hu_lo, hu_hi) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(float32 image, uint8 mask) plane per collapse axis in ``axes``.

    ``hu_box`` is the masked int16 box (non-lung voxels already ``hu_lo``),
    ``fg_box`` its foreground, or None when the box is the whole unmasked grid.
    Planes are zero outside the box's footprint (see the module docstring)."""
    sums = _windowed_sums(hu_box, axes, hu_lo, hu_hi) if method == "aip" else None
    planes = {}
    for axis in axes:
        shape = tuple(d for a, d in enumerate(dims) if a != axis)
        footprint = tuple(s for a, s in enumerate(box) if a != axis)
        img = np.zeros(shape, dtype=np.float32)
        if method == "mip":
            img[footprint] = window_unit(hu_box.max(axis=axis), hu_lo, hu_hi)
        else:  # exact float64 sum, so dividing by the full length is np.mean's result
            img[footprint] = (sums[axis] / dims[axis]).astype(np.float32)
        if fg_box is None:
            mask = np.ones(shape, dtype=np.uint8)
        else:
            mask = np.zeros(shape, dtype=np.uint8)
            mask[footprint] = fg_box.any(axis=axis)
        planes[axis] = (img, mask)
    return planes


def project_case(
    ct: Volume,
    lung_pair,
    method: str = "mip",
    canvas: tuple[int, int] = DEFAULT_CANVAS,
    unsegmented: bool = False,
    *,
    hu_lo=DEFAULT_HU_LO,
    hu_hi=DEFAULT_HU_HI,
    ptypes: Sequence[ProjectionType] = ALL_PROJECTIONS,
) -> list[tuple[ProjectedImage, ProjectedMask]]:
    """Project one case into an (image, mask) pair per entry of ``ptypes``.

    ``ptypes`` defaults to all six, in canonical order; only the sides and
    collapse axes they name are computed. The int16 CT is windowed to
    [hu_lo, hu_hi] HU before projection, and only inside each lung's bounding
    box and region, which ``lung_pair.box(side)`` found when the
    ``segmentation.LungPair`` was made. With ``unsegmented=True`` the lung
    masks are ignored (the no-segmentation ablation): the whole truncated
    volume is projected and the "mask" is the full plane, so the right/left
    pairs coincide.
    """
    if method not in ("mip", "aip"):
        raise InvalidArgumentError(f"projection method must be mip|aip, got {method!r}")
    if not unsegmented:
        _check_lung_dims(ct, lung_pair.labels)
    require_hu(ct, "project_case")
    require_window(hu_lo, hu_hi, "project_case")
    ptypes = tuple(ptypes)
    if unsegmented:
        axes = sorted({ptype.axis for ptype in ptypes})
        planes = _planes(ct.voxels, None, (slice(None),) * 3, ct.dims, axes, method, hu_lo, hu_hi)
        side_planes = {"right": planes, "left": planes}
    else:
        side_planes = {}
        for side in ("right", "left"):
            axes = sorted({ptype.axis for ptype in ptypes if ptype.side == side})
            if not axes:
                continue
            box, fg = lung_pair.box(side)
            masked = np.where(fg, ct.voxels[box], np.int16(hu_lo))
            side_planes[side] = _planes(masked, fg, box, ct.dims, axes, method, hu_lo, hu_hi)
    return [crop_resize_to_canvas(*side_planes[ptype.side][ptype.axis], ptype, canvas) for ptype in ptypes]
