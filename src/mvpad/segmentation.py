"""Lung mask ingestion: left/right splitting, a threshold segmenter for
phantoms, and Dice/IoU overlap scores.

Masks arrive either already labeled (1 = right lung, 2 = left lung) or as a
single binary foreground, in which case the two largest 6-connected
components are taken and "right lung = lower mean x index" fixes the side
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ComponentSplitError, DimensionMismatchError, EmptyMaskError
from .volume import VALID_LABELS, Volume, mark_readonly, require_hu

# 6-connectivity in 3D: faces only
_CONN6 = ndimage.generate_binary_structure(3, 1)

THRESHOLD_BAND_HU = (-950, -500)
_CLOSING_RADIUS = 2


@dataclass(frozen=True)
class LungPair:
    """Binary right/left lung masks sharing the source CT grid."""

    right: Volume
    left: Volume

    def __post_init__(self):
        if self.right.dims != self.left.dims:
            raise DimensionMismatchError(
                f"lung masks disagree on dims: {self.right.dims} vs {self.left.dims}"
            )
        # emptiness is legal here and rejected where a side is actually
        # projected, so "empty left lung" surfaces as a projection error
        if np.any((self.right.voxels > 0) & (self.left.voxels > 0)):
            raise ComponentSplitError("right and left lung masks overlap")

    def mask(self, side: str) -> Volume:
        if side == "right":
            return self.right
        if side == "left":
            return self.left
        raise ValueError(f"side must be right|left, got {side!r}")

    def labeled(self) -> Volume:
        """Recombine into a single {0,1,2} label volume."""
        out = np.zeros(self.right.dims, dtype=np.uint8)
        out[self.right.voxels > 0] = 1
        out[self.left.voxels > 0] = 2
        return Volume(out, self.right.spacing_mm)


def split_left_right(mask: Volume) -> LungPair:
    """Split a lung mask into right/left binary volumes.

    Labeled {1,2} input passes through. Binary input is split by keeping the
    two largest 6-connected components; the component with the smaller mean
    x index becomes the right lung.
    """
    vox = mask.voxels
    if vox.dtype != np.uint8:  # a uint8 Volume holds only VALID_LABELS already
        unexpected = sorted(set(np.unique(vox).tolist()) - set(VALID_LABELS))
        if unexpected:
            raise ComponentSplitError(f"unexpected label values {unexpected} in mask")
    is_right, is_left = vox == 1, vox == 2
    has_right, has_left = bool(is_right.any()), bool(is_left.any())
    if not (has_right or has_left):
        raise EmptyMaskError("cannot split an empty mask")
    if has_right and has_left:
        right = mark_readonly(is_right.view(np.uint8))
        left = mark_readonly(is_left.view(np.uint8))
    elif has_left:
        raise ComponentSplitError("labeled mask holds label 2 (left lung) but no label 1")
    else:
        labeled, n = ndimage.label(is_right, structure=_CONN6)
        if n < 2:
            raise ComponentSplitError(f"cannot split: found {n} connected component(s), need 2")
        sizes = ndimage.sum_labels(np.ones_like(labeled), labeled, index=np.arange(1, n + 1))
        keep = np.argsort(sizes)[-2:] + 1
        mean_x = [float(np.mean(np.nonzero(labeled == k)[2])) for k in keep]
        right_label = keep[int(np.argmin(mean_x))]
        left_label = keep[0] if right_label == keep[1] else keep[1]
        right = (labeled == right_label).astype(np.uint8)
        left = (labeled == left_label).astype(np.uint8)
    return LungPair(Volume(right, mask.spacing_mm), Volume(left, mask.spacing_mm))


def threshold_segment_phantom(ct: Volume) -> Volume:
    """Threshold-band lung segmentation for phantom volumes.

    Voxels in [-950, -500] HU are foreground candidates; a radius-2 binary
    closing plus per-component hole filling recovers vessels and anomaly
    blobs (both outside the HU band but enclosed by lung); the two largest
    interior components become the lungs, labeled via split_left_right.
    """
    require_hu(ct, "threshold_segment_phantom")
    lo, hi = THRESHOLD_BAND_HU
    band = (ct.voxels >= lo) & (ct.voxels <= hi)
    ball = _ball(_CLOSING_RADIUS)
    closed = ndimage.binary_closing(band, structure=ball)
    labeled, n = ndimage.label(closed, structure=_CONN6)
    if n == 0:
        raise EmptyMaskError("no candidate components in the threshold band")
    # interior components only: drop anything touching the volume boundary
    boundary_labels = set()
    for axis in range(3):
        for face in (0, -1):
            face_slice = [slice(None)] * 3
            face_slice[axis] = face
            boundary_labels |= set(np.unique(labeled[tuple(face_slice)]).tolist())
    boundary_labels.discard(0)
    sizes = ndimage.sum_labels(np.ones_like(labeled), labeled, index=np.arange(1, n + 1))
    for bl in boundary_labels:
        sizes[bl - 1] = 0
    order = np.argsort(sizes)
    keep = [int(k) + 1 for k in order[-2:] if sizes[k] > 0]
    if len(keep) < 2:
        raise ComponentSplitError("fewer than two interior components in the threshold band")
    binary = np.isin(labeled, keep)
    # blobs larger than the closing radius leave enclosed cavities; fill them
    binary = ndimage.binary_fill_holes(binary)
    pair = split_left_right(Volume(binary.astype(np.uint8), ct.spacing_mm))
    return pair.labeled()


def _ball(radius: int) -> np.ndarray:
    r = int(radius)
    zz, yy, xx = np.ogrid[-r : r + 1, -r : r + 1, -r : r + 1]
    return (zz * zz + yy * yy + xx * xx) <= r * r


def _as_foreground(mask) -> np.ndarray:
    vox = mask.voxels if isinstance(mask, Volume) else np.asarray(mask)
    return vox > 0


def _overlap_counts(a, b):
    fa = _as_foreground(a)
    fb = _as_foreground(b)
    if fa.shape != fb.shape:
        raise DimensionMismatchError(f"mask dims differ: {fa.shape} vs {fb.shape}")
    inter = int(np.count_nonzero(fa & fb))
    return inter, int(np.count_nonzero(fa)), int(np.count_nonzero(fb))


def dice(a, b) -> float:
    """Dice overlap 2|a∩b|/(|a|+|b|) of two masks (Volume or array); 1.0 when both empty."""
    inter, na, nb = _overlap_counts(a, b)
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def iou(a, b) -> float:
    """Intersection over union |a∩b|/|a∪b|; 1.0 when both masks are empty."""
    inter, na, nb = _overlap_counts(a, b)
    union = na + nb - inter
    if union == 0:
        return 1.0
    return inter / union
