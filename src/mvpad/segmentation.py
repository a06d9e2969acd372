"""Lung mask ingestion: left/right splitting, a threshold segmenter for
phantoms, and Dice/IoU overlap scores.

Masks arrive either already labeled (1 = right lung, 2 = left lung) or as a
single binary foreground, in which case the two largest 6-connected
components are taken and "right lung = lower mean x index" fixes the side
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ComponentSplitError, DimensionMismatchError, EmptyMaskError, InvalidArgumentError
from .volume import VALID_LABELS, Volume, mark_readonly, require_hu

# 6-connectivity in 3D: faces only
_CONN6 = ndimage.generate_binary_structure(3, 1)

THRESHOLD_BAND_HU = (-950, -500)
_CLOSING_RADIUS = 2

_SIDES = ("right", "left")  # labels 1 and 2; index() raises ValueError for any other side


def _lung_box(labels: np.ndarray, yx_or: np.ndarray, k: int):
    """(tight 3D box, bool region ``labels == k`` in it) of label ``k``, or None if absent.

    ``yx_or`` ORs ``labels`` along z; labels 1 and 2 are distinct bits."""
    hit = (yx_or & k) != 0
    rows = np.flatnonzero(hit.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(hit.any(axis=0))
    ys, xs = slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)
    zs = np.flatnonzero(np.bitwise_or.reduce(labels[:, ys, xs], axis=(1, 2)) & k)
    box = (slice(int(zs[0]), int(zs[-1]) + 1), ys, xs)
    return box, mark_readonly(labels[box] == k)


@dataclass(frozen=True)
class LungPair:
    """Right (label 1) and left (label 2) lungs of one uint8 {0,1,2} label volume.

    Each side's tight bounding box and its region in that box are found once,
    when the pair is made. An empty side raises EmptyMaskError where it is used.
    """

    labels: Volume
    _boxes: tuple = field(init=False, repr=False, compare=False)  # (right, left), None when empty

    def __post_init__(self):
        vox = self.labels.voxels
        if vox.dtype != np.uint8:
            raise InvalidArgumentError(f"lung labels must be a uint8 label volume, got {vox.dtype}")
        yx_or = np.bitwise_or.reduce(vox, axis=0)
        object.__setattr__(self, "_boxes", tuple(_lung_box(vox, yx_or, k) for k in (1, 2)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.dims

    def box(self, side: str) -> tuple[tuple[slice, slice, slice], np.ndarray]:
        """The side's tight 3D bounding box and its bool lung region inside that box."""
        found = self._boxes[_SIDES.index(side)]
        if found is None:
            raise EmptyMaskError(f"empty {side} lung mask, cannot project the {side} side")
        return found

    def mask(self, side: str) -> Volume:
        """The side's full-grid {0,1} mask, a read-only uint8 view of ``labels == k``."""
        is_side = self.labels.voxels == _SIDES.index(side) + 1
        return Volume(mark_readonly(is_side.view(np.uint8)), self.labels.spacing_mm)


def _component_sizes(labeled: np.ndarray) -> np.ndarray:
    """Voxel counts of labels 1..max as float64, so argsort sees float keys."""
    return np.bincount(labeled.ravel())[1:].astype(np.float64)


def _mean_x(labeled: np.ndarray, box: tuple[slice, slice, slice], k: int) -> float:
    """Mean x index of label ``k``'s voxels, counted inside its bounding box.

    The integer sums are exact, so this equals the mean over the full grid."""
    per_x = np.count_nonzero(labeled[box] == k, axis=(0, 1))
    return float(per_x @ np.arange(box[2].start, box[2].stop)) / float(per_x.sum())


def split_left_right(mask: Volume) -> LungPair:
    """Read a lung mask as a right/left LungPair.

    Labeled {1,2} input is kept as it is (a uint8 mask without a copy).
    Binary input is split by keeping the two largest 6-connected components;
    the component with the smaller mean x index becomes the right lung
    (label 1), the other the left lung (label 2).
    """
    vox = mask.voxels
    if vox.dtype != np.uint8:  # a uint8 Volume holds only VALID_LABELS already
        unexpected = sorted(set(np.unique(vox).tolist()) - set(VALID_LABELS))
        if unexpected:
            raise ComponentSplitError(f"unexpected label values {unexpected} in mask")
        mask = Volume(mark_readonly(vox.astype(np.uint8)), mask.spacing_mm)
    pair = LungPair(mask)
    has_right, has_left = (found is not None for found in pair._boxes)
    if not (has_right or has_left):
        raise EmptyMaskError("cannot split an empty mask")
    if has_left and not has_right:
        raise ComponentSplitError("labeled mask holds label 2 (left lung) but no label 1")
    if has_left:
        return pair
    labeled, n = ndimage.label(mask.voxels, structure=_CONN6)
    if n < 2:
        raise ComponentSplitError(f"cannot split: found {n} connected component(s), need 2")
    keep = np.argsort(_component_sizes(labeled))[-2:] + 1
    boxes = ndimage.find_objects(labeled)
    mean_x = [_mean_x(labeled, boxes[k - 1], k) for k in keep]
    relabel = np.zeros(n + 1, dtype=np.uint8)
    relabel[keep[np.argsort(mean_x, kind="stable")]] = (1, 2)  # the lower mean x is the right lung
    return LungPair(Volume(mark_readonly(relabel[labeled]), mask.spacing_mm))


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
    sizes = _component_sizes(labeled)
    for bl in boundary_labels:
        sizes[bl - 1] = 0
    order = np.argsort(sizes)
    keep = [int(k) + 1 for k in order[-2:] if sizes[k] > 0]
    if len(keep) < 2:
        raise ComponentSplitError("fewer than two interior components in the threshold band")
    binary = np.isin(labeled, keep)
    # blobs larger than the closing radius leave enclosed cavities; fill them
    binary = ndimage.binary_fill_holes(binary)
    return split_left_right(Volume(binary.astype(np.uint8), ct.spacing_mm)).labels


def _ball(radius: int) -> np.ndarray:
    r = int(radius)
    zz, yy, xx = np.ogrid[-r : r + 1, -r : r + 1, -r : r + 1]
    return (zz * zz + yy * yy + xx * xx) <= r * r


def _as_foreground(mask) -> np.ndarray:
    """``mask > 0`` as a bool array; a bool mask is used as it is."""
    vox = mask.voxels if isinstance(mask, Volume) else np.asarray(mask)
    return vox if vox.dtype == np.bool_ else vox > 0


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
