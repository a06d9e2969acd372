"""Volume representation, container file I/O, the HU window, manifests.

A Volume is a 3D scalar grid in z->y->x row-major order (z = axial slice
index) with voxel spacing metadata. Three dtypes are supported:

- int16:   Hounsfield units (raw CT and all HU-space intermediates)
- float32: normalized unit intensities, every voxel in [0, 1]
- uint8:   label masks, every voxel in {0, 1, 2} (0 background,
           1 right lung, 2 left lung)

Volumes are immutable after construction and safe to share across threads.

MVOL volumes and MBNK memory banks share one container: one UTF-8 JSON
header line (its "magic" names the format) terminated by ``\\n``, then the
raw little-endian payload. The MVOL header is
``{"magic":"MVOL1","dims":[Z,Y,X],"spacing_mm":[sz,sy,sx],"dtype":...}``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    HeaderFormatError,
    InvalidArgumentError,
    MvpadError,
    PayloadSizeError,
    UnknownDtypeError,
)

DEFAULT_HU_LO = -800
DEFAULT_HU_HI = 0

# dtype code <-> little-endian numpy dtype for the MVOL payload
DTYPE_CODES = {
    "i16": np.dtype("<i2"),
    "f32": np.dtype("<f4"),
    "u8": np.dtype("u1"),
}
_KIND_TO_CODE = {np.dtype(np.int16): "i16", np.dtype(np.float32): "f32", np.dtype(np.uint8): "u8"}

VALID_LABELS = (0, 1, 2)


def is_int(value) -> bool:
    """An integer, numpy integers included; bool is not one here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, integers and NaN included; bool is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def freeze_array(arr, dtype) -> np.ndarray:
    """C-contiguous, read-only version of ``arr``, cast to ``dtype`` unless it is None.

    Copies only when ``np.ascontiguousarray`` hands back the caller's own
    writeable array, so the result never aliases memory the caller can still
    write, and no array is copied twice.
    """
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr and out.flags.writeable:
        out = out.copy()
    out.flags.writeable = False
    return out


def mark_readonly(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so ``freeze_array`` keeps it without a copy."""
    arr.flags.writeable = False
    return arr


def checked_spacing(spacing_mm) -> tuple[float, float, float]:
    """``spacing_mm`` as a tuple of 3 positive finite floats, else InvalidArgumentError."""
    spacing = tuple(float(s) for s in spacing_mm)
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise InvalidArgumentError(f"spacing_mm must be 3 positive finite reals, got {spacing_mm}")
    return spacing


@dataclass(frozen=True)
class Volume:
    """Immutable 3D scalar grid with spacing metadata.

    voxels: 3D array, shape (Z, Y, X), dtype int16 | float32 | uint8.
    spacing_mm: per-axis voxel size (sz, sy, sx), all positive.
    """

    voxels: np.ndarray
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        vox = freeze_array(self.voxels, None)
        if vox.ndim != 3 or min(vox.shape) < 1:
            raise InvalidArgumentError(f"volume must be 3D with all dims >= 1, got shape {vox.shape}")
        if vox.dtype not in _KIND_TO_CODE:
            raise UnknownDtypeError(f"unsupported volume dtype {vox.dtype}")
        if vox.dtype == np.float32:
            lo, hi = float(vox.min()), float(vox.max())
            if not (lo >= 0.0 and hi <= 1.0):  # also rejects NaN
                raise InvalidArgumentError(f"float32 volume values must lie in [0,1], got [{lo}, {hi}]")
        elif vox.dtype == np.uint8:
            if int(vox.max(initial=0)) > max(VALID_LABELS):
                raise InvalidArgumentError("uint8 label volume may only contain {0,1,2}")
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "spacing_mm", checked_spacing(self.spacing_mm))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    @property
    def dtype_code(self) -> str:
        return _KIND_TO_CODE[self.voxels.dtype]


# ---------------------------------------------------------------------------
# Header-line-plus-payload container (MVOL volumes, MBNK memory banks)


def write_container(path, header: dict, payload: np.ndarray) -> None:
    """Write the JSON header line (keys in insertion order), then the payload
    as little-endian C-order bytes."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(payload, dtype=payload.dtype.newbyteorder("<")))


def read_container(path, magic: str, layout: Callable[[dict], tuple]) -> tuple:
    """Return ``(fields, payload)``, the payload a read-only view of the bytes read.

    ``layout(header)`` parses the format's own fields into ``(fields, dtype,
    shape)``; a missing or mistyped field becomes a HeaderFormatError.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        raw = fh.read(os.fstat(fh.fileno()).st_size - fh.tell())  # one buffer, no join
    if not line.endswith(b"\n"):
        raise HeaderFormatError(f"{path}: missing header line")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise HeaderFormatError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise HeaderFormatError(f"{path}: bad magic, expected {magic}")
    try:
        fields, dtype, shape = layout(header)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise HeaderFormatError(f"{path}: incomplete header ({exc})") from exc
    except MvpadError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if any(d < 1 for d in shape):
        raise HeaderFormatError(f"{path}: payload dims must be positive ints, got {list(shape)}")
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise PayloadSizeError(f"{path}: expected {expected} payload bytes, found {len(raw)}")
    payload = np.frombuffer(memoryview(raw), dtype=dtype).reshape(shape)
    return fields, payload.astype(dtype.newbyteorder("="), copy=False)  # a view when native


def save_volume(vol: Volume, path) -> None:
    header = {
        "magic": "MVOL1",
        "dims": list(vol.dims),
        "spacing_mm": list(vol.spacing_mm),
        "dtype": vol.dtype_code,
    }
    write_container(path, header, vol.voxels)


def _mvol_layout(header: dict) -> tuple:
    dims = header["dims"]
    if not isinstance(dims, list) or len(dims) != 3 or not all(is_int(d) for d in dims):
        raise HeaderFormatError(f"dims must be 3 positive ints, got {dims!r}")
    code = header["dtype"]
    if not isinstance(code, str) or code not in DTYPE_CODES:
        raise UnknownDtypeError(f"unknown dtype code {code!r}")
    spacing = header["spacing_mm"]
    if not isinstance(spacing, list) or not all(is_real(s) for s in spacing):
        raise HeaderFormatError(f"spacing_mm must be a list of numbers, got {spacing!r}")
    return tuple(float(s) for s in spacing), DTYPE_CODES[code], tuple(dims)


def load_volume(path) -> Volume:
    spacing, voxels = read_container(path, "MVOL1", _mvol_layout)
    return Volume(voxels, spacing)


# ---------------------------------------------------------------------------
# The HU window


def require_hu(vol: Volume, op: str) -> None:
    """InvalidArgumentError unless ``vol`` holds int16 Hounsfield units."""
    if vol.voxels.dtype != np.int16:
        raise InvalidArgumentError(f"{op} expects an int16 HU volume, got {vol.voxels.dtype}")


def window_unit(hu: np.ndarray, lo, hi) -> np.ndarray:
    """The HU window as arrays: clip to [lo, hi], ``(v - lo) / (hi - lo)`` in
    float64, clip to [0, 1], round to float32.

    Every step, the final rounding included, is monotone non-decreasing in
    ``v``, so the window commutes with max: ``window_unit(x.max(axis)) ==
    window_unit(x).max(axis)`` bit for bit. ``lo < hi`` is the caller's check.
    """
    unit = hu.astype(np.float64)
    np.clip(unit, lo, hi, out=unit)
    unit -= lo
    unit /= float(hi - lo)
    np.clip(unit, 0.0, 1.0, out=unit)
    return unit.astype(np.float32)


# ---------------------------------------------------------------------------
# Case manifests

MANIFEST_HEADER = ["case_id", "volume_path", "mask_path", "label", "anomaly_gt_path"]
VALID_CASE_LABELS = ("normal", "abnormal")


@dataclass(frozen=True)
class CaseRecord:
    """One manifest row. Paths are stored as written (typically relative
    to the manifest's directory)."""

    case_id: str
    volume_path: str
    mask_path: str
    label: str
    anomaly_gt_path: str | None = field(default=None)

    def __post_init__(self):
        if self.label not in VALID_CASE_LABELS:
            raise InvalidArgumentError(f"case {self.case_id}: label must be normal|abnormal, got {self.label!r}")


def write_manifest(records: list[CaseRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in records:
            writer.writerow(
                [rec.case_id, rec.volume_path, rec.mask_path, rec.label, rec.anomaly_gt_path or ""]
            )


def read_manifest(path) -> list[CaseRecord]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise HeaderFormatError(f"{path}: unreadable manifest ({exc})") from exc
    if not rows:
        raise HeaderFormatError(f"{path}: empty manifest")
    if rows[0] != MANIFEST_HEADER:
        raise HeaderFormatError(f"{path}: bad manifest header {rows[0]}")
    records = []
    seen = set()
    for row in rows[1:]:
        if len(row) != len(MANIFEST_HEADER):
            raise HeaderFormatError(f"{path}: bad manifest row {row}")
        case_id, vol_p, mask_p, label, gt_p = row
        if case_id in seen:
            raise InvalidArgumentError(f"{path}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        records.append(CaseRecord(case_id, vol_p, mask_p, label, gt_p or None))
    return records


def resolve_manifest_path(base_dir, rel_path: str) -> Path:
    """Resolve a manifest-stored path against the manifest's directory."""
    p = Path(rel_path)
    return p if p.is_absolute() else Path(base_dir) / p
