"""Seeded synthetic chest-like phantoms with ground-truth lung and anomaly masks.

A phantom is air (-1000 HU) containing a solid +40 HU body cylinder with two
ellipsoidal "lungs" carved inside it (≈ -850 HU plus Gaussian noise), curved
vessel tubes inside the lungs, and (for abnormal cases) Gaussian intensity
blobs whose peak HU sits inside the disease-salient (-800, 0) window so they
survive HU truncation.

Everything is a pure function of (config, seed). The anomaly pass consumes a
separate RNG stream, so an abnormal case is voxel-identical to its
seed-matched normal counterpart outside the blob support.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AnomalyFitError, InvalidArgumentError
from .volume import CaseRecord, Volume, save_volume, write_manifest

MIN_DIMS = (32, 48, 48)
_AIR_HU = -1000.0
_BODY_HU = 40.0
_LUNG_HU = -850.0
_LUNG_NOISE_SIGMA = 30.0
# peak HU range of the blobs `generate_dataset` draws
ANOMALY_INTENSITY_RANGE = (-300.0, -100.0)

# Stream tags keeping anomaly draws off the base-geometry stream.
_ANOMALY_STREAM = 7919
_DATASET_STREAM = 104729


@dataclass(frozen=True)
class AnomalySpec:
    """Gaussian blob anomalies: peak HU, support radius in voxels, count."""

    radius_vox: float = 3.5
    intensity_hu: float = -250.0
    count: int = 1

    def __post_init__(self):
        if not 2.0 <= self.radius_vox <= 6.0:
            raise InvalidArgumentError(f"anomaly radius_vox must be in [2,6], got {self.radius_vox}")
        if not -400.0 <= self.intensity_hu <= -100.0:
            raise InvalidArgumentError(f"anomaly intensity_hu must be in [-400,-100], got {self.intensity_hu}")
        if self.count < 1:
            raise InvalidArgumentError(f"anomaly count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class PhantomConfig:
    dims: tuple[int, int, int] = (64, 96, 96)
    seed: int = 0
    vessel_count: int = 12
    anomaly: AnomalySpec | None = None

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < m for d, m in zip(self.dims, MIN_DIMS)):
            raise InvalidArgumentError(f"phantom dims must be >= {MIN_DIMS}, got {self.dims}")
        if self.vessel_count < 0:
            raise InvalidArgumentError("vessel_count must be >= 0")


class _Ellipsoid:
    """Axis-aligned ellipsoid in voxel coordinates (z, y, x)."""

    def __init__(self, center, semi_axes):
        self.center = np.asarray(center, dtype=np.float64)
        self.axes = np.asarray(semi_axes, dtype=np.float64)

    def field(self, zz, yy, xx):
        """Normalized quadratic form; <= 1 is inside."""
        return (
            ((zz - self.center[0]) / self.axes[0]) ** 2
            + ((yy - self.center[1]) / self.axes[1]) ** 2
            + ((xx - self.center[2]) / self.axes[2]) ** 2
        )


def _coordinate_grids(dims):
    zz = np.arange(dims[0], dtype=np.float64)[:, None, None]
    yy = np.arange(dims[1], dtype=np.float64)[None, :, None]
    xx = np.arange(dims[2], dtype=np.float64)[None, None, :]
    return zz, yy, xx


def _lung_geometry(dims, rng) -> list[_Ellipsoid]:
    """Two jittered lung ellipsoids; right lung = lower x by convention.

    Margins keep every lung >= ~6 voxels away from the volume boundary and
    the inter-lung gap wide enough that radius-2 morphological closing in the
    threshold segmenter can never bridge the two lungs.
    """
    Z, Y, X = dims
    lungs = []
    for cx_frac in (0.30, 0.70):
        center_jitter = rng.uniform(-0.01, 0.01, size=3)
        axis_scale = rng.uniform(0.94, 1.06, size=3)
        center = (
            Z * (0.50 + center_jitter[0]),
            Y * (0.52 + center_jitter[1]),
            X * (cx_frac + center_jitter[2]),
        )
        semi_axes = (
            Z * 0.34 * axis_scale[0],
            Y * 0.26 * axis_scale[1],
            X * 0.145 * axis_scale[2],
        )
        lungs.append(_Ellipsoid(center, semi_axes))
    return lungs


def _stamp_balls(values, inside_field, points, radius, hu, dims):
    """Set voxels within `radius` of any of `points` (and inside the lung) to
    at least `hu`. Each ball is tested only on its local box
    ``[floor(p - r - 1), ceil(p + r + 1) + 1)`` clipped to the grid; the boxes
    are laid out at one fixed span from their unclipped origins."""
    span = int(np.ceil(2 * radius)) + 5  # > ceil(p + r + 1) + 1 - floor(p - r - 1)
    coords = np.floor(points - radius - 1).astype(int)[:, :, None] + np.arange(span)  # (n, axis, span)
    hi = np.minimum(np.ceil(points + radius + 1).astype(int) + 1, dims)
    in_box = (coords >= 0) & (coords < hi[:, :, None])
    delta = np.where(in_box, coords - points[:, :, None], np.inf)  # out of the box: never within radius
    dz, dy, dx = delta[:, 0, :, None, None], delta[:, 1, None, :, None], delta[:, 2, None, None, :]
    n, a, b, c = np.nonzero(dz**2 + dy**2 + dx**2 <= radius * radius)
    z, y, x = coords[n, 0, a], coords[n, 1, b], coords[n, 2, c]
    hit = inside_field[z, y, x] <= 0.95
    z, y, x = z[hit], y[hit], x[hit]
    values[z, y, x] = np.maximum(values[z, y, x], hu)


def _draw_vessels(values, lung: _Ellipsoid, field, n_vessels, rng, dims, mediastinal_sign):
    """Curved vessel tubes from the hilum outward, rasterized as balls along
    quadratic Bezier curves, clipped to the lung interior."""
    for _ in range(n_vessels):
        start = lung.center + np.array(
            [
                rng.uniform(-0.25, 0.25) * lung.axes[0],
                rng.uniform(-0.25, 0.25) * lung.axes[1],
                mediastinal_sign * rng.uniform(0.3, 0.6) * lung.axes[2],
            ]
        )
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        end = lung.center + 0.82 * direction * lung.axes
        ctrl = 0.5 * (start + end) + rng.normal(scale=0.15, size=3) * lung.axes
        radius = rng.uniform(0.9, 1.4)
        hu = rng.uniform(-200.0, -40.0)
        t = np.linspace(0.0, 1.0, 48)[:, None]
        curve = (1 - t) ** 2 * start + 2 * t * (1 - t) * ctrl + t**2 * end
        _stamp_balls(values, field, curve, radius, hu, dims)


def _generate_base(cfg: PhantomConfig):
    """Body + lungs + vessels in float64 HU; returns (values, lung_label, lungs)."""
    dims = cfg.dims
    rng = np.random.default_rng(cfg.seed)
    zz, yy, xx = _coordinate_grids(dims)
    Z, Y, X = dims

    values = np.full(dims, _AIR_HU, dtype=np.float64)
    body = (
        ((yy - Y / 2) / (0.46 * Y)) ** 2 + ((xx - X / 2) / (0.47 * X)) ** 2 <= 1.0
    ) & (zz >= 2) & (zz < Z - 2)
    values[body] = _BODY_HU

    lungs = _lung_geometry(dims, rng)
    label = np.zeros(dims, dtype=np.uint8)
    fields = []
    for side_label, lung in zip((1, 2), lungs):
        field = lung.field(zz, yy, xx)
        fields.append(field)
        inside = field <= 1.0
        label[inside] = side_label
        values[inside] = _LUNG_HU + rng.normal(0.0, _LUNG_NOISE_SIGMA, size=int(inside.sum()))

    per_lung = cfg.vessel_count // 2
    remainder = cfg.vessel_count - 2 * per_lung
    for i, (lung, field) in enumerate(zip(lungs, fields)):
        count = per_lung + (remainder if i == 0 else 0)
        # mediastinum sits at the high-x side of the right lung, low-x of the left
        sign = 1.0 if i == 0 else -1.0
        _draw_vessels(values, lung, field, count, rng, dims, sign)
    return values, label, lungs


def _sample_blob_center(lung: _Ellipsoid, margin, rng):
    """Uniform point in the lung ellipsoid shrunk by `margin` voxels."""
    shrunk = lung.axes - margin
    if np.any(shrunk < 0.5):
        raise AnomalyFitError(
            f"anomaly radius + margin {margin:.1f} does not fit inside lung semi-axes {lung.axes}"
        )
    for _ in range(1000):
        unit = rng.uniform(-1.0, 1.0, size=3)
        if float(np.sum(unit**2)) <= 1.0:
            return lung.center + unit * shrunk
    raise AnomalyFitError("anomaly placement rejection sampling failed")


def _apply_anomaly(values, lungs, spec: AnomalySpec, seed, dims):
    """Blend Gaussian blobs into the lungs; returns the gt mask."""
    rng = np.random.default_rng([seed, _ANOMALY_STREAM])
    gt = np.zeros(dims, dtype=np.uint8)
    radius = float(spec.radius_vox)
    # wide falloff: most of the ball stays near peak intensity, so the
    # lesion reads as a filled disk in projection rather than a point
    sigma = 0.8 * radius
    for _ in range(spec.count):
        lung = lungs[int(rng.integers(0, 2))]
        center = _sample_blob_center(lung, radius + 2.0, rng)
        lo = np.maximum(np.floor(center - radius).astype(int), 0)
        hi = np.minimum(np.ceil(center + radius).astype(int) + 1, dims)
        sl = tuple(slice(l, h) for l, h in zip(lo, hi))
        zz, yy, xx = np.ogrid[sl[0], sl[1], sl[2]]
        dist2 = (zz - center[0]) ** 2 + (yy - center[1]) ** 2 + (xx - center[2]) ** 2
        hit = dist2 <= radius * radius
        weight = np.exp(-dist2 / (2.0 * sigma * sigma))
        region = values[sl]
        region[hit] = region[hit] + weight[hit] * (spec.intensity_hu - region[hit])
        gt[sl][hit] = 1
    return gt


def generate_case(cfg: PhantomConfig):
    """Generate one phantom case.

    Returns (ct: Volume[int16], lung_mask: Volume[uint8 labels {0,1,2}],
    gt: Volume[uint8] or None). Byte-identical for identical configs.
    """
    values, label, lungs = _generate_base(cfg)
    gt_vol = None
    if cfg.anomaly is not None:
        gt = _apply_anomaly(values, lungs, cfg.anomaly, cfg.seed, cfg.dims)
        gt_vol = Volume(gt)
    ct = Volume(np.rint(values).astype(np.int16))
    return ct, Volume(label), gt_vol


def generate_dataset(
    n_normal: int,
    n_abnormal: int,
    seed: int,
    out_dir,
    dims: tuple[int, int, int] = (64, 96, 96),
    vessel_count: int = 12,
    radius_range: tuple[float, float] = (3.5, 5.5),
) -> Path:
    """Write n_normal + n_abnormal phantom cases as MVOL files plus a manifest.

    Per-case seeds are seed + case index (normals first). Each abnormal case
    has one blob whose radius and peak HU are drawn from ``radius_range`` and
    ``ANOMALY_INTENSITY_RANGE`` on a stream derived from the case seed, so
    regeneration is exactly reproducible.
    """
    if n_normal < 0 or n_abnormal < 0:
        raise InvalidArgumentError("case counts must be >= 0")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for index in range(n_normal + n_abnormal):
        case_seed = seed + index
        abnormal = index >= n_normal
        anomaly = None
        if abnormal:
            draw = np.random.default_rng([case_seed, _DATASET_STREAM])
            anomaly = AnomalySpec(
                radius_vox=float(draw.uniform(*radius_range)),
                intensity_hu=float(draw.uniform(*ANOMALY_INTENSITY_RANGE)),
            )
        cfg = PhantomConfig(dims=dims, seed=case_seed, vessel_count=vessel_count, anomaly=anomaly)
        ct, mask, gt = generate_case(cfg)
        case_id = f"case_{index:04d}"
        vol_name = f"{case_id}_ct.mvol"
        mask_name = f"{case_id}_mask.mvol"
        save_volume(ct, out_dir / vol_name)
        save_volume(mask, out_dir / mask_name)
        gt_name = ""
        if gt is not None:
            gt_name = f"{case_id}_gt.mvol"
            save_volume(gt, out_dir / gt_name)
        records.append(
            CaseRecord(case_id, vol_name, mask_name, "abnormal" if abnormal else "normal", gt_name or None)
        )
    manifest = out_dir / "manifest.csv"
    write_manifest(records, manifest)
    return manifest
