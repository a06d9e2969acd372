"""Stage 2: per-projection memory banks and nearest-neighbor anomaly scoring.

A bank aggregates the patch features of the normal training images for one
projection type, then keeps a greedy k-center (farthest-point) coreset. The
coreset loop runs over the unique rows only, each at its first occurrence,
unless the coreset is larger than their count; exact duplicates then cost
the loop nothing.
Test images are scored by the exact Euclidean distance of each grid feature
to its nearest bank entry; the distance grid is bilinearly painted onto the
canvas, optionally Gaussian-smoothed, and its maximum is the projection's
anomaly score.

Reported distances are exact float64 with a fixed summation order. The bulk
path searches an NNIndex: the bank de-duplicated and a k-d tree on it, which
is used only to find each query's nearest entry; that entry is re-measured
directly, and queries with a near-tie re-measure every entry within a tiny
margin at once. So it agrees bit-for-bit with scanning every entry. Ties
break to the lowest index everywhere. Each MemoryBank builds its index once,
on its first scoring call (`MemoryBank.nn_index`), and every later map
against that bank reuses it; building a bank builds no index.

Banks persist as MBNK1 files in the header-line-plus-payload container of
`volume.read_container`: payload count x feature_dim little-endian float32.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import (
    DimensionMismatchError,
    ExtractorMismatchError,
    HeaderFormatError,
    InvalidArgumentError,
)
from .features import FeatureGrid
from .projection import ProjectionType, bilinear_sample
from .volume import freeze_array, is_int, is_real, read_container, write_container

DEFAULT_CORESET_FRAC = 0.10
DEFAULT_SMOOTHING_SIGMA = 4.0


@dataclass(frozen=True)
class MemoryBank:
    """Coreset-sampled nominal features for one projection type."""

    ptype: ProjectionType
    entries: np.ndarray  # (C, D) float32
    extractor_hash: str
    coreset_frac: float
    source_count: int

    def __post_init__(self):
        entries = freeze_array(self.entries, np.float32)
        if entries.ndim != 2 or min(entries.shape) < 1:
            raise InvalidArgumentError(f"bank entries must be (C>=1, D>=1), got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise InvalidArgumentError("bank entries must be finite")
        if not 0.0 < self.coreset_frac <= 1.0:
            raise InvalidArgumentError(f"coreset_frac must be in (0,1], got {self.coreset_frac}")
        if self.source_count < entries.shape[0]:
            raise InvalidArgumentError(
                f"source_count {self.source_count} < bank size {entries.shape[0]}"
            )
        object.__setattr__(self, "entries", entries)

    @functools.cached_property
    def nn_index(self) -> NNIndex:
        """The exact NN index over `entries`, built on first use and kept.

        Threads that race on a fresh bank may each build one (Python 3.12+
        takes no lock here); the indexes are identical, so any of them serves."""
        return NNIndex(self.entries)

    @property
    def count(self) -> int:
        return self.entries.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class AnomalyMap2D:
    """Canvas-resolution nearest-neighbor distance map for one projection."""

    ptype: ProjectionType
    pixels: np.ndarray  # (h, w) float32, >= 0
    score: float

    def __post_init__(self):
        pixels = freeze_array(self.pixels, np.float32)
        if pixels.ndim != 2:
            raise InvalidArgumentError(f"anomaly map must be 2D, got shape {pixels.shape}")
        if float(pixels.min(initial=0.0)) < 0.0:
            raise InvalidArgumentError("anomaly map pixels must be >= 0")
        if pixels.size and float(self.score) != float(pixels.max()):
            raise InvalidArgumentError("anomaly map score must equal the max pixel")
        object.__setattr__(self, "pixels", pixels)


# ---------------------------------------------------------------------------
# Aggregation and greedy coreset


def aggregate_bank(train_grids: list[FeatureGrid]) -> np.ndarray:
    """Concatenate grid features across training images into an (N, D) set.

    All grids must share projection type and extractor hash. Duplicates are
    retained; the coreset step decides what survives.
    """
    if not train_grids:
        raise InvalidArgumentError("aggregate_bank needs at least one feature grid")
    first = train_grids[0]
    for grid in train_grids[1:]:
        if grid.ptype != first.ptype:
            raise ExtractorMismatchError(
                f"mixed projection types in bank: {first.ptype.value} vs {grid.ptype.value}"
            )
        if grid.extractor_hash != first.extractor_hash:
            raise ExtractorMismatchError("mixed extractor hashes in bank aggregation")
        if grid.feature_dim != first.feature_dim:
            raise DimensionMismatchError("mixed feature dims in bank aggregation")
    return np.vstack([grid.flat() for grid in train_grids])


def _first_unique_rows(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    `a` must be a C-contiguous 2D array. Each row is viewed as one opaque
    item of its bytes, so rows are equal when their bytes are: -0.0 and 0.0
    count as different values.
    """
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return np.sort(first)


def greedy_coreset(points: np.ndarray, C: int) -> np.ndarray:
    """Deterministic farthest-point (greedy k-center) selection.

    The first center is the point farthest from the mean of all points; each
    following center is the point farthest from its nearest chosen center.
    Ties go to the lowest unchosen index. Returns indices in selection order.

    The loop runs over the unique rows only, each kept at its first
    occurrence in ascending order, unless C exceeds their count; then it
    runs over every row. A duplicate shares its coordinates with its first
    occurrence, so it could be picked only once the covering radius is down
    to float32 rounding level. The mean is taken over the full multiset.
    (The BLAS product may round one row differently at different positions
    in the matrix, so duplicates in the loop need not get bitwise-equal
    state values.)

    The per-center distance update runs as a float32 BLAS norm expansion:
    selection quality is insensitive to the low bits, and the state arrays
    are walked C times. Chosen points are pinned to -1 in the min-distance
    state, below any squared distance, so argmax never re-picks them and its
    first-occurrence rule keeps ties on the lowest index.
    """
    with np.errstate(over="ignore"):
        pts = np.ascontiguousarray(points, dtype=np.float32)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidArgumentError(f"points must be (N>=1, D), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("points must be finite in float32")
    n = pts.shape[0]
    if not 1 <= C <= n:
        raise InvalidArgumentError(f"coreset size must satisfy 1 <= C <= {n}, got {C}")
    diff = pts.astype(np.float64)
    diff -= diff.mean(axis=0)
    spread = np.einsum("ij,ij->i", diff, diff)
    del diff
    keep = _first_unique_rows(pts)
    if C > keep.size:
        keep = np.arange(n)
    else:
        pts = pts[keep]
        spread = spread[keep]
    first = int(np.argmax(spread))
    selected = np.empty(C, dtype=np.int64)
    selected[0] = first
    if C == 1:
        return keep[selected]
    norms = np.einsum("ij,ij->i", pts, pts)
    min_sqdist = np.full(keep.size, np.inf, dtype=np.float32)
    min_sqdist[first] = -1.0
    d2 = np.empty(keep.size, dtype=np.float32)
    for k in range(1, C):
        prev = int(selected[k - 1])
        np.multiply(pts @ pts[prev], np.float32(-2.0), out=d2)
        d2 += norms
        d2 += norms[prev]
        np.minimum(min_sqdist, d2, out=min_sqdist)
        best = int(np.argmax(min_sqdist))
        selected[k] = best
        min_sqdist[best] = -1.0
    return keep[selected]


def coreset_size(n: int, frac: float) -> int:
    return max(1, min(n, int(round(frac * n))))


def build_bank(train_grids: list[FeatureGrid], coreset_frac: float = DEFAULT_CORESET_FRAC) -> MemoryBank:
    """Aggregate training grids and keep a greedy coreset of the features."""
    raw = aggregate_bank(train_grids)
    if not 0.0 < coreset_frac <= 1.0:
        raise InvalidArgumentError(f"coreset_frac must be in (0,1], got {coreset_frac}")
    size = coreset_size(raw.shape[0], coreset_frac)
    if coreset_frac >= 1.0:
        keep = np.arange(raw.shape[0])
    else:
        keep = greedy_coreset(raw, size)
    return MemoryBank(
        ptype=train_grids[0].ptype,
        entries=raw[keep],
        extractor_hash=train_grids[0].extractor_hash,
        coreset_frac=coreset_frac,
        source_count=raw.shape[0],
    )


# ---------------------------------------------------------------------------
# Nearest-neighbor scoring


def _sqdist(e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise squared distances with the plain elementwise full-scan sum."""
    diff = e - q
    return (diff * diff).sum(axis=1)


def nn_distance(query: np.ndarray, bank: MemoryBank) -> tuple[float, int]:
    """Exact Euclidean distance to the nearest bank entry (tie: lowest index)."""
    q = np.asarray(query, dtype=np.float64).ravel()
    if bank.count < 1:
        raise InvalidArgumentError("cannot query an empty bank")
    if q.shape[0] != bank.feature_dim:
        raise DimensionMismatchError(f"query dim {q.shape[0]} != bank dim {bank.feature_dim}")
    sqdist = _sqdist(bank.entries.astype(np.float64), q)
    idx = int(np.argmin(sqdist))
    return float(np.sqrt(sqdist[idx])), idx


# A tree distance within this relative (plus absolute, for zero distances)
# margin of the nearest one is a possible tie; the margin is far above the
# float64 rounding error of a 20-term sum.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-150


class NNIndex:
    """Exact nearest-entry search structure over one entries array.

    Entries with identical bytes are dropped first, keeping each first
    occurrence, and a k-d tree is built on the rest; entries that differ only
    in the sign of a zero stay apart and tie exactly. `entries` is the array
    the index was built from, kept so that callers can check which array an
    index belongs to.
    """

    def __init__(self, entries: np.ndarray):
        e = np.ascontiguousarray(entries, dtype=np.float64)
        if e.ndim != 2:
            raise DimensionMismatchError(f"entries must be 2D, got shape {e.shape}")
        if e.shape[0] < 1:
            raise InvalidArgumentError("cannot query an empty bank")
        if e.shape[1] < 1:
            raise InvalidArgumentError("features must have at least one dimension")
        if not np.isfinite(e).all():
            raise InvalidArgumentError("entries must be finite")
        self.entries = entries
        self.keep = _first_unique_rows(e)
        self.rows = e[self.keep]
        self.tree = cKDTree(self.rows)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-entry squared distances and original entry indices; see bulk_nn_distance."""
        q = np.ascontiguousarray(queries, dtype=np.float64)
        eu, tree = self.rows, self.tree
        if q.ndim != 2 or q.shape[1] != eu.shape[1]:
            raise DimensionMismatchError(f"query shape {q.shape} incompatible with entry dim {eu.shape[1]}")
        if not np.isfinite(q).all():
            raise InvalidArgumentError("queries must be finite")
        # a missing neighbor comes back at distance inf: the second one of a
        # one-entry bank, or every one when all squared distances overflow, in
        # which case a full scan ties them all and picks entry 0
        dist, near = tree.query(q, k=[1, 2])
        overflow = np.isinf(dist[:, 0])
        nearest = np.where(overflow, 0, near[:, 0])
        best = _sqdist(eu[nearest], q)
        radius = dist[:, 0] * (1.0 + _TIE_RTOL) + _TIE_ATOL
        rows = np.flatnonzero((dist[:, 1] <= radius) & ~overflow)
        if rows.size:
            balls = tree.query_ball_point(q[rows], radius[rows])
            sizes = np.fromiter(map(len, balls), dtype=np.intp, count=rows.size)
            cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=sizes.sum())
            owner = np.repeat(rows, sizes)
            d2 = _sqdist(eu[cand], q[owner])
            order = np.lexsort((cand, d2, owner))  # per owner: smallest d2, then lowest index
            win = order[np.searchsorted(owner[order], rows)]
            best[rows] = d2[win]
            nearest[rows] = cand[win]
        return best, self.keep[nearest]


def bulk_nn_distance(
    queries: np.ndarray, entries: np.ndarray, index: NNIndex | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest-entry squared distances and indices for many queries.

    The search runs on `index`, which must have been built from this very
    `entries` array (checked with `is`; any other array raises
    InvalidArgumentError). Without one, a throwaway NNIndex is built.
    The tree finds each query's two nearest entries; the nearest is
    re-measured with the plain elementwise sum of a full scan, so the
    returned float64 values equal scanning every entry bit for bit. A query
    whose second tree distance is within a tiny relative margin of the first
    is a possible tie: all entries within that margin are re-measured at
    once and the smallest distance wins, the lowest entry index on equal
    distances.
    """
    if index is None:
        index = NNIndex(entries)
    elif index.entries is not entries:
        raise InvalidArgumentError("the NN index was built from a different entries array")
    return index.query(queries)


def _distance_grid(test_grid: FeatureGrid, bank: MemoryBank) -> np.ndarray:
    sqdist, _ = bulk_nn_distance(test_grid.flat(), bank.entries, bank.nn_index)
    return np.sqrt(sqdist).reshape(test_grid.grid_shape)


def _check_compatible(test_grid: FeatureGrid, bank: MemoryBank) -> None:
    if test_grid.ptype != bank.ptype:
        raise ExtractorMismatchError(
            f"grid projection {test_grid.ptype.value} != bank projection {bank.ptype.value}"
        )
    if test_grid.extractor_hash != bank.extractor_hash:
        raise ExtractorMismatchError("feature grid and bank were built with different extractors")
    if test_grid.feature_dim != bank.feature_dim:
        raise DimensionMismatchError(
            f"grid feature dim {test_grid.feature_dim} != bank dim {bank.feature_dim}"
        )


def anomaly_map(
    test_grid: FeatureGrid,
    bank: MemoryBank,
    smoothing_sigma: float = DEFAULT_SMOOTHING_SIGMA,
) -> AnomalyMap2D:
    """Score one projected image against its bank.

    The per-location nearest-neighbor distances are bilinearly upsampled from
    the feature grid (cell centers anchored at patch centers) to canvas
    resolution, optionally Gaussian-smoothed, and the max pixel is the score.
    """
    _check_compatible(test_grid, bank)
    if smoothing_sigma < 0:
        raise InvalidArgumentError(f"smoothing_sigma must be >= 0, got {smoothing_sigma}")
    dgrid = _distance_grid(test_grid, bank)
    h, w = test_grid.canvas
    half = (test_grid.patch_size - 1) / 2.0
    gi = (np.arange(h, dtype=np.float64) - half) / test_grid.stride
    gj = (np.arange(w, dtype=np.float64) - half) / test_grid.stride
    painted = bilinear_sample(dgrid, gi[:, None], gj[None, :])
    if smoothing_sigma > 0:
        painted = ndimage.gaussian_filter(painted, sigma=smoothing_sigma, mode="reflect")
    pixels = painted.astype(np.float32)
    return AnomalyMap2D(ptype=test_grid.ptype, pixels=pixels, score=float(pixels.max()))


# ---------------------------------------------------------------------------
# MBNK1 persistence


def bank_filename(ptype: ProjectionType) -> str:
    return f"bank_{ptype.value}.mbnk"


def save_bank(bank: MemoryBank, path) -> None:
    header = {
        "magic": "MBNK1",
        "projection": bank.ptype.value,
        "feature_dim": bank.feature_dim,
        "count": bank.count,
        "extractor_hash": bank.extractor_hash,
        "coreset_frac": bank.coreset_frac,
    }
    write_container(path, header, bank.entries)


def _mbnk_layout(header: dict) -> tuple:
    try:
        ptype = ProjectionType.from_string(header["projection"])
    except InvalidArgumentError as exc:
        raise HeaderFormatError(str(exc)) from exc
    shape = (header["count"], header["feature_dim"])
    if not all(is_int(n) for n in shape):
        raise HeaderFormatError(f"count and feature_dim must be ints, got {list(shape)}")
    extractor_hash, coreset_frac = header["extractor_hash"], header["coreset_frac"]
    if not isinstance(extractor_hash, str):
        raise HeaderFormatError(f"extractor_hash must be a string, got {extractor_hash!r}")
    if not is_real(coreset_frac):
        raise HeaderFormatError(f"coreset_frac must be a number, got {coreset_frac!r}")
    return (ptype, extractor_hash, float(coreset_frac)), np.dtype("<f4"), shape


def load_bank(path) -> MemoryBank:
    (ptype, extractor_hash, coreset_frac), entries = read_container(path, "MBNK1", _mbnk_layout)
    # the wire format does not carry the pre-coreset count; count is the
    # tightest value satisfying the bank invariant
    return MemoryBank(
        ptype=ptype,
        entries=entries,
        extractor_hash=extractor_hash,
        coreset_frac=coreset_frac,
        source_count=entries.shape[0],
    )
