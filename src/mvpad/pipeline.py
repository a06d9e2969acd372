"""End-to-end orchestration: cases -> projections -> features -> scores.

Everything here is deterministic given (config, inputs); per-case work can
fan out over a thread pool and results are collected in submission order, so
the job count never changes any output byte.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .config import RunConfig
from .errors import InvalidArgumentError
from .evaluation import (
    Calibration,
    FoldSplit,
    calibrate,
    monte_carlo_splits,
    patient_score,
    summarize_folds,
    fold_metrics,
)
from .features import FeatureGrid, extract_features
from .memory_bank import AnomalyMap2D, MemoryBank, anomaly_map, build_bank
from .projection import ProjectedImage, ProjectedMask, ProjectionType, project_case
# unused here, but perfbench/spans.TARGETS wraps reverse_project, fuse_per_lung and fuse_final by name
from .reconstruction import (
    AnomalyVolume,
    binarize_top,
    fuse_final,
    fuse_per_lung,
    localization_hit,
    mask_normalize_2d,
    restore_in_lung_boxes,
    reverse_project,
)
from .segmentation import LungPair, split_left_right
from .volume import CaseRecord, Volume, load_volume, read_manifest, resolve_manifest_path

T = TypeVar("T")
U = TypeVar("U")


def parallel_map(fn: Callable[[T], U], items: Sequence[T], jobs: int = 1) -> list[U]:
    """Order-preserving map, threaded when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Case loading


@dataclass(frozen=True)
class LoadedCase:
    case_id: str
    label: str
    ct: Volume
    lungs: LungPair
    gt: Volume | None = None


def load_case(record: CaseRecord, base_dir) -> LoadedCase:
    base = Path(base_dir)
    ct = load_volume(resolve_manifest_path(base, record.volume_path))
    mask = load_volume(resolve_manifest_path(base, record.mask_path))
    lungs = split_left_right(mask)
    gt = None
    if record.anomaly_gt_path:
        gt = load_volume(resolve_manifest_path(base, record.anomaly_gt_path))
    return LoadedCase(case_id=record.case_id, label=record.label, ct=ct, lungs=lungs, gt=gt)


def load_manifest_cases(manifest_path) -> tuple[dict[str, LoadedCase], list[CaseRecord]]:
    records = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    cases = {rec.case_id: load_case(rec, base) for rec in records}
    return cases, records


# ---------------------------------------------------------------------------
# Projection and feature extraction


def case_projections(
    case: LoadedCase, cfg: RunConfig
) -> dict[ProjectionType, tuple[ProjectedImage, ProjectedMask]]:
    """The case's (image, mask) pair for each configured projection type."""
    pairs = project_case(
        case.ct, case.lungs, method=cfg.method, canvas=cfg.canvas, unsegmented=cfg.unsegmented,
        hu_lo=cfg.hu_lo, hu_hi=cfg.hu_hi, ptypes=cfg.ptypes,
    )
    return {img.ptype: (img, mask) for img, mask in pairs}


@dataclass(frozen=True)
class CaseFeatures:
    """Per-projection feature grids and projected masks for one case."""

    case_id: str
    grids: Mapping[ProjectionType, FeatureGrid]
    masks: Mapping[ProjectionType, ProjectedMask]


def compute_case_features(case: LoadedCase, cfg: RunConfig) -> CaseFeatures:
    projections = case_projections(case, cfg)
    return CaseFeatures(
        case_id=case.case_id,
        grids={ptype: extract_features(img, cfg.extractor) for ptype, (img, _) in projections.items()},
        masks={ptype: mask for ptype, (_, mask) in projections.items()},
    )


class FeatureCache:
    """Thread-safe memo of whole-case features, keyed on (case id, config).

    Two threads asking for the same missing entry may both compute it; the
    results are identical and the first one stored is kept.
    """

    def __init__(self):
        self._store: dict[tuple[str, RunConfig], CaseFeatures] = {}
        self._lock = threading.Lock()

    def features_for(self, case: LoadedCase, cfg: RunConfig) -> CaseFeatures:
        key = (case.case_id, cfg)
        with self._lock:
            cached = self._store.get(key)
        if cached is not None:
            return cached
        fresh = compute_case_features(case, cfg)
        with self._lock:
            return self._store.setdefault(key, fresh)


# ---------------------------------------------------------------------------
# Banks and scoring


def build_banks(features: Sequence[CaseFeatures], cfg: RunConfig) -> dict[ProjectionType, MemoryBank]:
    """One bank per configured projection type from the training cases."""
    if not features:
        raise InvalidArgumentError("build_banks needs at least one training case")
    return {
        ptype: build_bank([f.grids[ptype] for f in features], cfg.coreset_frac)
        for ptype in cfg.ptypes
    }


def case_anomaly_maps(
    features: CaseFeatures,
    banks: Mapping[ProjectionType, MemoryBank],
    cfg: RunConfig,
) -> dict[ProjectionType, AnomalyMap2D]:
    maps = {}
    for ptype in cfg.ptypes:
        if ptype not in banks:
            raise InvalidArgumentError(f"no bank for projection {ptype.value}")
        maps[ptype] = anomaly_map(features.grids[ptype], banks[ptype], cfg.smoothing_sigma)
    return maps


def raw_scores(
    features: CaseFeatures,
    banks: Mapping[ProjectionType, MemoryBank],
    cfg: RunConfig,
) -> dict[ProjectionType, float]:
    return {ptype: amap.score for ptype, amap in case_anomaly_maps(features, banks, cfg).items()}


def calibrate_from_cases(
    cal_features: Sequence[CaseFeatures],
    banks: Mapping[ProjectionType, MemoryBank],
    cfg: RunConfig,
    jobs: int = 1,
) -> Calibration:
    score_dicts = parallel_map(lambda f: raw_scores(f, banks, cfg), cal_features, jobs)
    per_ptype = {ptype: [d[ptype] for d in score_dicts] for ptype in cfg.ptypes}
    return calibrate(per_ptype)


# ---------------------------------------------------------------------------
# Localization


@dataclass(frozen=True)
class LocalizationResult:
    case_id: str
    fused: AnomalyVolume
    binarized: np.ndarray  # (Z,Y,X) bool
    hit: bool | None  # None when the case has no ground-truth mask


def localize_case(
    case: LoadedCase,
    features: CaseFeatures,
    banks: Mapping[ProjectionType, MemoryBank],
    cfg: RunConfig,
    maps: Mapping[ProjectionType, AnomalyMap2D] | None = None,
) -> LocalizationResult:
    """Reverse-project, fuse and binarize one case's anomaly maps."""
    if cfg.projection_set != "all-three":
        raise InvalidArgumentError("localization needs the all-three projection set")
    if cfg.unsegmented:
        raise InvalidArgumentError("localization needs lung segmentation")
    if maps is None:
        maps = case_anomaly_maps(features, banks, cfg)
    grids = {}
    for ptype in cfg.ptypes:
        mask = features.masks[ptype]
        grids[ptype] = (mask_normalize_2d(maps[ptype], mask, cfg.q), mask.geometry)
    fused = restore_in_lung_boxes(case.lungs, grids, cfg.q, case.ct.spacing_mm)
    binarized = binarize_top(fused, cfg.localization_pct)
    hit = None
    if case.gt is not None:
        hit = localization_hit(binarized, case.gt.voxels)
    return LocalizationResult(case_id=case.case_id, fused=fused, binarized=binarized, hit=hit)


# ---------------------------------------------------------------------------
# Fold running


@dataclass(frozen=True)
class FoldResult:
    split: FoldSplit
    calibration: Calibration
    case_scores: tuple[tuple[str, float, str], ...]  # (case_id, patient score, label)

    @property
    def pairs(self) -> list[tuple[float, str]]:
        return [(score, label) for _, score, label in self.case_scores]


def run_fold(
    cases: Mapping[str, LoadedCase],
    split: FoldSplit,
    cfg: RunConfig,
    cache: FeatureCache,
    jobs: int = 1,
) -> FoldResult:
    """Train banks, calibrate, and score one fold's balanced test set.

    Features go through ``cache``, so cases shared with other folds of the
    same config are projected and extracted once.
    """

    def featurize(case: LoadedCase) -> CaseFeatures:
        return cache.features_for(case, cfg)

    train_feats = parallel_map(featurize, [cases[cid] for cid in split.train], jobs)
    banks = build_banks(train_feats, cfg)
    cal_feats = parallel_map(featurize, [cases[cid] for cid in split.calibration], jobs)
    cal = calibrate_from_cases(cal_feats, banks, cfg, jobs)

    test_ids = list(split.test)

    def score_one(item: tuple[str, str]) -> tuple[str, float, str]:
        case_id, label = item
        feats = featurize(cases[case_id])
        score = patient_score(raw_scores(feats, banks, cfg), cal, cfg.ptypes)
        return case_id, score, label

    scored = parallel_map(score_one, test_ids, jobs)
    return FoldResult(split=split, calibration=cal, case_scores=tuple(scored))


def monte_carlo_run(
    cases: Mapping[str, LoadedCase],
    cfg: RunConfig,
    folds: int = 5,
    jobs: int = 1,
) -> dict:
    """Seeded multi-fold evaluation over a loaded corpus; mean +/- std metrics.

    Each case is featurized at most once: one feature memo serves every fold.
    """
    normal_ids = sorted(cid for cid, c in cases.items() if c.label == "normal")
    abnormal_ids = sorted(cid for cid, c in cases.items() if c.label == "abnormal")
    splits = monte_carlo_splits(normal_ids, abnormal_ids, folds=folds, seed=cfg.seed)
    cache = FeatureCache()
    per_fold = []
    for split in splits:
        result = run_fold(cases, split, cfg, cache, jobs=jobs)
        per_fold.append(fold_metrics(result.pairs))
    return summarize_folds(per_fold)
