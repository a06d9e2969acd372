"""Patient-level scoring, ROC/AUC, confusion metrics, Monte Carlo harness.

AUC comes from a descending threshold sweep with tied scores grouped into
one step. The trapezoid areas are accumulated as exact integers and divided
once at the end, so the result is bit-identical to the pair-counting
definition (wins + half-ties over normal x abnormal pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .projection import ALL_PROJECTIONS, ProjectionType
from .reconstruction import percentile_nearest_rank

LABEL_NORMAL = "normal"
LABEL_ABNORMAL = "abnormal"

CALIBRATION_PERCENTILE = 99.0
DEFAULT_FOLDS = 5
CAL_FRAC = 0.2

METRIC_NAMES = ("auc", "accuracy", "sensitivity", "specificity", "precision", "f1", "threshold")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise InvalidArgumentError(f"{name} must be a non-negative int, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep results: thresholds descending, (FPR, TPR) per step.

    The first point is (0, 0) at threshold +inf; the last is (1, 1) at the
    lowest observed score. Positive means score >= threshold.
    """

    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    auc: float

    def __post_init__(self):
        if len(self.thresholds) != len(self.points) or len(self.points) < 2:
            raise InvalidArgumentError("ROC curve needs matching thresholds/points, >= 2 entries")
        if self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise InvalidArgumentError("ROC curve must start at (0,0) and end at (1,1)")
        for (f0, t0), (f1, t1) in zip(self.points, self.points[1:]):
            if f1 < f0 or t1 < t0:
                raise InvalidArgumentError("ROC points must be non-decreasing")
        if not 0.0 <= self.auc <= 1.0:
            raise InvalidArgumentError(f"auc must be in [0,1], got {self.auc}")


@dataclass(frozen=True)
class Calibration:
    """Per-projection (lo, hi) score bounds from held-out normal cases."""

    bounds: Mapping[ProjectionType, tuple[float, float]]

    def __post_init__(self):
        bounds = dict(self.bounds)
        for ptype, (lo, hi) in bounds.items():
            if not isinstance(ptype, ProjectionType):
                raise InvalidArgumentError(f"calibration key must be a ProjectionType, got {ptype!r}")
            if not lo <= hi:
                raise InvalidArgumentError(f"{ptype.value}: calibration lo {lo} > hi {hi}")
        object.__setattr__(self, "bounds", bounds)

    def scale(self, ptype: ProjectionType, score: float) -> float:
        if ptype not in self.bounds:
            raise InvalidArgumentError(f"no calibration for projection {ptype.value}")
        lo, hi = self.bounds[ptype]
        if hi == lo:
            return 0.0
        return min(max((score - lo) / (hi - lo), 0.0), 1.0)


def calibrate(scores_per_ptype: Mapping[ProjectionType, Sequence[float]]) -> Calibration:
    """Fit per-projection score bounds: lo = min, hi = 99th percentile.

    Needs at least two normal calibration cases per projection.
    """
    bounds = {}
    for ptype, scores in scores_per_ptype.items():
        values = [float(s) for s in scores]
        if len(values) < 2:
            raise InsufficientDataError(
                f"{ptype.value}: calibration needs >= 2 normal cases, got {len(values)}"
            )
        lo = min(values)
        hi = percentile_nearest_rank(np.asarray(values), CALIBRATION_PERCENTILE)
        bounds[ptype] = (lo, hi)
    return Calibration(bounds)


def patient_score(
    scores: Mapping[ProjectionType, float],
    cal: Calibration,
    ptypes: Sequence[ProjectionType] = ALL_PROJECTIONS,
) -> float:
    """Mean of the calibrated per-projection scores, each clamped to [0,1]."""
    if not ptypes:
        raise InvalidArgumentError("patient_score needs at least one projection type")
    scaled = []
    for ptype in ptypes:
        if ptype not in scores:
            raise InvalidArgumentError(f"missing projection score for {ptype.value}")
        scaled.append(cal.scale(ptype, float(scores[ptype])))
    return sum(scaled) / len(scaled)


# ---------------------------------------------------------------------------
# ROC / AUC


def _split_by_label(pairs: Iterable[tuple[float, str]]) -> tuple[list[float], list[float]]:
    normal, abnormal = [], []
    for score, label in pairs:
        if label == LABEL_NORMAL:
            normal.append(float(score))
        elif label == LABEL_ABNORMAL:
            abnormal.append(float(score))
        else:
            raise InvalidArgumentError(f"unknown label {label!r}")
    return normal, abnormal


def roc_auc(pairs: Iterable[tuple[float, str]]) -> RocCurve:
    """Build the ROC curve and its exact trapezoidal AUC.

    Equal scores collapse into a single sweep step, which makes the
    trapezoidal area equal to the tie-aware pair-counting AUC.
    """
    normal, abnormal = _split_by_label(pairs)
    n, p = len(normal), len(abnormal)
    if n == 0 or p == 0:
        raise InsufficientDataError("ROC needs both normal and abnormal scores")
    counts: dict[float, list[int]] = {}
    for s in abnormal:
        counts.setdefault(s, [0, 0])[0] += 1
    for s in normal:
        counts.setdefault(s, [0, 0])[1] += 1
    thresholds = [math.inf]
    points = [(0.0, 0.0)]
    tp = fp = 0
    area2 = 0  # twice the area, in units of 1/(N*P): sum of dFP*(2*TP + dTP)
    for score in sorted(counts, reverse=True):
        d_tp, d_fp = counts[score]
        area2 += d_fp * (2 * tp + d_tp)
        tp += d_tp
        fp += d_fp
        thresholds.append(score)
        points.append((fp / n, tp / p))
    return RocCurve(
        thresholds=tuple(thresholds),
        points=tuple(points),
        auc=area2 / (2 * n * p),
    )


def operating_point(roc: RocCurve) -> float:
    """Threshold of the curve point closest to (FPR 0, TPR 1); ties take the higher threshold."""
    best_thr = roc.thresholds[0]
    best_d2 = math.inf
    for thr, (fpr, tpr) in zip(roc.thresholds, roc.points):
        d2 = fpr * fpr + (1.0 - tpr) * (1.0 - tpr)
        if d2 < best_d2:  # strict: descending sweep keeps the higher threshold on ties
            best_d2 = d2
            best_thr = thr
    return best_thr


def counts_at_threshold(pairs: Iterable[tuple[float, str]], threshold: float) -> ConfusionCounts:
    """Confusion counts with `score >= threshold` flagged abnormal."""
    tp = tn = fp = fn = 0
    for score, label in pairs:
        positive = float(score) >= threshold
        if label == LABEL_ABNORMAL:
            tp, fn = (tp + 1, fn) if positive else (tp, fn + 1)
        elif label == LABEL_NORMAL:
            fp, tn = (fp + 1, tn) if positive else (fp, tn + 1)
        else:
            raise InvalidArgumentError(f"unknown label {label!r}")
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def confusion_metrics(c: ConfusionCounts) -> dict[str, float | None]:
    """Accuracy, sensitivity, specificity, precision, F1; None when undefined."""
    accuracy = (c.tp + c.tn) / c.total if c.total > 0 else None
    sensitivity = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    specificity = c.tn / (c.tn + c.fp) if c.tn + c.fp > 0 else None
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    if precision is None or sensitivity is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return {
        "accuracy": accuracy,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "precision": precision,
        "f1": f1,
    }


# ---------------------------------------------------------------------------
# Monte Carlo splits


@dataclass(frozen=True)
class FoldSplit:
    """One seeded train/calibration/test partition; test is label-balanced."""

    fold: int
    train: tuple[str, ...]
    calibration: tuple[str, ...]
    test_normal: tuple[str, ...]
    test_abnormal: tuple[str, ...]

    def __post_init__(self):
        groups = (self.train, self.calibration, self.test_normal, self.test_abnormal)
        seen: set[str] = set()
        for group in groups:
            for case_id in group:
                if case_id in seen:
                    raise InvalidArgumentError(f"case {case_id} appears in two split groups")
                seen.add(case_id)
        if len(self.test_normal) != len(self.test_abnormal):
            raise InvalidArgumentError("test set must be balanced between labels")

    @property
    def test(self) -> tuple[tuple[str, str], ...]:
        normal = tuple((cid, LABEL_NORMAL) for cid in self.test_normal)
        abnormal = tuple((cid, LABEL_ABNORMAL) for cid in self.test_abnormal)
        return normal + abnormal


def monte_carlo_splits(
    normal_ids: Sequence[str],
    abnormal_ids: Sequence[str],
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> list[FoldSplit]:
    """Seeded random splits: normals into train/calibration/test, balanced test.

    Per fold the test takes min(#abnormal, #normal // 2) cases of each label;
    of the remaining normals, CAL_FRAC (at least 2 cases) calibrate and the
    rest train the banks. Fold f draws from default_rng([seed, f]) so folds
    are independent of each other and of how many folds run.
    """
    normals = list(normal_ids)
    abnormals = list(abnormal_ids)
    if folds < 1:
        raise InvalidArgumentError(f"folds must be >= 1, got {folds}")
    n_test = min(len(abnormals), len(normals) // 2)
    if n_test < 1:
        raise InsufficientDataError(
            f"cannot form a balanced test set from {len(normals)} normal / "
            f"{len(abnormals)} abnormal cases"
        )
    n_rest = len(normals) - n_test
    n_cal = max(2, int(round(CAL_FRAC * n_rest)))
    n_train = n_rest - n_cal
    if n_train < 1:
        raise InsufficientDataError(
            f"{len(normals)} normal cases leave no training cases after "
            f"{n_test} test + {n_cal} calibration"
        )
    splits = []
    for fold in range(folds):
        rng = np.random.default_rng([seed, fold])
        norm_perm = [normals[i] for i in rng.permutation(len(normals))]
        abn_perm = [abnormals[i] for i in rng.permutation(len(abnormals))]
        splits.append(
            FoldSplit(
                fold=fold,
                train=tuple(norm_perm[:n_train]),
                calibration=tuple(norm_perm[n_train : n_train + n_cal]),
                test_normal=tuple(norm_perm[n_train + n_cal : n_train + n_cal + n_test]),
                test_abnormal=tuple(abn_perm[:n_test]),
            )
        )
    return splits


def fold_metrics(pairs: Sequence[tuple[float, str]]) -> dict[str, float | None]:
    """AUC, operating-point threshold, and confusion metrics for one fold."""
    roc = roc_auc(pairs)
    threshold = operating_point(roc)
    metrics = confusion_metrics(counts_at_threshold(pairs, threshold))
    return {"auc": roc.auc, "threshold": threshold, **metrics}


def summarize_folds(per_fold: Sequence[Mapping[str, float | None]]) -> dict:
    """Mean and population std per metric across folds.

    A missing (None) or non-finite value, such as the infinite threshold of a
    fold whose scores all tie, is skipped; a metric with no value left is None."""
    if not per_fold:
        raise InvalidArgumentError("no folds to summarize")
    summary: dict = {}
    stds: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [m[name] for m in per_fold if m.get(name) is not None and math.isfinite(m[name])]
        if values:
            summary[name] = float(np.mean(values))
            stds[name] = float(np.std(values))
        else:
            summary[name] = None
            stds[name] = None
    summary["std"] = stds
    summary["folds"] = [dict(m) for m in per_fold]
    return summary
