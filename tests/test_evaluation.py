"""Calibration, patient scores, exact AUC, confusion metrics, Monte Carlo splits."""

import math

import numpy as np
import pytest

from mvpad import (
    ConfusionCounts,
    ProjectionType,
    confusion_metrics,
    monte_carlo_splits,
    patient_score,
    roc_auc,
)
from mvpad.errors import InsufficientDataError, InvalidArgumentError
from mvpad.evaluation import (
    Calibration,
    FoldSplit,
    RocCurve,
    calibrate,
    counts_at_threshold,
    fold_metrics,
    operating_point,
    summarize_folds,
)
from mvpad.projection import ALL_PROJECTIONS

PT = ProjectionType.RIGHT_AXIAL


class TestCalibration:
    def test_one_to_hundred_bounds(self):
        scores = {PT: [float(v) for v in range(1, 101)]}
        cal = calibrate(scores)
        assert cal.bounds[PT] == (1.0, 99.0)

    def test_bounds_invariant_to_order(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        a = calibrate({PT: values})
        b = calibrate({PT: sorted(values, reverse=True)})
        assert a.bounds == b.bounds

    def test_fewer_than_two_cases_rejected(self):
        with pytest.raises(InsufficientDataError):
            calibrate({PT: [1.0]})

    def test_scale_clamps_into_unit_interval(self):
        cal = Calibration({PT: (2.0, 4.0)})
        assert cal.scale(PT, 1.0) == 0.0
        assert cal.scale(PT, 3.0) == 0.5
        assert cal.scale(PT, 9.0) == 1.0

    def test_degenerate_bounds_scale_to_zero(self):
        cal = Calibration({PT: (2.0, 2.0)})
        assert cal.scale(PT, 5.0) == 0.0

    def test_unknown_projection_rejected(self):
        cal = Calibration({PT: (0.0, 1.0)})
        with pytest.raises(InvalidArgumentError):
            cal.scale(ProjectionType.LEFT_AXIAL, 0.5)


class TestPatientScore:
    def test_mean_of_scaled_projections(self):
        cal = Calibration({ptype: (0.0, 1.0) for ptype in ALL_PROJECTIONS})
        scores = {ptype: 0.0 for ptype in ALL_PROJECTIONS[:3]}
        scores.update({ptype: 1.0 for ptype in ALL_PROJECTIONS[3:]})
        assert patient_score(scores, cal) == 0.5

    def test_subset_of_projections(self):
        cal = Calibration({ptype: (0.0, 2.0) for ptype in ALL_PROJECTIONS})
        scores = {PT: 1.0}
        assert patient_score(scores, cal, ptypes=(PT,)) == 0.5

    def test_missing_projection_rejected(self):
        cal = Calibration({ptype: (0.0, 1.0) for ptype in ALL_PROJECTIONS})
        with pytest.raises(InvalidArgumentError):
            patient_score({PT: 1.0}, cal)


class TestRocAuc:
    def test_frozen_three_quarters(self):
        pairs = [(0.2, "normal"), (0.6, "normal"), (0.4, "abnormal"), (0.8, "abnormal")]
        roc = roc_auc(pairs)
        assert roc.auc == 0.75

    def test_perfect_and_inverted_separation(self):
        perfect = [(0.1, "normal"), (0.2, "normal"), (0.8, "abnormal"), (0.9, "abnormal")]
        assert roc_auc(perfect).auc == 1.0
        inverted = [(s, "abnormal" if l == "normal" else "normal") for s, l in perfect]
        assert roc_auc(inverted).auc == 0.0

    def test_all_tied_scores_give_half(self):
        pairs = [(0.5, "normal")] * 3 + [(0.5, "abnormal")] * 4
        assert roc_auc(pairs).auc == 0.5

    def test_curve_endpoints_and_threshold_order(self):
        pairs = [(0.1, "normal"), (0.5, "abnormal"), (0.5, "normal"), (0.9, "abnormal")]
        roc = roc_auc(pairs)
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)
        assert roc.thresholds[0] == math.inf
        assert list(roc.thresholds[1:]) == sorted(roc.thresholds[1:], reverse=True)

    def test_matches_pair_counting_oracle_bitwise(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            p = int(rng.integers(1, 12))
            # quantized scores so ties actually happen
            normal = (rng.integers(0, 8, size=n) / 8.0).tolist()
            abnormal = (rng.integers(0, 8, size=p) / 8.0).tolist()
            pairs = [(s, "normal") for s in normal] + [(s, "abnormal") for s in abnormal]
            wins = ties = 0
            for a in abnormal:
                for b in normal:
                    if a > b:
                        wins += 1
                    elif a == b:
                        ties += 1
            assert roc_auc(pairs).auc == (2 * wins + ties) / (2 * n * p)

    def test_invariant_to_affine_score_transform(self):
        rng = np.random.default_rng(92)
        scores = rng.integers(0, 16, size=20) / 16.0
        labels = ["normal"] * 10 + ["abnormal"] * 10
        base = roc_auc(list(zip(scores.tolist(), labels)))
        moved = roc_auc([(2.0 * s + 1.0, l) for s, l in zip(scores.tolist(), labels)])
        assert base.auc == moved.auc

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientDataError):
            roc_auc([(0.5, "normal"), (0.7, "normal")])

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            roc_auc([(0.5, "healthy"), (0.7, "abnormal")])

    def test_curve_type_validation(self):
        with pytest.raises(InvalidArgumentError):
            RocCurve(thresholds=(math.inf, 0.5), points=((0.1, 0.0), (1.0, 1.0)), auc=0.5)
        with pytest.raises(InvalidArgumentError):
            RocCurve(thresholds=(math.inf, 0.5), points=((0.0, 0.0), (1.0, 1.0)), auc=1.5)


class TestOperatingPoint:
    def test_picks_corner_closest_point(self):
        pairs = [(0.1, "normal"), (0.2, "normal"), (0.7, "abnormal"), (0.9, "abnormal")]
        thr = operating_point(roc_auc(pairs))
        # perfect separation: the (0,1) corner itself, reached at score 0.7
        assert thr == 0.7

    def test_tie_takes_higher_threshold(self):
        # both intermediate points sit at distance^2 = 0.25 from (0,1)
        roc = RocCurve(
            thresholds=(math.inf, 0.8, 0.4, 0.1),
            points=((0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0)),
            auc=0.75,
        )
        assert operating_point(roc) == 0.8

    def test_beats_every_other_curve_point(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            scores = rng.random(14).tolist()
            labels = ["normal"] * 7 + ["abnormal"] * 7
            roc = roc_auc(list(zip(scores, labels)))
            thr = operating_point(roc)
            best = min(f * f + (1 - t) * (1 - t) for f, t in roc.points)
            chosen = [f * f + (1 - t) * (1 - t) for th, (f, t) in zip(roc.thresholds, roc.points) if th == thr]
            assert min(chosen) == best


class TestConfusion:
    def test_frozen_example(self):
        m = confusion_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
        assert abs(m["accuracy"] - 0.7) < 1e-12
        assert abs(m["sensitivity"] - 0.6) < 1e-12
        assert abs(m["specificity"] - 0.8) < 1e-12
        assert abs(m["precision"] - 0.75) < 1e-12
        assert abs(m["f1"] - 2.0 / 3.0) < 1e-12

    def test_undefined_metrics_are_none(self):
        m = confusion_metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
        assert m["sensitivity"] is None
        assert m["precision"] is None
        assert m["f1"] is None
        assert m["specificity"] == 1.0

    def test_f1_identity_on_fuzzed_counts(self):
        rng = np.random.default_rng(94)
        for _ in range(50):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
            m = confusion_metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            if m["f1"] is not None:
                assert m["f1"] == pytest.approx(2.0 * tp / (2.0 * tp + fp + fn))

    def test_counts_at_threshold_uses_geq(self):
        pairs = [(0.5, "abnormal"), (0.5, "normal"), (0.4, "abnormal")]
        c = counts_at_threshold(pairs, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


class TestMonteCarloSplits:
    def ids(self, n_normal=20, n_abnormal=6):
        return (
            [f"n{i:02d}" for i in range(n_normal)],
            [f"a{i:02d}" for i in range(n_abnormal)],
        )

    def test_groups_are_disjoint_and_test_balanced(self):
        normals, abnormals = self.ids()
        for split in monte_carlo_splits(normals, abnormals, folds=5, seed=3):
            groups = split.train + split.calibration + split.test_normal + split.test_abnormal
            assert len(groups) == len(set(groups))
            assert len(split.test_normal) == len(split.test_abnormal) == 6
            assert len(split.calibration) >= 2
            assert len(split.train) >= 1

    def test_deterministic_per_seed_and_fold(self):
        normals, abnormals = self.ids()
        a = monte_carlo_splits(normals, abnormals, folds=3, seed=7)
        b = monte_carlo_splits(normals, abnormals, folds=3, seed=7)
        assert a == b
        c = monte_carlo_splits(normals, abnormals, folds=3, seed=8)
        assert a != c

    def test_fold_draws_do_not_depend_on_fold_count(self):
        normals, abnormals = self.ids()
        short = monte_carlo_splits(normals, abnormals, folds=2, seed=7)
        long = monte_carlo_splits(normals, abnormals, folds=5, seed=7)
        assert short == long[:2]

    def test_test_size_rule(self):
        normals, abnormals = self.ids(n_normal=21, n_abnormal=50)
        splits = monte_carlo_splits(normals, abnormals, folds=1, seed=0)
        assert len(splits[0].test_normal) == 10  # min(50, 21 // 2)

    def test_insufficient_data_rejected(self):
        with pytest.raises(InsufficientDataError):
            monte_carlo_splits(["n1"], [], folds=1, seed=0)
        with pytest.raises(InsufficientDataError):
            monte_carlo_splits(["n1", "n2", "n3"], ["a1"], folds=1, seed=0)

    def test_duplicate_across_groups_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FoldSplit(fold=0, train=("x",), calibration=("x",), test_normal=(), test_abnormal=())

    def test_test_property_pairs_labels(self):
        split = FoldSplit(fold=0, train=("t",), calibration=("c1", "c2"), test_normal=("n1",), test_abnormal=("a1",))
        assert split.test == (("n1", "normal"), ("a1", "abnormal"))


class TestFoldAggregation:
    def test_fold_metrics_contents(self):
        pairs = [(0.1, "normal"), (0.2, "normal"), (0.7, "abnormal"), (0.9, "abnormal")]
        m = fold_metrics(pairs)
        assert m["auc"] == 1.0
        assert m["accuracy"] == 1.0
        assert m["threshold"] == 0.7

    def test_summarize_means_and_population_std(self):
        folds = [{"auc": 0.8, "accuracy": 1.0}, {"auc": 1.0, "accuracy": None}]
        out = summarize_folds(folds)
        assert out["auc"] == pytest.approx(0.9)
        assert out["std"]["auc"] == pytest.approx(0.1)
        assert out["accuracy"] == 1.0  # None folds are skipped
        assert out["f1"] is None
        assert out["folds"] == folds
