"""End-to-end orchestration tests on a small generated corpus.

These exercise the plumbing (config handling, caching, fold running) at a
reduced canvas so the whole module runs in seconds; statistical quality at
full scale lives in the acceptance suite.
"""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvpad
from mvpad import (
    ExtractorConfig,
    FeatureCache,
    MemoryBank,
    PROJECTION_SETS,
    ProjectionType,
    RunConfig,
    build_banks,
    calibrate_from_cases,
    compute_case_features,
    generate_dataset,
    load_manifest_cases,
    localize_case,
    monte_carlo_run,
    monte_carlo_splits,
    patient_score,
    raw_scores,
)
from mvpad.errors import InsufficientDataError, InvalidArgumentError
from mvpad.evaluation import Calibration, FoldSplit, calibrate
from mvpad.memory_bank import coreset_size
from mvpad.pipeline import LocalizationResult, case_anomaly_maps, parallel_map, run_fold
from mvpad.projection import ALL_PROJECTIONS
from mvpad.reconstruction import STAGE_FINAL

SMALL_DIMS = (32, 48, 48)
CANVAS = (64, 64)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_dataset(
        7, 2, seed=404, out_dir=out, dims=SMALL_DIMS, vessel_count=6,
        radius_range=(2.0, 3.0),
    )
    cases, records = load_manifest_cases(manifest)
    return cases, records


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(canvas=CANVAS, seed=11)


@pytest.fixture(scope="module")
def normal_ids(corpus):
    cases, records = corpus
    return [r.case_id for r in records if r.label == "normal"]


@pytest.fixture(scope="module")
def abnormal_ids(corpus):
    cases, records = corpus
    return [r.case_id for r in records if r.label == "abnormal"]


@pytest.fixture(scope="module")
def trained(corpus, cfg, normal_ids):
    """Banks from the first five normals plus the features they came from."""
    cases, _ = corpus
    feats = {cid: compute_case_features(cases[cid], cfg) for cid in cases}
    banks = build_banks([feats[c] for c in normal_ids[:5]], cfg)
    return feats, banks


class TestRunConfig:
    def test_default_ptypes_canonical_order(self):
        assert RunConfig().ptypes == ALL_PROJECTIONS

    def test_named_projection_subsets(self):
        assert len(PROJECTION_SETS["coronal-only"]) == 2
        assert len(PROJECTION_SETS["coronal+axial"]) == 4
        cfg = RunConfig(projection_set="coronal-only")
        assert [p.value for p in cfg.ptypes] == ["right_coronal", "left_coronal"]

    def test_dict_round_trip(self, cfg):
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_accepts_partial(self):
        cfg = RunConfig.from_dict({"method": "aip", "canvas": [64, 64]})
        assert cfg.method == "aip"
        assert cfg.canvas == (64, 64)
        assert cfg.q == RunConfig().q

    def test_from_dict_unknown_key(self):
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict({"qq": 50.0})

    def test_from_dict_non_object(self):
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict([1, 2])

    def test_from_json_round_trip(self, tmp_path, cfg):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_json(path) == cfg

    def test_from_json_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_json(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hu_lo": 0, "hu_hi": 0},
            {"method": "mean"},
            {"projection_set": "sagittal-only"},
            {"canvas": (8, 8)},
            {"coreset_frac": 0.0},
            {"coreset_frac": 1.5},
            {"q": 100.0},
            {"smoothing_sigma": -1.0},
            {"localization_pct": 100.0},
            {"seed": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            RunConfig(**kwargs)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(lambda x: x * x, items, jobs=4) == [x * x for x in items]

    def test_jobs_equivalence(self):
        items = [np.float64(k) / 7 for k in range(15)]
        assert parallel_map(np.sin, items, jobs=1) == parallel_map(np.sin, items, jobs=3)

    def test_empty(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []


class TestCaseLoading:
    def test_loads_all_records(self, corpus):
        cases, records = corpus
        assert set(cases) == {r.case_id for r in records}
        assert len(records) == 9

    def test_case_contents(self, corpus, normal_ids, abnormal_ids):
        cases, _ = corpus
        normal = cases[normal_ids[0]]
        assert normal.ct.voxels.shape == SMALL_DIMS
        assert normal.gt is None
        assert normal.lungs.mask("right").voxels.any()
        assert normal.lungs.mask("left").voxels.any()
        abnormal = cases[abnormal_ids[0]]
        assert abnormal.gt is not None
        assert abnormal.gt.voxels.any()


class TestComputeCaseFeatures:
    def test_covers_configured_projections(self, corpus, cfg, normal_ids):
        cases, _ = corpus
        feats = compute_case_features(cases[normal_ids[0]], cfg)
        assert tuple(feats.grids) == cfg.ptypes
        assert tuple(feats.masks) == cfg.ptypes
        for ptype in cfg.ptypes:
            assert feats.grids[ptype].ptype is ptype
            assert feats.masks[ptype].ptype is ptype
            gh = (CANVAS[0] - cfg.extractor.patch_size) // cfg.extractor.stride + 1
            assert feats.grids[ptype].features.shape == (gh, gh, 20)

    def test_hu_window_changes_features(self, corpus, cfg, normal_ids):
        cases, _ = corpus
        base = compute_case_features(cases[normal_ids[0]], cfg)
        wide = compute_case_features(cases[normal_ids[0]], replace(cfg, hu_lo=-1000, hu_hi=200))
        assert any(
            not np.array_equal(base.grids[p].features, wide.grids[p].features) for p in cfg.ptypes
        )


class TestFeatureCache:
    def test_reuses_grid_objects(self, corpus, cfg, normal_ids):
        cases, _ = corpus
        cache = FeatureCache()
        first = cache.features_for(cases[normal_ids[0]], cfg)
        second = cache.features_for(cases[normal_ids[0]], cfg)
        for ptype in cfg.ptypes:
            assert second.grids[ptype] is first.grids[ptype]
            assert second.masks[ptype] is first.masks[ptype]

    def test_config_changes_miss(self, corpus, cfg, normal_ids):
        # a different projection method must not hit the mip entries
        cases, _ = corpus
        cache = FeatureCache()
        mip = cache.features_for(cases[normal_ids[0]], cfg)
        aip = cache.features_for(cases[normal_ids[0]], replace(cfg, method="aip"))
        ptype = ProjectionType.RIGHT_CORONAL
        assert aip.grids[ptype] is not mip.grids[ptype]
        assert not np.array_equal(aip.grids[ptype].features, mip.grids[ptype].features)

    def test_concurrent_requests_share_one_entry(self, corpus, cfg, normal_ids):
        # more threads than cores, all racing for the same two missing entries
        cases, _ = corpus
        cache = FeatureCache()
        wanted = [cases[cid] for cid in normal_ids[:2]] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = parallel_map(lambda case: cache.features_for(case, cfg), wanted, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        for case, feats in zip(wanted, got):
            assert feats is cache.features_for(case, cfg)

    def test_matches_uncached(self, corpus, cfg, normal_ids):
        cases, _ = corpus
        cache = FeatureCache()
        cached = cache.features_for(cases[normal_ids[1]], cfg)
        direct = compute_case_features(cases[normal_ids[1]], cfg)
        for ptype in cfg.ptypes:
            np.testing.assert_array_equal(
                cached.grids[ptype].features, direct.grids[ptype].features
            )


class TestBuildBanks:
    def test_one_bank_per_projection(self, corpus, cfg, trained):
        feats, banks = trained
        assert tuple(banks) == cfg.ptypes
        gh = (CANVAS[0] - cfg.extractor.patch_size) // cfg.extractor.stride + 1
        source = 5 * gh * gh
        for ptype, bank in banks.items():
            assert isinstance(bank, MemoryBank)
            assert bank.ptype is ptype
            assert bank.feature_dim == 20
            assert bank.source_count == source
            assert bank.count == coreset_size(source, cfg.coreset_frac)

    def test_respects_projection_subset(self, corpus, normal_ids):
        cases, _ = corpus
        sub = RunConfig(canvas=CANVAS, projection_set="coronal-only")
        feats = [compute_case_features(cases[c], sub) for c in normal_ids[:2]]
        banks = build_banks(feats, sub)
        assert set(banks) == {ProjectionType.RIGHT_CORONAL, ProjectionType.LEFT_CORONAL}

    def test_rejects_empty_training_set(self, cfg):
        with pytest.raises(InvalidArgumentError):
            build_banks([], cfg)


class TestScoring:
    def test_raw_scores_keys_and_range(self, cfg, trained, abnormal_ids):
        feats, banks = trained
        scores = raw_scores(feats[abnormal_ids[0]], banks, cfg)
        assert tuple(scores) == cfg.ptypes
        for value in scores.values():
            assert np.isfinite(value) and value >= 0.0

    def test_training_case_scores_zero_without_coreset(self, corpus, normal_ids):
        # every training location sits in the bank, so its nn distance is 0
        cases, _ = corpus
        full = RunConfig(canvas=CANVAS, projection_set="coronal-only", coreset_frac=1.0)
        feats = [compute_case_features(cases[c], full) for c in normal_ids[:2]]
        banks = build_banks(feats, full)
        for scored in feats:
            assert set(raw_scores(scored, banks, full).values()) == {0.0}

    def test_missing_bank_rejected(self, cfg, trained, normal_ids):
        feats, banks = trained
        partial = {p: b for p, b in banks.items() if p is not ProjectionType.LEFT_SAGITTAL}
        with pytest.raises(InvalidArgumentError):
            case_anomaly_maps(feats[normal_ids[0]], partial, cfg)

    def test_calibrate_from_cases_matches_manual(self, cfg, trained, normal_ids):
        feats, banks = trained
        cal_feats = [feats[c] for c in normal_ids[5:7]]
        cal = calibrate_from_cases(cal_feats, banks, cfg)
        per_ptype = {
            ptype: [raw_scores(f, banks, cfg)[ptype] for f in cal_feats]
            for ptype in cfg.ptypes
        }
        assert cal.bounds == calibrate(per_ptype).bounds
        threaded = calibrate_from_cases(cal_feats, banks, cfg, jobs=2)
        assert threaded.bounds == cal.bounds

    def test_patient_score_uses_calibration(self, cfg, trained, normal_ids, abnormal_ids):
        feats, banks = trained
        cal = calibrate_from_cases([feats[c] for c in normal_ids[5:7]], banks, cfg)
        score = patient_score(raw_scores(feats[abnormal_ids[0]], banks, cfg), cal, cfg.ptypes)
        assert 0.0 <= score <= 1.0


class TestLocalizeCase:
    def test_abnormal_case(self, corpus, cfg, trained, abnormal_ids):
        cases, _ = corpus
        feats, banks = trained
        case = cases[abnormal_ids[0]]
        res = localize_case(case, feats[case.case_id], banks, cfg)
        assert isinstance(res, LocalizationResult)
        assert res.fused.stage == STAGE_FINAL
        assert res.binarized.dtype == bool
        assert res.binarized.shape == SMALL_DIMS
        union = (case.lungs.mask("right").voxels > 0) | (case.lungs.mask("left").voxels > 0)
        assert res.binarized.any()
        assert not (res.binarized & ~union).any()
        assert res.hit in (True, False)

    def test_normal_case_has_no_hit_flag(self, corpus, cfg, trained, normal_ids):
        cases, _ = corpus
        feats, banks = trained
        case = cases[normal_ids[6]]
        res = localize_case(case, feats[case.case_id], banks, cfg)
        assert res.hit is None

    def test_precomputed_maps_identical(self, corpus, cfg, trained, abnormal_ids):
        cases, _ = corpus
        feats, banks = trained
        case = cases[abnormal_ids[1]]
        maps = case_anomaly_maps(feats[case.case_id], banks, cfg)
        direct = localize_case(case, feats[case.case_id], banks, cfg)
        reused = localize_case(case, feats[case.case_id], banks, cfg, maps=maps)
        np.testing.assert_array_equal(direct.fused.values, reused.fused.values)
        np.testing.assert_array_equal(direct.binarized, reused.binarized)

    def test_requires_all_three_planes(self, corpus, trained, abnormal_ids):
        cases, _ = corpus
        feats, banks = trained
        sub = RunConfig(canvas=CANVAS, projection_set="coronal-only")
        case = cases[abnormal_ids[0]]
        with pytest.raises(InvalidArgumentError):
            localize_case(case, feats[case.case_id], banks, sub)

    def test_requires_segmentation(self, corpus, cfg, trained, abnormal_ids):
        cases, _ = corpus
        feats, banks = trained
        case = cases[abnormal_ids[0]]
        with pytest.raises(InvalidArgumentError):
            localize_case(case, feats[case.case_id], banks, replace(cfg, unsegmented=True))


@pytest.fixture(scope="module")
def split(normal_ids, abnormal_ids):
    return FoldSplit(
        fold=0,
        train=tuple(normal_ids[:4]),
        calibration=tuple(normal_ids[4:6]),
        test_normal=(normal_ids[6],),
        test_abnormal=(abnormal_ids[0],),
    )


class TestRunFold:
    def test_fold_result_shape(self, corpus, cfg, split):
        cases, _ = corpus
        result = run_fold(cases, split, cfg, FeatureCache())
        assert isinstance(result.calibration, Calibration)
        assert len(result.case_scores) == 2
        ids = [cid for cid, _, _ in result.case_scores]
        assert ids == [split.test_normal[0], split.test_abnormal[0]]
        for _, score, label in result.case_scores:
            assert 0.0 <= score <= 1.0
            assert label in ("normal", "abnormal")
        assert result.pairs == [(s, l) for _, s, l in result.case_scores]

    def test_jobs_do_not_change_scores(self, corpus, cfg, split):
        cases, _ = corpus
        serial = run_fold(cases, split, cfg, FeatureCache(), jobs=1)
        threaded = run_fold(cases, split, cfg, FeatureCache(), jobs=3)
        assert serial.case_scores == threaded.case_scores
        assert serial.calibration.bounds == threaded.calibration.bounds

    def test_shared_cache_changes_nothing(self, corpus, cfg, split):
        cases, _ = corpus
        cache = FeatureCache()
        first = run_fold(cases, split, cfg, cache)
        second = run_fold(cases, split, cfg, cache)
        fresh = run_fold(cases, split, cfg, FeatureCache())
        assert first.case_scores == second.case_scores == fresh.case_scores


class TestMonteCarloRun:
    def test_summary_shape_and_determinism(self, corpus, cfg):
        cases, _ = corpus
        summary = monte_carlo_run(cases, cfg, folds=2)
        assert len(summary["folds"]) == 2
        assert 0.0 <= summary["auc"] <= 1.0
        assert set(summary["std"]) == set(summary) - {"std", "folds"}
        again = monte_carlo_run(cases, cfg, folds=2)
        assert summary == again

    def test_uses_seeded_splits(self, corpus, cfg, normal_ids, abnormal_ids):
        # fold composition must match the standalone split generator
        cases, _ = corpus
        splits = monte_carlo_splits(
            sorted(normal_ids), sorted(abnormal_ids), folds=1, seed=cfg.seed
        )
        result = run_fold(cases, splits[0], cfg, FeatureCache())
        summary = monte_carlo_run(cases, cfg, folds=1)
        assert summary["folds"][0]["auc"] == pytest.approx(
            fold_auc_of(result.pairs), abs=0.0
        )

    def test_featurizes_each_case_at_most_once(self, corpus, cfg, monkeypatch):
        cases, _ = corpus
        calls = []
        original = mvpad.pipeline.compute_case_features

        def counting(case, run_cfg):
            calls.append(case.case_id)
            return original(case, run_cfg)

        monkeypatch.setattr(mvpad.pipeline, "compute_case_features", counting)
        monte_carlo_run(cases, cfg, folds=3)
        assert calls
        assert len(calls) == len(set(calls))

    def test_insufficient_corpus(self, corpus, cfg, normal_ids):
        cases, _ = corpus
        only_normals = {cid: cases[cid] for cid in normal_ids}
        with pytest.raises(InsufficientDataError):
            monte_carlo_run(only_normals, cfg, folds=1)


# Builds coronal banks from the normals of a manifest, scores its first
# abnormal case, and prints one hash of the bank bytes and the map bytes.
BANK_AND_SCORE = """
import hashlib, sys
from mvpad import RunConfig, build_banks, compute_case_features, load_manifest_cases
from mvpad.pipeline import case_anomaly_maps

cases, records = load_manifest_cases(sys.argv[1])
cfg = RunConfig(canvas=(64, 64), projection_set="coronal-only")
feats = {r.case_id: compute_case_features(cases[r.case_id], cfg) for r in records}
banks = build_banks([feats[r.case_id] for r in records if r.label == "normal"], cfg)
test = next(feats[r.case_id] for r in records if r.label == "abnormal")
maps = case_anomaly_maps(test, banks, cfg)
digest = hashlib.sha256()
for ptype in cfg.ptypes:
    digest.update(banks[ptype].entries.tobytes())
    digest.update(maps[ptype].pixels.tobytes())
print(banks[cfg.ptypes[0]].count, digest.hexdigest())
"""


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    """Four normals give 784 bank rows per projection, enough for OpenBLAS to
    split the coreset's matrix-vector products across threads by default."""
    manifest = generate_dataset(
        4, 1, seed=405, out_dir=tmp_path, dims=SMALL_DIMS, vessel_count=6, radius_range=(2.0, 3.0)
    )
    src = str(Path(mvpad.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        proc = subprocess.run(
            [sys.executable, "-c", BANK_AND_SCORE, str(manifest)],
            env={**base, **threads}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].split()[0] == str(coreset_size(4 * 14 * 14, RunConfig().coreset_frac))
    assert outputs[0] == outputs[1]


def fold_auc_of(pairs):
    from mvpad import roc_auc

    return roc_auc(pairs).auc


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def imported_from_mvpad(path: Path) -> set[str]:
    """Names a script imports with ``from mvpad import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mvpad" and node.level == 0
        for alias in node.names
    }


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    # parse only: a name dropped from mvpad's exports must fail here, not in a demo run
    names = imported_from_mvpad(demo)
    assert names
    assert sorted(name for name in names if not hasattr(mvpad, name)) == []


def test_top_level_exports_are_what_the_gates_and_demos_import():
    # the release gates and the demos use the top level; other callers import submodules
    used = imported_from_mvpad(Path(__file__).with_name("test_acceptance.py"))
    for demo in DEMOS.glob("*.py"):
        used |= imported_from_mvpad(demo)
    exported = {
        name for name, value in vars(mvpad).items()
        if not name.startswith("_") and not isinstance(value, type(mvpad))
    }
    assert exported == used
    assert len(exported) == 42


def test_every_public_function_in_src_has_a_caller_in_src():
    # a definition that only tests call belongs in the tests; the 42 top-level
    # exports count as called through the imports in mvpad/__init__
    defined, referenced = {}, set()
    for path in sorted(Path(mvpad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(f"{module}:{name}" for name, module in defined.items() if name not in referenced) == []
