"""Command-line workflow tests: phantom -> bank build -> score -> eval, plus
project/localize/segment-eval, byte-stability across reruns and --jobs, and
the per-error-class exit codes."""

import argparse
import csv
import json
import shlex
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import mvpad.pipeline
from mvpad import ExtractorConfig, RunConfig, load_manifest_cases, load_volume, project_case
from mvpad.cli import build_parser, main
from mvpad.volume import MANIFEST_HEADER, read_manifest

ROOT = Path(__file__).resolve().parent.parent

DIMS = (64, 96, 96)
CANVAS = (64, 64)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_manifest_subset(src_manifest, dst, rows):
    """Copy the header plus the selected data rows into a sibling manifest."""
    lines = src_manifest.read_text().splitlines()
    dst.write_text("\n".join([lines[0]] + [lines[1 + r] for r in rows]) + "\n")
    return dst


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated corpus, split manifests, config file, and built banks."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("phantom", "--normal", 7, "--abnormal", 2, "--seed", 505, "--out", data) == 0
    manifest = data / "manifest.csv"
    assert manifest.is_file()

    # rows 0-6 are the normals, 7-8 the abnormals
    train = write_manifest_subset(manifest, data / "train.csv", range(4))
    cal = write_manifest_subset(manifest, data / "cal.csv", range(4, 6))
    test = write_manifest_subset(manifest, data / "test.csv", [6, 7, 8])
    abnormal = write_manifest_subset(manifest, data / "abnormal.csv", [7, 8])

    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(RunConfig(canvas=CANVAS).to_dict()) + "\n")

    banks = root / "banks"
    assert run("bank", "build", "--manifest", train, "--config", cfg_path, "--out", banks) == 0
    return {
        "root": root,
        "manifest": manifest,
        "train": train,
        "cal": cal,
        "test": test,
        "abnormal": abnormal,
        "config": cfg_path,
        "banks": banks,
    }


@pytest.fixture(scope="module")
def scores_csv(workspace):
    out = workspace["root"] / "scores.csv"
    rc = run(
        "score", "--manifest", workspace["test"], "--banks", workspace["banks"],
        "--cal-manifest", workspace["cal"], "--config", workspace["config"], "--out", out,
    )
    assert rc == 0
    return out


class TestPhantomCommand:
    def test_manifest_lists_all_cases(self, workspace):
        records = read_manifest(workspace["manifest"])
        assert len(records) == 9
        assert [r.label for r in records] == ["normal"] * 7 + ["abnormal"] * 2

    def test_regeneration_is_byte_identical(self, tmp_path):
        args = ("phantom", "--normal", 2, "--abnormal", 0, "--seed", 77, "--dims", "32,48,48")
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        for name in ["manifest.csv", "case_0000_ct.mvol", "case_0000_mask.mvol"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rejects_malformed_dims(self, tmp_path):
        assert run("phantom", "--normal", 1, "--abnormal", 0, "--dims", "32,48",
                   "--out", tmp_path) == 3


class TestBankBuildCommand:
    def test_bank_files_present(self, workspace):
        names = sorted(p.name for p in workspace["banks"].iterdir())
        expected = sorted(
            f"bank_{side}_{plane}.mbnk"
            for side in ("right", "left")
            for plane in ("sagittal", "coronal", "axial")
        )
        assert names == expected + ["extractor.json"]
        meta = json.loads((workspace["banks"] / "extractor.json").read_text())
        assert meta["patch_size"] == 9
        assert ExtractorConfig.from_dict(meta) == RunConfig(canvas=CANVAS).extractor
        assert RunConfig.from_dict({"canvas": list(CANVAS), "extractor": meta}) == RunConfig(canvas=CANVAS)

    def test_projection_subset_builds_fewer_banks(self, workspace, tmp_path):
        cfg = RunConfig(canvas=CANVAS, projection_set="coronal-only")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "banks"
        assert run("bank", "build", "--manifest", workspace["train"],
                   "--config", cfg_path, "--out", out) == 0
        banks = sorted(p.name for p in out.glob("*.mbnk"))
        assert banks == ["bank_left_coronal.mbnk", "bank_right_coronal.mbnk"]

    def test_jobs_do_not_change_bank_bytes(self, workspace, tmp_path):
        out = tmp_path / "banks_j2"
        assert run("bank", "build", "--manifest", workspace["train"],
                   "--config", workspace["config"], "--out", out, "--jobs", 2) == 0
        for path in sorted(workspace["banks"].glob("*.mbnk")):
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_rejects_abnormal_training_case(self, workspace, tmp_path):
        assert run("bank", "build", "--manifest", workspace["test"],
                   "--config", workspace["config"], "--out", tmp_path / "x") == 3


class TestScoreCommand:
    def test_csv_shape(self, workspace, scores_csv):
        with open(scores_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case_id", "score", "label"]
        records = read_manifest(workspace["test"])
        assert [(r[0], r[2]) for r in rows[1:]] == [(rec.case_id, rec.label) for rec in records]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_reruns_and_jobs_are_byte_identical(self, workspace, scores_csv):
        for extra in ([], ["--jobs", "3"]):
            out = workspace["root"] / f"scores_again{len(extra)}.csv"
            rc = run("score", "--manifest", workspace["test"], "--banks", workspace["banks"],
                     "--cal-manifest", workspace["cal"], "--config", workspace["config"],
                     "--out", out, *extra)
            assert rc == 0
            assert out.read_bytes() == scores_csv.read_bytes()

    def test_rejects_abnormal_calibration_case(self, workspace, tmp_path):
        assert run("score", "--manifest", workspace["test"], "--banks", workspace["banks"],
                   "--cal-manifest", workspace["abnormal"], "--config", workspace["config"],
                   "--out", tmp_path / "s.csv") == 3

    def test_single_calibration_case_insufficient(self, workspace, tmp_path):
        # subset manifests must sit next to the volumes they reference
        one = write_manifest_subset(
            workspace["manifest"], workspace["manifest"].parent / "cal_one.csv", [4]
        )
        assert run("score", "--manifest", workspace["test"], "--banks", workspace["banks"],
                   "--cal-manifest", one, "--config", workspace["config"],
                   "--out", tmp_path / "s.csv") == 11

    def test_extractor_mismatch_exit_code(self, workspace, tmp_path):
        cfg = RunConfig(canvas=CANVAS).to_dict()
        cfg["extractor"] = {"patch_size": 7, "stride": 4, "scales": [1, 2]}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        assert run("score", "--manifest", workspace["test"], "--banks", workspace["banks"],
                   "--cal-manifest", workspace["cal"], "--config", other,
                   "--out", tmp_path / "s.csv") == 10

    def test_bank_mismatch_exits_before_loading_cases(self, workspace, tmp_path):
        """The banks are checked against the config before any case is read."""
        cal = tmp_path / "cal.csv"
        cal.write_text(",".join(MANIFEST_HEADER) + "\n"
                       "c0,absent_ct.mvol,absent_mask.mvol,normal,\n"
                       "c1,absent_ct.mvol,absent_mask.mvol,normal,\n")
        cfg = RunConfig(canvas=CANVAS).to_dict()
        cfg["extractor"] = {"patch_size": 7, "stride": 4, "scales": [1, 2]}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        swapped = tmp_path / "banks"
        shutil.copytree(workspace["banks"], swapped)
        shutil.copy(swapped / "bank_left_axial.mbnk", swapped / "bank_right_axial.mbnk")

        def score(banks, config) -> int:
            return run("score", "--manifest", cal, "--banks", banks, "--cal-manifest", cal,
                       "--config", config, "--out", tmp_path / "s.csv")

        assert score(workspace["banks"], workspace["config"]) == 3  # the missing volumes
        assert score(workspace["banks"], other) == 10
        assert score(swapped, workspace["config"]) == 10

    def test_missing_bank_dir(self, workspace, tmp_path):
        assert run("score", "--manifest", workspace["test"], "--banks", tmp_path,
                   "--cal-manifest", workspace["cal"], "--config", workspace["config"],
                   "--out", tmp_path / "s.csv") == 3


class TestProjectCommand:
    def test_writes_images_masks_and_sidecar(self, workspace, tmp_path):
        out = tmp_path / "proj"
        assert run("project", "--manifest", workspace["abnormal"],
                   "--config", workspace["config"], "--out", out) == 0
        records = read_manifest(workspace["abnormal"])
        case_id = records[0].case_id
        sidecar = json.loads((out / f"{case_id}_projection.json").read_text())
        assert sidecar["case_id"] == case_id
        assert sidecar["method"] == "mip"
        assert len(sidecar["projections"]) == 6
        img = load_volume(out / f"{case_id}_right_coronal_img.mvol")
        mask = load_volume(out / f"{case_id}_right_coronal_mask.mvol")
        assert img.voxels.shape == (1, *CANVAS)
        assert img.voxels.dtype == np.float32
        assert mask.voxels.dtype == np.uint8
        geo = sidecar["projections"]["right_coronal"]
        assert set(geo) >= {"ptype", "plane_shape", "bbox", "scale", "canvas"}

    @pytest.mark.parametrize("projection_set", ["all-three", "coronal+axial"])
    def test_writes_project_case_output_without_features(
        self, workspace, tmp_path, monkeypatch, projection_set
    ):
        def no_extraction(*args, **kwargs):
            raise AssertionError("mvpad project extracted features")

        monkeypatch.setattr(mvpad.pipeline, "extract_features", no_extraction)
        cfg = RunConfig(canvas=CANVAS, projection_set=projection_set)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "proj"
        assert run("project", "--manifest", workspace["abnormal"],
                   "--config", cfg_path, "--out", out) == 0

        cases, records = load_manifest_cases(workspace["abnormal"])
        expected = []
        for record in records:
            case = cases[record.case_id]
            sidecar = json.loads((out / f"{case.case_id}_projection.json").read_text())
            pairs = [(img, mask) for img, mask in project_case(case.ct, case.lungs, canvas=CANVAS)
                     if img.ptype in cfg.ptypes]
            assert list(sidecar["projections"]) == [img.ptype.value for img, _ in pairs]
            for img, mask in pairs:
                stem = f"{case.case_id}_{img.ptype.value}"
                expected += [f"{stem}_img.mvol", f"{stem}_mask.mvol"]
                np.testing.assert_array_equal(load_volume(out / f"{stem}_img.mvol").voxels[0], img.pixels)
                np.testing.assert_array_equal(load_volume(out / f"{stem}_mask.mvol").voxels[0], mask.pixels)
                assert sidecar["projections"][img.ptype.value] == img.geometry.to_dict()
        assert sorted(p.name for p in out.glob("*.mvol")) == sorted(expected)

    def test_corrupt_volume_header_exit_code(self, tmp_path):
        data = tmp_path / "mini"
        assert run("phantom", "--normal", 1, "--abnormal", 0, "--seed", 9,
                   "--dims", "32,48,48", "--out", data) == 0
        vol = next(p for p in data.glob("*.mvol") if "mask" not in p.name)
        vol.write_bytes(b"not a header\n" + b"\x00" * 64)
        assert run("project", "--manifest", data / "manifest.csv",
                   "--out", tmp_path / "proj") == 4


@pytest.fixture(scope="module")
def localized(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("loc")
    rc = run("localize", "--manifest", workspace["abnormal"], "--banks", workspace["banks"],
             "--config", workspace["config"], "--out", out)
    assert rc == 0
    return out


class TestLocalizeCommand:
    def test_outputs_per_case(self, workspace, localized):
        for record in read_manifest(workspace["abnormal"]):
            fused = load_volume(localized / f"{record.case_id}_anomaly.mvol")
            assert fused.voxels.shape == DIMS
            assert fused.voxels.dtype == np.float32
            assert 0.0 <= fused.voxels.min() and fused.voxels.max() <= 1.0
            binarized = load_volume(localized / f"{record.case_id}_binarized.mvol")
            assert binarized.voxels.dtype == np.uint8
            assert set(np.unique(binarized.voxels)) <= {0, 1}

    def test_report_fields(self, workspace, localized):
        record = read_manifest(workspace["abnormal"])[0]
        report = json.loads((localized / f"{record.case_id}_localization.json").read_text())
        assert set(report) == {"argmax_voxel", "max_value", "hit"}
        assert len(report["argmax_voxel"]) == 3
        assert isinstance(report["hit"], bool)
        fused = load_volume(localized / f"{record.case_id}_anomaly.mvol")
        z, y, x = report["argmax_voxel"]
        assert fused.voxels[z, y, x] == np.float32(report["max_value"])

    def test_no_binarized_flag(self, workspace, tmp_path):
        out = tmp_path / "loc2"
        rc = run("localize", "--manifest", workspace["abnormal"], "--banks", workspace["banks"],
                 "--config", workspace["config"], "--out", out, "--no-binarized")
        assert rc == 0
        assert not list(out.glob("*_binarized.mvol"))
        assert list(out.glob("*_anomaly.mvol"))

    def test_normal_case_reports_null_hit(self, workspace, tmp_path):
        one = write_manifest_subset(
            workspace["manifest"], workspace["manifest"].parent / "normal_one.csv", [6]
        )
        out = tmp_path / "loc3"
        assert run("localize", "--manifest", one, "--banks", workspace["banks"],
                   "--config", workspace["config"], "--out", out) == 0
        record = read_manifest(one)[0]
        report = json.loads((out / f"{record.case_id}_localization.json").read_text())
        assert report["hit"] is None

    def test_requires_all_three_planes(self, workspace, tmp_path):
        cfg = RunConfig(canvas=CANVAS, projection_set="coronal+axial")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        banks = tmp_path / "banks"
        assert run("bank", "build", "--manifest", workspace["train"],
                   "--config", cfg_path, "--out", banks) == 0
        assert run("localize", "--manifest", workspace["abnormal"], "--banks", banks,
                   "--config", cfg_path, "--out", tmp_path / "loc") == 3


class TestEvalCommand:
    def test_metrics_json(self, scores_csv, tmp_path):
        out = tmp_path / "metrics.json"
        roc = tmp_path / "roc.csv"
        assert run("eval", "--scores", scores_csv, "--out", out, "--roc-out", roc) == 0
        metrics = json.loads(out.read_text())
        assert {"auc", "threshold", "accuracy", "sensitivity", "specificity",
                "std", "folds"} <= set(metrics)
        assert 0.0 <= metrics["auc"] <= 1.0
        assert len(metrics["folds"]) == 1

    def test_roc_csv_endpoints(self, scores_csv, tmp_path):
        roc = tmp_path / "roc.csv"
        assert run("eval", "--scores", scores_csv, "--roc-out", roc,
                   "--out", tmp_path / "m.json") == 0
        with open(roc, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fold", "threshold", "fpr", "tpr"]
        assert rows[1][1] == "inf" and float(rows[1][2]) == 0.0 and float(rows[1][3]) == 0.0
        assert float(rows[-1][2]) == 1.0 and float(rows[-1][3]) == 1.0

    def test_multiple_folds_aggregate(self, scores_csv, tmp_path, capsys):
        # same fold twice: mean equals the fold value, std is zero
        assert run("eval", "--scores", scores_csv, scores_csv) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert len(metrics["folds"]) == 2
        assert metrics["std"]["auc"] == 0.0

    def test_tied_scores_write_strict_json(self, tmp_path):
        # every score ties: the fold's operating threshold is +inf
        scores = tmp_path / "tied.csv"
        labels = ["normal", "normal", "abnormal", "abnormal"]
        rows = ["case_id,score,label"] + [f"c{i},0.0,{label}" for i, label in enumerate(labels)]
        scores.write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.json"

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--scores", scores, scores, "--out", out) == 0
        metrics = json.loads(out.read_text(), parse_constant=reject)
        assert metrics["threshold"] is None
        assert metrics["std"]["threshold"] is None
        assert [fold["threshold"] for fold in metrics["folds"]] == [None, None]
        assert metrics["auc"] == 0.5

    def test_rejects_malformed_scores_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,value\nx,1\n")
        assert run("eval", "--scores", bad, "--out", tmp_path / "m.json") == 3

    def test_missing_scores_file(self, tmp_path):
        assert run("eval", "--scores", tmp_path / "absent.csv",
                   "--out", tmp_path / "m.json") == 3


class TestSegmentEvalCommand:
    def test_report(self, workspace, tmp_path):
        out = tmp_path / "seg.json"
        assert run("segment-eval", "--manifest", workspace["cal"], "--out", out) == 0
        report = json.loads(out.read_text())
        assert len(report["cases"]) == 2
        for entry in report["cases"]:
            assert {"case_id", "dice", "iou", "dice_right", "dice_left"} <= set(entry)
        # threshold segmentation should nearly reproduce the stored masks
        assert report["mean_dice"] >= 0.95
        assert report["mean_iou"] <= report["mean_dice"]


class TestOneCasePerJob:
    """Commands other than score load each case inside the job that uses it."""

    @pytest.fixture
    def others_alive(self, monkeypatch):
        """At each volume read, how many loaded cases are still alive."""
        cases, counts = [], []
        load_case, load_volume = mvpad.pipeline.load_case, mvpad.pipeline.load_volume

        def tracked_load_case(record, base_dir):
            case = load_case(record, base_dir)
            cases.append(weakref.ref(case))
            return case

        def counted_load_volume(path):
            counts.append(sum(ref() is not None for ref in cases))
            return load_volume(path)

        monkeypatch.setattr(mvpad.pipeline, "load_case", tracked_load_case)
        monkeypatch.setattr(mvpad.pipeline, "load_volume", counted_load_volume)
        return counts

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", ["localize", "project", "bank build", "segment-eval"])
    def test_other_cases_alive_while_reading_one(self, workspace, tmp_path, others_alive,
                                                 command, jobs):
        manifest = workspace["train"] if command == "bank build" else workspace["test"]
        argv = [*command.split(), "--manifest", manifest, "--out", tmp_path / "out", "--jobs", jobs]
        if command != "segment-eval":
            argv += ["--config", workspace["config"]]
        if command == "localize":
            argv += ["--banks", workspace["banks"]]
        assert run(*argv) == 0
        n_cases = len(read_manifest(manifest))
        assert n_cases >= 3 and len(others_alive) >= 2 * n_cases
        assert max(others_alive) <= jobs - 1


def subcommand_flags(parser, prefix=()) -> dict[str, set[str]]:
    """Settable long options of each leaf subcommand, keyed by its command words."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(prefix): {o for a in parser._actions for o in a.option_strings
                                   if o.startswith("--") and o != "--help"}}
    out = {}
    for name, child in subparsers[0].choices.items():
        out.update(subcommand_flags(child, (*prefix, name)))
    return out


def documented_command_lines(text: str) -> list[list[str]]:
    """The argv of each ``mvpad ...`` line, with backslash continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.strip().startswith("mvpad ")]


class TestFlags:
    EXPECTED = {
        "phantom": {"--config", "--seed", "--out", "--normal", "--abnormal", "--dims", "--vessels"},
        "project": {"--config", "--jobs", "--out", "--manifest"},
        "bank build": {"--config", "--jobs", "--out", "--manifest"},
        "score": {"--config", "--jobs", "--out", "--manifest", "--banks", "--cal-manifest"},
        "localize": {"--config", "--jobs", "--out", "--manifest", "--banks", "--no-binarized"},
        "eval": {"--out", "--scores", "--roc-out"},
        "segment-eval": {"--jobs", "--out", "--manifest"},
    }
    BASE = {
        "phantom": ["phantom", "--normal", "1", "--abnormal", "0", "--out", "d"],
        "project": ["project", "--manifest", "m.csv", "--out", "p"],
        "bank build": ["bank", "build", "--manifest", "m.csv", "--out", "b"],
        "score": ["score", "--manifest", "m.csv", "--banks", "b", "--cal-manifest", "c.csv",
                  "--out", "s.csv"],
        "localize": ["localize", "--manifest", "m.csv", "--banks", "b", "--out", "loc"],
        "eval": ["eval", "--scores", "s.csv"],
        "segment-eval": ["segment-eval", "--manifest", "m.csv"],
    }
    REMOVED = [
        ("phantom", ["--jobs", "2"]),
        ("project", ["--seed", "5"]),
        ("project", ["--unsegmented"]),
        ("bank build", ["--seed", "5"]),
        ("bank build", ["--unsegmented"]),
        ("score", ["--seed", "5"]),
        ("score", ["--unsegmented"]),
        ("localize", ["--seed", "5"]),
        ("eval", ["--config", "/nonexistent.json"]),
        ("eval", ["--seed", "5"]),
        ("eval", ["--jobs", "7"]),
        ("segment-eval", ["--config", "/nonexistent.json"]),
        ("segment-eval", ["--seed", "5"]),
    ]

    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        flags = subcommand_flags(build_parser())
        assert flags == self.EXPECTED
        assert sum(len(f) for f in flags.values()) == 33

    @pytest.mark.parametrize("command, extra", REMOVED, ids=[f"{c} {e[0]}" for c, e in REMOVED])
    def test_removed_flag_is_a_usage_error(self, command, extra, capsys):
        build_parser().parse_args(self.BASE[command])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.BASE[command] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    JOBS_COMMANDS = ["project", "bank build", "score", "localize", "segment-eval"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", JOBS_COMMANDS)
    def test_jobs_below_one_is_a_usage_error(self, command, jobs, capsys):
        assert build_parser().parse_args(self.BASE[command] + ["--jobs", "1"]).jobs == 1
        with pytest.raises(SystemExit) as exc:
            main(self.BASE[command] + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["README.md", "demos/05_cli_walkthrough.sh"])
    def test_documented_command_lines_parse(self, path):
        text = (ROOT / path).read_text(encoding="utf-8")
        if path == "README.md":
            text = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = documented_command_lines(text)
        assert len(commands) >= 6
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{path}: mvpad {shlex.join(argv)} does not parse")


class TestEntryPoints:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script(self):
        proc = subprocess.run(["mvpad", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "segment-eval" in proc.stdout

    def test_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mvpad", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "localize" in proc.stdout
