"""Command-line front end.

Subcommands: phantom | project | bank build | score | localize | eval |
segment-eval. Every subcommand is a pure function of (config, input files);
outputs are byte-stable across reruns and across --jobs settings. Errors
exit with the code of their class; 0 is success.

Each subcommand accepts only the flags it reads. ``project``, ``bank build``,
``localize`` and ``segment-eval`` load each case inside the job that works on
it, so they hold at most ``--jobs`` cases at a time; ``score`` loads its
manifests whole.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .config import RunConfig
from .errors import ExtractorMismatchError, InsufficientDataError, InvalidArgumentError, MvpadError
from .evaluation import fold_metrics, roc_auc, summarize_folds
from .memory_bank import bank_filename, load_bank, save_bank
from .phantom import generate_dataset
from .pipeline import (
    build_banks,
    calibrate_from_cases,
    case_projections,
    compute_case_features,
    load_manifest_cases,
    localize_case,
    parallel_map,
    patient_score,
    raw_scores,
)
from .projection import ProjectionType
from .segmentation import dice, iou, threshold_segment_phantom
from .volume import Volume, read_manifest, save_volume

SCORES_HEADER = ["case_id", "score", "label"]


def _load_config(args) -> RunConfig:
    return RunConfig.from_json(args.config) if args.config else RunConfig()


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(data: dict, out_path: str | Path | None) -> None:
    text = json.dumps(_finite_or_null(data), indent=2, allow_nan=False)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _load_banks(banks_dir, cfg: RunConfig) -> dict[ProjectionType, object]:
    """The configured projections' banks, checked against ``cfg`` before any case is loaded."""
    banks = {}
    for ptype in cfg.ptypes:
        path = Path(banks_dir) / bank_filename(ptype)
        if not path.is_file():
            raise InvalidArgumentError(f"missing bank file {path}")
        bank = load_bank(path)
        if bank.ptype != ptype:
            raise ExtractorMismatchError(f"{path}: holds the {bank.ptype.value} bank")
        if bank.extractor_hash != cfg.extractor.extractor_hash:
            raise ExtractorMismatchError(
                f"{path}: built with extractor {bank.extractor_hash}, "
                f"the config's is {cfg.extractor.extractor_hash}"
            )
        banks[ptype] = bank
    return banks


def _map_cases(fn, records, manifest_path, jobs: int) -> list:
    """``fn(case)`` for each record's case, in record order; each job loads its own case."""
    base = Path(manifest_path).parent
    # called through the module, so that wrappers installed on pipeline.load_case see it
    return parallel_map(lambda record: fn(pipeline.load_case(record, base)), records, jobs)


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_phantom(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seed if args.seed is None else args.seed
    try:
        dims = tuple(int(d) for d in args.dims.split(",")) if args.dims else (64, 96, 96)
    except ValueError:
        raise InvalidArgumentError(f"--dims needs integers Z,Y,X, got {args.dims!r}") from None
    if len(dims) != 3:
        raise InvalidArgumentError(f"--dims needs Z,Y,X, got {args.dims!r}")
    manifest = generate_dataset(
        n_normal=args.normal,
        n_abnormal=args.abnormal,
        seed=seed,
        out_dir=args.out,
        dims=dims,
        vessel_count=args.vessels,
    )
    print(manifest)
    return 0


def _cmd_project(args) -> int:
    cfg = _load_config(args)
    records = read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_one(case) -> None:
        sidecar = {"case_id": case.case_id, "method": cfg.method, "projections": {}}
        for ptype, (img, mask) in case_projections(case, cfg).items():
            img_vol = Volume(img.pixels[None, :, :], (1.0, 1.0, 1.0))
            mask_vol = Volume(mask.pixels[None, :, :], (1.0, 1.0, 1.0))
            save_volume(img_vol, out_dir / f"{case.case_id}_{ptype.value}_img.mvol")
            save_volume(mask_vol, out_dir / f"{case.case_id}_{ptype.value}_mask.mvol")
            sidecar["projections"][ptype.value] = img.geometry.to_dict()
        _write_json(sidecar, out_dir / f"{case.case_id}_projection.json")

    _map_cases(run_one, records, args.manifest, args.jobs)
    return 0


def _cmd_bank_build(args) -> int:
    cfg = _load_config(args)
    records = read_manifest(args.manifest)
    bad = [r.case_id for r in records if r.label != "normal"]
    if bad:
        raise InvalidArgumentError(f"bank training manifest must be all-normal; abnormal: {bad}")
    feats = _map_cases(
        lambda case: compute_case_features(case, cfg), records, args.manifest, args.jobs
    )
    banks = build_banks(feats, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ptype, bank in banks.items():
        save_bank(bank, out_dir / bank_filename(ptype))
    _write_json(cfg.extractor.to_dict(), out_dir / "extractor.json")
    return 0


def _cmd_score(args) -> int:
    cfg = _load_config(args)
    banks = _load_banks(args.banks, cfg)
    # Both manifests are loaded whole: perfbench/workloads._Marks reads calibrate_s
    # and the per-case latency from the return times of this module's
    # load_manifest_cases, calibrate_from_cases and patient_score.
    cal_cases, cal_records = load_manifest_cases(args.cal_manifest)
    bad = [r.case_id for r in cal_records if r.label != "normal"]
    if bad:
        raise InvalidArgumentError(f"calibration manifest must be all-normal; abnormal: {bad}")
    if len(cal_records) < 2:
        raise InsufficientDataError(f"calibration needs >= 2 normal cases, got {len(cal_records)}")
    cal_feats = parallel_map(
        lambda r: compute_case_features(cal_cases[r.case_id], cfg), cal_records, args.jobs
    )
    cal = calibrate_from_cases(cal_feats, banks, cfg, args.jobs)

    cases, records = load_manifest_cases(args.manifest)

    def score_one(record) -> tuple[str, float, str]:
        feats = compute_case_features(cases[record.case_id], cfg)
        score = patient_score(raw_scores(feats, banks, cfg), cal, cfg.ptypes)
        return record.case_id, score, record.label

    rows = parallel_map(score_one, records, args.jobs)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for case_id, score, label in rows:
            writer.writerow([case_id, repr(score), label])
    return 0


def _cmd_localize(args) -> int:
    cfg = _load_config(args)
    banks = _load_banks(args.banks, cfg)
    records = read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_one(case) -> None:
        feats = compute_case_features(case, cfg)
        result = localize_case(case, feats, banks, cfg)
        fused = result.fused
        save_volume(
            Volume(fused.values, fused.spacing_mm), out_dir / f"{case.case_id}_anomaly.mvol"
        )
        if not args.no_binarized:
            save_volume(
                Volume(result.binarized.astype(np.uint8), fused.spacing_mm),
                out_dir / f"{case.case_id}_binarized.mvol",
            )
        report = {
            "argmax_voxel": list(fused.argmax_voxel()),
            "max_value": float(fused.values.max()),
            "hit": result.hit,
        }
        _write_json(report, out_dir / f"{case.case_id}_localization.json")

    _map_cases(run_one, records, args.manifest, args.jobs)
    return 0


def _read_scores_csv(path) -> list[tuple[float, str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidArgumentError(f"{path}: unreadable scores CSV ({exc})") from exc
    header = rows[0] if rows else None
    if header != SCORES_HEADER:
        raise InvalidArgumentError(f"{path}: expected header {SCORES_HEADER}, got {header}")
    pairs = []
    for row in rows[1:]:
        if len(row) != 3:
            raise InvalidArgumentError(f"{path}: bad row {row}")
        try:
            score = float(row[1])
        except ValueError:
            raise InvalidArgumentError(f"{path}: score {row[1]!r} is not a number") from None
        if not math.isfinite(score):
            raise InvalidArgumentError(f"{path}: score {row[1]!r} is not finite")
        pairs.append((score, row[2]))
    return pairs


def _cmd_eval(args) -> int:
    folds = [_read_scores_csv(path) for path in args.scores]
    summary = summarize_folds([fold_metrics(pairs) for pairs in folds])
    _write_json(summary, args.out)
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "threshold", "fpr", "tpr"])
            for fold_idx, pairs in enumerate(folds):
                roc = roc_auc(pairs)
                for thr, (fpr, tpr) in zip(roc.thresholds, roc.points):
                    writer.writerow([fold_idx, repr(thr), repr(fpr), repr(tpr)])
    return 0


def _cmd_segment_eval(args) -> int:
    records = read_manifest(args.manifest)
    if not records:
        raise InsufficientDataError(f"{args.manifest}: no cases to evaluate")

    def eval_one(case) -> dict:
        auto = threshold_segment_phantom(case.ct)
        ref = case.lungs.labels.voxels
        auto_vox = auto.voxels
        entry = {"case_id": case.case_id}
        entry["dice"] = dice(auto_vox > 0, ref > 0)
        entry["iou"] = iou(auto_vox > 0, ref > 0)
        entry["dice_right"] = dice(auto_vox == 1, ref == 1)
        entry["dice_left"] = dice(auto_vox == 2, ref == 2)
        return entry

    rows = _map_cases(eval_one, records, args.manifest, args.jobs)
    report = {
        "cases": rows,
        "mean_dice": float(np.mean([r["dice"] for r in rows])),
        "mean_iou": float(np.mean([r["iou"] for r in rows])),
    }
    _write_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, config=True, jobs=True, out_required=True) -> None:
    if config:
        parser.add_argument("--config", help="run-config JSON path")
    if jobs:
        parser.add_argument("--jobs", type=_positive_int, default=1, help="worker threads (default 1)")
    parser.add_argument("--out", required=out_required, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvpad",
        description="Multi-view projection anomaly detection for segmented lung CT volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic chest phantom dataset")
    _add_common(p, jobs=False)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--normal", type=int, required=True, help="number of normal cases")
    p.add_argument("--abnormal", type=int, required=True, help="number of abnormal cases")
    p.add_argument("--dims", help="volume dims as Z,Y,X (default 64,96,96)")
    p.add_argument("--vessels", type=int, default=12, help="vessel count per lung pair")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("project", help="write per-case projected images, masks and sidecars")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("bank", help="memory bank commands")
    bank_sub = p.add_subparsers(dest="bank_command", required=True)
    pb = bank_sub.add_parser("build", help="build per-projection banks from normal cases")
    _add_common(pb)
    pb.add_argument("--manifest", required=True)
    pb.set_defaults(func=_cmd_bank_build)

    p = sub.add_parser("score", help="score cases against banks, write a scores CSV")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="cases to score")
    p.add_argument("--banks", required=True, help="bank directory")
    p.add_argument("--cal-manifest", required=True, help="held-out normal cases for calibration")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("localize", help="fused 3D anomaly volumes and binarized masks")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--banks", required=True)
    p.add_argument("--no-binarized", action="store_true", help="skip the binarized MVOL")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("eval", help="metrics JSON + ROC CSV from scores CSVs (one per fold)")
    _add_common(p, config=False, jobs=False, out_required=False)
    p.add_argument("--scores", nargs="+", required=True, help="scores CSV paths, one per fold")
    p.add_argument("--roc-out", help="write ROC points CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("segment-eval", help="Dice/IoU of threshold segmentation vs stored masks")
    _add_common(p, config=False, out_required=False)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_segment_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MvpadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InvalidArgumentError("io").exit_code


if __name__ == "__main__":
    sys.exit(main())
