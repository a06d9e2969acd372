"""Workload definitions: seeded phantom corpora and the timed study on each.

Two front ends drive mvpad:

- ``lib`` calls the public functions of `mvpad.pipeline` the way a screening
  service would: featurize the training normals and build six banks,
  calibrate on held-out normals, score the balanced test set (one
  ``parallel_map`` over cases), localize the abnormal test cases from the
  maps it already has, then compute fold metrics.
- ``cli`` calls `mvpad.cli.main` in-process, the way a user at a shell would:
  ``bank build`` -> ``score`` -> ``localize`` -> ``eval``. Each subcommand
  loads its cases from MVOL files again.

Every call into mvpad goes through a module attribute (``pipeline.build_banks``
and not a name imported here), so that `spans.Tracer` sees it when installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mvpad.cli
import mvpad.evaluation
import mvpad.phantom
import mvpad.pipeline
import mvpad.volume
from mvpad.config import RunConfig

clock = time.perf_counter
# phases shorter than SHORT_PHASE_S are timed PHASE_SAMPLES times and the
# median is reported, so that one burst of load on the host does not decide
# the value
SHORT_PHASE_S = 5.0
PHASE_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    front_end: str  # "lib" | "cli"
    dims: tuple[int, int, int]
    train: int  # normals that build the banks
    cal: int  # normals that calibrate
    test: int  # test cases per label
    jobs: int


# Sized so that one untraced run stays under ~40 s on a 2-core x86 box while
# each workload keeps its layer balance: `screen` is NN scoring plus
# featurization, `train` is the greedy coreset (cost grows with the square of
# the training set), `localize` is voxel work at CT scale.
WORKLOADS = {
    "screen": Workload("screen", "lib", (64, 96, 96), train=4, cal=4, test=10, jobs=2),
    "train": Workload("train", "lib", (64, 96, 96), train=18, cal=2, test=3, jobs=1),
    "localize": Workload("localize", "cli", (160, 256, 256), train=2, cal=2, test=3, jobs=1),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at sizes small enough for a smoke test."""
    return replace(workload, dims=(48, 64, 64), train=2, cal=2, test=1)


def corpus_seed(seed: int) -> int:
    # phantom case seeds are corpus_seed + case index; spacing corpora apart
    # keeps neighbouring --seed values from sharing cases
    return 1009 * seed


# ---------------------------------------------------------------------------
# Outcome of one study


@dataclass
class Outcome:
    study_s: float = 0.0
    train_s: float = 0.0
    calibrate_s: float = 0.0
    score_wall_s: float = 0.0  # wall of the scoring passes
    scored: int = 0  # test cases scored, over every pass
    latencies: list = field(default_factory=list)  # per test case of the first pass, s
    localize_cases_per_s: float = math.nan
    hits: list = field(default_factory=list)  # first pass, abnormal cases
    auc: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)


def valid_score(score) -> bool:
    return isinstance(score, float) and math.isfinite(score) and 0.0 <= score <= 1.0


def pair_count_auc(pairs) -> float:
    """Tie-aware pair-counting AUC, the oracle for `roc_auc`."""
    normal = [s for s, label in pairs if label == "normal"]
    abnormal = [s for s, label in pairs if label == "abnormal"]
    wins = sum(1 for a in abnormal for n in normal if a > n)
    ties = sum(1 for a in abnormal for n in normal if a == n)
    return (2 * wins + ties) / (2 * len(normal) * len(abnormal))


def _no_span(name, case_id=None):
    return contextlib.nullcontext()


def setup(workload: Workload, seed: int, out_dir: Path):
    """Make the corpus of one run; returns what `study` takes."""
    return (lib_setup if workload.front_end == "lib" else cli_setup)(workload, seed, out_dir)


def study(workload: Workload, corpus, out_dir: Path, seconds, fill, span=_no_span) -> Outcome:
    if workload.front_end == "lib":
        cases, split = corpus
        return lib_study(workload, cases, split, seconds, fill, span)
    out_dir.mkdir(parents=True)
    return cli_study(workload, corpus, out_dir, seconds, fill, span)


# ---------------------------------------------------------------------------
# Library front end


def lib_setup(workload: Workload, seed: int, out_dir: Path):
    """Generate the corpus and load every case; returns (cases, split)."""
    n_normal = workload.train + workload.cal + workload.test
    manifest = mvpad.phantom.generate_dataset(
        n_normal=n_normal,
        n_abnormal=workload.test,
        seed=corpus_seed(seed),
        out_dir=out_dir,
        dims=workload.dims,
    )
    cases, records = mvpad.pipeline.load_manifest_cases(manifest)
    return cases, split_records(records, workload)


def split_records(records, workload: Workload) -> dict[str, list]:
    normal = [r for r in records if r.label == "normal"]
    abnormal = [r for r in records if r.label == "abnormal"]
    a, b = workload.train, workload.train + workload.cal
    return {"train": normal[:a], "cal": normal[a:b], "test": normal[b:] + abnormal}


def lib_study(workload, cases, split, seconds, fill, span=_no_span) -> Outcome:
    """Train, calibrate, score, localize and evaluate once; `fill` adds repeats."""
    pl = mvpad.pipeline
    cfg = RunConfig()
    jobs = workload.jobs
    out = Outcome()

    def featurize(case):
        with span("bench.featurize", case.case_id):
            return pl.compute_case_features(case, cfg)

    train_cases = [cases[r.case_id] for r in split["train"]]
    cal_cases = [cases[r.case_id] for r in split["cal"]]
    test_cases = [cases[r.case_id] for r in split["test"]]

    def train_phase():
        with span("bench.train"):
            out.attempted += len(train_cases)
            return pl.build_banks(pl.parallel_map(featurize, train_cases, jobs), cfg)

    def calibrate_phase():
        with span("bench.calibrate"):
            out.attempted += len(cal_cases)
            cal_feats = pl.parallel_map(featurize, cal_cases, jobs)
            return pl.calibrate_from_cases(cal_feats, banks, cfg, jobs)

    def score_one(case, keep):
        with span("bench.score_case", case.case_id):
            start = clock()
            try:
                feats = pl.compute_case_features(case, cfg)
                maps = pl.case_anomaly_maps(feats, banks, cfg)
                score = pl.patient_score({p: m.score for p, m in maps.items()}, calibration, cfg.ptypes)
            except Exception as exc:  # counted, reported, and the pass goes on
                return case, None, None, None, f"score {case.case_id}: {exc!r}"
            latency = clock() - start
            return (case, feats, maps, score, latency) if keep else (case, None, None, score, latency)

    def score_pass(keep):
        start = clock()
        with span("bench.score"):
            rows = pl.parallel_map(lambda case: score_one(case, keep), test_cases, jobs)
        wall = clock() - start
        out.attempted += len(rows)
        out.score_wall_s += wall
        out.scored += len(rows)
        for case, _, _, score, latency in rows:
            if isinstance(latency, str):
                out.fail(latency)
            elif not valid_score(score):
                out.fail(f"score {case.case_id}: {score!r} is not a finite value in [0, 1]")
        return rows, wall

    def localize_phase():
        located = []
        with span("bench.localize"):
            for case, feats, maps, _, _ in rows:
                if case.label != "abnormal" or maps is None:
                    continue
                out.attempted += 1
                try:
                    located.append(pl.localize_case(case, feats, banks, cfg, maps=maps))
                except Exception as exc:
                    out.fail(f"localize {case.case_id}: {exc!r}")
        return located

    t0 = clock()
    banks = train_phase()
    t1 = clock()
    calibration = calibrate_phase()
    t2 = clock()
    rows, score_wall = score_pass(keep=True)
    t3 = clock()
    located = localize_phase()
    t4 = clock()
    pairs = [(score, case.label) for case, _, _, score, _ in rows if valid_score(score)]
    with span("bench.eval"):
        metrics = mvpad.evaluation.fold_metrics(pairs)
    t5 = clock()

    out.study_s = t5 - t0
    out.latencies = [lat for _, _, _, score, lat in rows if valid_score(score)]
    out.hits = [r.hit for r in located if r.hit is not None]
    out.auc = metrics["auc"]
    if out.auc != pair_count_auc(pairs):
        out.problems.append(f"roc_auc {out.auc!r} differs from pair counting")
    first_scores = [score for _, _, _, score, _ in rows]

    def same_banks(other):
        return all(np.array_equal(other[p].entries, banks[p].entries) for p in cfg.ptypes)

    def same_located(other):
        return len(other) == len(located) and all(
            np.array_equal(a.fused.values, b.fused.values) and np.array_equal(a.binarized, b.binarized)
            for a, b in zip(other, located)
        )

    times = {"train": [t1 - t0], "calibrate": [t2 - t1], "localize": [t4 - t3]}
    if fill:
        repeats = (
            ("train", train_phase, same_banks),
            ("calibrate", calibrate_phase, lambda other: other.bounds == calibration.bounds),
            ("localize", localize_phase, same_located),
        )
        for name, phase, same in repeats:
            while times[name][0] < SHORT_PHASE_S and len(times[name]) < PHASE_SAMPLES:
                start = clock()
                again = phase()
                times[name].append(clock() - start)
                if not same(again):
                    out.problems.append(f"a repeated {name} phase gave other outputs")
    out.train_s = statistics.median(times["train"])
    out.calibrate_s = statistics.median(times["calibrate"])
    out.localize_cases_per_s = len(located) / statistics.median(times["localize"])

    digest = hashlib.sha256()
    for ptype in cfg.ptypes:
        digest.update(ptype.value.encode())
        digest.update(banks[ptype].entries.tobytes())
        digest.update(repr(calibration.bounds[ptype]).encode())
    for case, _, _, score, _ in rows:
        digest.update(f"{case.case_id},{score!r}\n".encode())
    for result in located:
        digest.update(result.case_id.encode())
        digest.update(result.fused.values.tobytes())
        digest.update(result.binarized.tobytes())
        digest.update(repr(result.hit).encode())
    digest.update(repr(sorted(metrics.items())).encode())
    out.digest = digest.hexdigest()

    rows = located = None  # release the first pass's features and maps
    while fill and (clock() - t0) + score_wall <= seconds:
        again, score_wall = score_pass(keep=False)
        if [score for _, _, _, score, _ in again] != first_scores:
            out.problems.append("a repeated scoring pass changed a score")
    return out


# ---------------------------------------------------------------------------
# Command-line front end


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return mvpad.cli.main([str(a) for a in argv])


def cli_setup(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """`mvpad phantom` plus train/cal/test manifests; returns their paths."""
    rc = _cli(
        [
            "phantom",
            "--normal", workload.train + workload.cal + workload.test,
            "--abnormal", workload.test,
            "--seed", corpus_seed(seed),
            "--dims", ",".join(str(d) for d in workload.dims),
            "--out", out_dir,
        ]
    )
    if rc != 0:
        raise RuntimeError(f"mvpad phantom exited with {rc}")
    records = mvpad.volume.read_manifest(out_dir / "manifest.csv")
    manifests = {}
    for part, recs in split_records(records, workload).items():
        manifests[part] = out_dir / f"{part}.csv"
        mvpad.volume.write_manifest(recs, manifests[part])
    return manifests


class _Marks:
    """Timestamps at the return of a few `mvpad.cli` names, in call order.

    This is how `calibrate_s` and the per-case scoring latency are read
    inside the single ``mvpad score`` command: calibration ends when
    ``calibrate_from_cases`` returns, and with one job each test case ends
    when its ``patient_score`` returns. The hooks cost one clock read per
    call and are present in traced and untraced runs alike.
    """

    NAMES = ("load_manifest_cases", "calibrate_from_cases", "patient_score")

    def __init__(self):
        self.events: list[tuple[str, float]] = []
        self._saved = {}

    def __enter__(self):
        for name in self.NAMES:
            original = getattr(mvpad.cli, name)
            self._saved[name] = original
            setattr(mvpad.cli, name, self._hook(name, original))
        return self

    def _hook(self, name, fn):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.events.append((name, clock()))
            return result

        return hooked

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(mvpad.cli, name, original)
        return False


def cli_study(workload, manifests, out_dir: Path, seconds, fill, span=_no_span) -> Outcome:
    out = Outcome()
    jobs = ["--jobs", workload.jobs]
    banks = out_dir / "banks"
    scores = out_dir / "scores.csv"
    n_train, n_cal, n_test = workload.train, workload.cal, 2 * workload.test

    def run(span_name, argv, cases) -> None:
        out.attempted += cases
        with span(span_name):
            rc = _cli(argv)
        if rc != 0:
            out.fail(f"mvpad {argv[0]} exited with {rc}", cases)

    t0 = clock()
    run("cli.bank_build", ["bank", "build", "--manifest", manifests["train"], "--out", banks, *jobs], n_train)
    t1 = clock()
    with _Marks() as marks:
        run(
            "cli.score",
            ["score", "--manifest", manifests["test"], "--banks", banks,
             "--cal-manifest", manifests["cal"], "--out", scores, *jobs],
            n_cal + n_test,
        )
    t2 = clock()

    def localize_pass(loc_dir):
        start = clock()
        run("cli.localize", ["localize", "--manifest", manifests["test"], "--banks", banks, "--out", loc_dir, *jobs], n_test)
        return clock() - start

    loc_wall = localize_pass(out_dir / "loc")
    run("cli.eval", ["eval", "--scores", scores, "--out", out_dir / "metrics.json", "--roc-out", out_dir / "roc.csv"], 1)
    t4 = clock()

    out.study_s = t4 - t0
    out.score_wall_s = t2 - t1
    localized, loc_walls = n_test, loc_wall
    _read_score_marks(out, marks.events, n_test)
    score_rows = _csv_rows(scores)
    pairs = _read_scores_csv(out, score_rows, n_test)
    out.scored = n_test
    out.auc = json.loads((out_dir / "metrics.json").read_text())["auc"]
    if pairs and out.auc != pair_count_auc(pairs):
        out.problems.append(f"mvpad eval auc {out.auc!r} differs from pair counting")
    loc_digest = _tree_digest(out_dir / "loc")
    for case_id, _, label in score_rows:
        report = out_dir / "loc" / f"{case_id}_localization.json"
        if label == "abnormal" and report.is_file():
            out.hits.append(json.loads(report.read_text())["hit"])
    if len(out.hits) != workload.test:
        out.problems.append(f"{len(out.hits)} localization reports for {workload.test} abnormal cases")

    train_times = [t1 - t0]
    banks_digest = _tree_digest(banks)
    while fill and train_times[0] < SHORT_PHASE_S and len(train_times) < PHASE_SAMPLES:
        again = out_dir / f"banks{len(train_times)}"
        start = clock()
        run("cli.bank_build", ["bank", "build", "--manifest", manifests["train"], "--out", again, *jobs], n_train)
        train_times.append(clock() - start)
        if _tree_digest(again) != banks_digest:
            out.problems.append("a repeated mvpad bank build wrote different bytes")
        shutil.rmtree(again)
    out.train_s = statistics.median(train_times)

    passes = 1
    while fill and (clock() - t0) + loc_wall <= seconds:
        again = out_dir / f"loc{passes}"
        loc_wall = localize_pass(again)
        localized, loc_walls = localized + n_test, loc_walls + loc_wall
        if _tree_digest(again) != loc_digest:
            out.problems.append("a repeated mvpad localize wrote different bytes")
        shutil.rmtree(again)
        passes += 1
    out.localize_cases_per_s = localized / loc_walls

    digest = hashlib.sha256()
    for name in ("banks", "scores.csv", "loc", "metrics.json", "roc.csv"):
        digest.update(name.encode())
        digest.update(_tree_digest(out_dir / name).encode())
    out.digest = digest.hexdigest()
    return out


def _read_score_marks(out: Outcome, events, n_test: int) -> None:
    names = [name for name, _ in events]
    expected = ["load_manifest_cases", "calibrate_from_cases", "load_manifest_cases"]
    expected += ["patient_score"] * n_test
    if names != expected:
        out.problems.append(f"unexpected call sequence inside mvpad score: {names}")
        return
    times = [t for _, t in events]
    out.calibrate_s = times[1] - times[0]
    out.latencies = [b - a for a, b in zip(times[2:], times[3:])]


def _csv_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(row) for row in reader]


def _read_scores_csv(out: Outcome, rows, n_test: int):
    pairs = []
    for case_id, text, label in rows:
        score = float(text)
        if not valid_score(score):
            out.fail(f"score {case_id}: {text} is not a finite value in [0, 1]")
        else:
            pairs.append((score, label))
    if len(rows) != n_test:
        out.problems.append(f"scores CSV has {len(rows)} rows for {n_test} test cases")
    return pairs


def _tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of a file or directory tree."""
    digest = hashlib.sha256()
    if path.is_file():
        files = [(path.name, path)]
    else:
        files = sorted((str(p.relative_to(path)), p) for p in path.rglob("*") if p.is_file())
    for name, item in files:
        digest.update(name.encode())
        with open(item, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()

