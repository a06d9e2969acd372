"""mvpad benchmark: one seeded phantom workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload screen|train|localize --seed N \
        --seconds S --trace 0|1 [--tiny]

``--trace 0`` measures the end-to-end metrics with nothing wrapped. It sets
up the corpus three times (``setup_s`` is the median) and runs the study
once. It then times each study phase that took under five seconds twice
more and reports the median of three, and repeats the scoring (``lib``) or
localization (``cli``) pass while another pass still fits in ``--seconds``.

``--trace 1`` sets up once under the tracer, runs the study once untraced and
once traced, and reports per-layer self times and counts from the traced
study and set-up. Spans go to ``.perfbench_out/trace-<workload>-<seed>.jsonl``.
It also checks that both studies wrote identical output bytes and compares
``bulk_nn_distance`` on one test map against a float64 full scan.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is a ``{"record": ...}`` object with the environment, output
digest, tail percentile and every problem found. Metric names, units and
directions come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "phantom.generate_s": ("phantom.generate_dataset", "phantom.generate_case"),
    "volume.load_s": ("volume.load",),
    "volume.save_s": ("volume.save",),
    "segmentation.split_s": ("segmentation.split",),
    "projection.project_s": ("projection.project",),
    "features.extract_s": ("features.extract",),
    "memory_bank.coreset_s": ("memory_bank.coreset",),
    "memory_bank.build_s": ("memory_bank.build", "memory_bank.aggregate"),
    "memory_bank.map_s": ("memory_bank.map",),
    "memory_bank.nn_s": ("memory_bank.nn",),
    "memory_bank.io_s": ("memory_bank.io",),
    "evaluation.calibrate_s": ("evaluation.calibrate",),
    "evaluation.roc_s": ("evaluation.roc",),
    "reconstruction.normalize2d_s": ("reconstruction.normalize2d",),
    "reconstruction.reverse_project_s": ("reconstruction.reverse_project",),
    "reconstruction.fuse_s": ("reconstruction.fuse",),
    "reconstruction.binarize_s": ("reconstruction.binarize",),
    "pipeline.featurize_s": ("pipeline.featurize",),
    "pipeline.localize_s": ("pipeline.localize",),
    "cli.bank_build_s": ("cli.bank_build",),
    "cli.score_s": ("cli.score",),
    "cli.localize_s": ("cli.localize",),
    "cli.eval_s": ("cli.eval",),
}

# per-layer count metric -> (span name, count key; None counts the spans)
LAYER_COUNTS = {
    "phantom.voxels": ("phantom.generate_case", "voxels"),
    "volume.bytes_read": ("volume.load", "bytes"),
    "volume.bytes_written": ("volume.save", "bytes"),
    "segmentation.calls": ("segmentation.split", None),
    "projection.calls": ("projection.project", None),
    "projection.voxels": ("projection.project", "voxels"),
    "features.images": ("features.extract", "images"),
    "features.patches": ("features.extract", "patches"),
    "memory_bank.rows": ("memory_bank.aggregate", "rows"),
    "memory_bank.coreset_size": ("memory_bank.coreset", "coreset_size"),
    "memory_bank.coreset_madds": ("memory_bank.coreset", "madds"),
    "memory_bank.nn_queries": ("memory_bank.nn", "queries"),
    "memory_bank.nn_madds": ("memory_bank.nn", "madds"),
    "reconstruction.voxels": ("reconstruction.reverse_project", "voxels"),
    "pipeline.featurize_calls": ("pipeline.featurize", None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mvpad benchmark (see module docstring)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record


def environment(seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cores = len(os.sched_getaffinity(0))
    if jobs > cores:
        print(f"warning: jobs={jobs} exceeds the {cores} available cores", file=sys.stderr)
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": cores,
        "jobs": jobs,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
            or "default",
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Runs


def tail(samples):
    """(value, percentile, n) of the tail latency.

    The tail is the highest nearest-rank percentile with at least 10 samples
    beyond it, but never below the 75th: runs with fewer than 40 samples get
    the 75th percentile, with fewer than 10 samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 10, math.ceil(0.75 * n))  # 1-based rank
    return xs[k - 1], 100.0 * k / n, n


def timed_setup(wl, seed, corpus_dir):
    import workloads

    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    corpus_dir.mkdir(parents=True)
    start = time.perf_counter()
    corpus = workloads.setup(wl, seed, corpus_dir)
    return time.perf_counter() - start, corpus


def untraced_run(wl, seed, seconds, work):
    import workloads

    setups = [timed_setup(wl, seed, work / "corpus") for _ in range(SETUP_REPEATS)]
    corpus = setups[-1][1]
    out = workloads.study(wl, corpus, work / "study", seconds, fill=True)
    tail_s, tail_pct, n = tail(out.latencies)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "study_s": out.study_s,
        "train_s": out.train_s,
        "calibrate_s": out.calibrate_s,
        "score_cases_per_s": out.scored / out.score_wall_s,
        "score_case_p50_s": statistics.median(out.latencies),
        "score_case_tail_s": tail_s,
        "localize_cases_per_s": out.localize_cases_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loc_hit_rate": sum(bool(h) for h in out.hits) / len(out.hits),
        "ok_rate": 1.0 - out.failed / out.attempted,
    }
    record = {"tail_percentile": tail_pct, "latency_samples": n, "auc": out.auc, "digest": out.digest}
    return out, metrics, record


def traced_run(wl, seed, seconds, work):
    import workloads
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        _, corpus = timed_setup(wl, seed, work / "corpus")
    base = workloads.study(wl, corpus, work / "study0", seconds, fill=False)
    if wl.front_end == "cli":
        shutil.rmtree(work / "study0")
    with tracer:
        out = workloads.study(wl, corpus, work / "study1", seconds, fill=False, span=tracer.span)
    if out.digest != base.digest:
        out.problems.append("the traced study wrote other output bytes than the untraced one")
    out.attempted += base.attempted
    out.failed += base.failed
    out.problems += base.problems

    metrics = layer_metrics(tracer)
    metrics["memory_bank.nn_oracle_mismatches"] = nn_oracle_mismatches(tracer)
    metrics["trace.overhead_frac"] = (out.study_s - base.study_s) / base.study_s
    if metrics["memory_bank.nn_oracle_mismatches"]:
        out.problems.append("bulk_nn_distance disagrees with the float64 full scan")

    trace_dir = ROOT / ".perfbench_out"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"trace-{wl.name}-{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    times = {k: v for k, v in metrics.items() if k in LAYER_TIMES}
    record = {
        "digest": out.digest,
        "untraced_digest": base.digest,
        "study_s_untraced": base.study_s,
        "study_s_traced": out.study_s,
        "largest_self_times": sorted(times.items(), key=lambda kv: -kv[1])[:5],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return out, metrics, record


def layer_metrics(tracer) -> dict:
    import numpy as np
    from scipy.spatial import cKDTree

    self_time = tracer.self_times()
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(self_time[s.id] for s in tracer.spans if s.name in names)
    for metric, (name, key) in LAYER_COUNTS.items():
        spans = [s for s in tracer.spans if s.name == name]
        metrics[metric] = len(spans) if key is None else sum(s.counts[key] for s in spans)
    metrics["reconstruction.bytes_computed"] = sum(
        s.counts["bytes_computed"]
        for s in tracer.spans
        if s.name in ("reconstruction.reverse_project", "reconstruction.fuse")
    )

    keep = tracer.keep
    metrics["memory_bank.unique_rows"] = sum(
        len(np.unique(rows, axis=0)) for rows in keep.get("bank_rows", ())
    )
    metrics["memory_bank.nn_unique_queries"] = sum(
        len(np.unique(q, axis=0)) for q, _ in keep.get("nn_calls", ())
    )
    radius = 0.0
    for points, chosen in keep.get("coresets", ()):
        distinct = np.unique(np.asarray(points, dtype=np.float64), axis=0)
        dist, _ = cKDTree(np.asarray(points, dtype=np.float64)[chosen]).query(distinct)
        radius = max(radius, float(dist.max()))
    metrics["memory_bank.coreset_radius"] = radius

    featurized = [s.case_id for s in tracer.spans if s.name == "pipeline.featurize"]
    metrics["pipeline.featurize_per_case"] = len(featurized) / max(1, len(set(featurized)))
    busy = sum(b for b, _, _ in tracer.parallel)
    capacity = sum(wall * jobs for _, wall, jobs in tracer.parallel)
    metrics["pipeline.parallel_efficiency"] = busy / capacity if capacity else 0.0
    return metrics


def nn_oracle_mismatches(tracer) -> int:
    """Rows of the last traced test map where bulk_nn_distance != a float64 full scan.

    The oracle is the criterion-4 scan: plain elementwise squared distances
    to every entry, ties to the lowest index, compared bit for bit.
    """
    import numpy as np
    from mvpad.memory_bank import bulk_nn_distance

    queries, entries = tracer.keep["nn_calls"][-1]
    got_d2, got_idx = bulk_nn_distance(queries, entries)
    e64 = np.asarray(entries, dtype=np.float64)
    mismatches = 0
    for i, q in enumerate(np.asarray(queries, dtype=np.float64)):
        diff = e64 - q
        d2 = (diff * diff).sum(axis=1)
        j = int(np.argmin(d2))
        mismatches += int(got_idx[i] != j or got_d2[i] != d2[j])
    return mismatches


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mvpad" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mvpad source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    env = environment(args.seed, wl.jobs)

    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        out, values, record = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, directions = {}, {}
    for entry in declared:
        value = values[entry["name"]]
        if not math.isfinite(value):
            out.problems.append(f"metric {entry['name']} is {value!r}")
            value = None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        directions[entry["name"]] = entry["better"]
    correct = not out.problems
    record.update({"workload": wl.name, "tiny": args.tiny, "environment": env,
                   "directions": directions, "problems": out.problems})
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
