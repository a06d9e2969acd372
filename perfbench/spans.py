"""Spans recorded from outside mvpad, by wrapping the names its modules call.

`Tracer.install()` replaces module attributes such as
``mvpad.pipeline.project_case`` or ``mvpad.memory_bank.greedy_coreset`` with
thin wrappers. `mvpad.pipeline` and `mvpad.cli` look those names up in their
module globals on every call, so the wrappers see every call without any edit
to ``src/``. `Tracer.uninstall()` puts the originals back.

A span records name, start, end, parent span, case id and thread. Spans stay
in memory; `Tracer.write_jsonl` writes them when the run ends. A wrapper may
also record counts taken from argument and result shapes, and may keep
references to arrays that are only analysed after timing ends (unique rows,
covering radius), so that analysis never lands inside a span.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    case_id: str | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _case_id_of(args) -> str | None:
    """Case id of a call whose first argument is a case, record or features."""
    return getattr(args[0], "case_id", None) if args else None


def _count_generate_case(args, kwargs, result, keep):
    dims = args[0].dims
    return {"voxels": int(dims[0] * dims[1] * dims[2])}


def _count_save_volume(args, kwargs, result, keep):
    return {"bytes": os.path.getsize(args[1])}


def _count_load_volume(args, kwargs, result, keep):
    return {"bytes": os.path.getsize(args[0])}


def _count_project(args, kwargs, result, keep):
    return {"voxels": int(args[0].voxels.size)}


def _count_extract(args, kwargs, result, keep):
    return {"images": 1, "patches": int(result.flat().shape[0])}


def _count_aggregate(args, kwargs, result, keep):
    keep.setdefault("bank_rows", []).append(result)
    return {"rows": int(result.shape[0])}


def _count_coreset(args, kwargs, result, keep):
    points, size = args[0], int(args[1])
    keep.setdefault("coresets", []).append((points, result))
    n, d = points.shape
    return {"rows": int(n), "coreset_size": size, "madds": int(size) * int(n) * int(d)}


def _count_nn(args, kwargs, result, keep):
    queries, entries = args[0], args[1]
    keep.setdefault("nn_calls", []).append((queries, entries))
    q, d = queries.shape
    return {"queries": int(q), "madds": int(q) * int(entries.shape[0]) * int(d)}


def _count_reverse_project(args, kwargs, result, keep):
    # the float64 replica of the plane along the collapsed axis
    voxels = int(np.asarray(args[2]).size)
    return {"voxels": voxels, "bytes_computed": 8 * voxels}


def _count_fuse(args, kwargs, result, keep):
    # the float64 fused volume
    return {"bytes_computed": 8 * int(result.values.size)}


# (span name, names it is bound under, counter). Every name is a module
# attribute that mvpad code or this benchmark calls through; a function
# imported into several modules is wrapped under each name.
TARGETS = (
    ("phantom.generate_dataset", ("mvpad.phantom.generate_dataset", "mvpad.cli.generate_dataset"), None),
    ("phantom.generate_case", ("mvpad.phantom.generate_case",), _count_generate_case),
    ("volume.save", ("mvpad.phantom.save_volume", "mvpad.cli.save_volume"), _count_save_volume),
    ("pipeline.load_case", ("mvpad.pipeline.load_case",), None),
    ("volume.load", ("mvpad.pipeline.load_volume",), _count_load_volume),
    ("segmentation.split", ("mvpad.pipeline.split_left_right",), None),
    ("pipeline.featurize", ("mvpad.pipeline.compute_case_features", "mvpad.cli.compute_case_features"), None),
    ("projection.project", ("mvpad.pipeline.project_case",), _count_project),
    ("features.extract", ("mvpad.pipeline.extract_features",), _count_extract),
    ("memory_bank.build", ("mvpad.pipeline.build_bank",), None),
    ("memory_bank.aggregate", ("mvpad.memory_bank.aggregate_bank",), _count_aggregate),
    ("memory_bank.coreset", ("mvpad.memory_bank.greedy_coreset",), _count_coreset),
    ("memory_bank.map", ("mvpad.pipeline.anomaly_map",), None),
    ("memory_bank.nn", ("mvpad.memory_bank.bulk_nn_distance",), _count_nn),
    ("memory_bank.io", ("mvpad.cli.save_bank", "mvpad.cli.load_bank"), None),
    ("pipeline.raw_scores", ("mvpad.pipeline.raw_scores", "mvpad.cli.raw_scores"), None),
    ("evaluation.calibrate", ("mvpad.pipeline.calibrate",), None),
    ("evaluation.roc", ("mvpad.evaluation.roc_auc", "mvpad.cli.roc_auc"), None),
    ("pipeline.localize", ("mvpad.pipeline.localize_case", "mvpad.cli.localize_case"), None),
    ("reconstruction.normalize2d", ("mvpad.pipeline.mask_normalize_2d",), None),
    ("reconstruction.reverse_project", ("mvpad.pipeline.reverse_project",), _count_reverse_project),
    ("reconstruction.fuse", ("mvpad.pipeline.fuse_per_lung", "mvpad.pipeline.fuse_final"), _count_fuse),
    ("reconstruction.binarize", ("mvpad.pipeline.binarize_top",), None),
)

PARALLEL_MAP_NAMES = ("mvpad.pipeline.parallel_map", "mvpad.cli.parallel_map")


def _resolve(dotted: str):
    module_name, attr = dotted.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Tracer:
    """In-memory span recorder that wraps mvpad functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.keep: dict = {}  # arrays analysed after timing
        self.parallel: list[tuple[float, float, int]] = []  # (busy cpu s, wall s, jobs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, case_id: str | None = None) -> Span:
        stack = self._stack()
        parent, parent_case = stack[-1] if stack else (None, None)
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent,
            case_id=case_id if case_id is not None else parent_case,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append((span.id, span.case_id))
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def span(self, name: str, case_id: str | None = None):
        span = self.open(name, case_id)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, _case_id_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result, tracer.keep)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_parallel_map(self, fn):
        tracer = self

        def parallel_map(task_fn, items, jobs=1):
            outer = tracer.open("pipeline.parallel_map")
            stack_top = tracer._stack()[-1]
            busy = []

            def task(item):
                # worker threads start with an empty stack: hang their spans
                # under the parallel_map span that submitted them
                stack = tracer._stack()
                depth = len(stack)
                stack.append(stack_top)
                cpu = time.thread_time()
                try:
                    return task_fn(item)
                finally:
                    busy.append(time.thread_time() - cpu)
                    del stack[depth:]

            try:
                return fn(task, items, jobs)
            finally:
                tracer.close(outer)
                used = jobs if jobs > 1 and len(items) > 1 else 1
                tracer.parallel.append((sum(busy), outer.end - outer.start, used))

        parallel_map.__wrapped__ = fn
        return parallel_map

    def install(self) -> None:
        wrapped: dict[tuple[str, int], object] = {}
        for name, dotted_names, counter in TARGETS:
            for dotted in dotted_names:
                module, attr = _resolve(dotted)
                original = getattr(module, attr)
                key = (name, id(original))
                if key not in wrapped:
                    wrapped[key] = self._wrap(name, original, counter)
                self._patch(module, attr, wrapped[key])
        for dotted in PARALLEL_MAP_NAMES:
            module, attr = _resolve(dotted)
            self._patch(module, attr, self._wrap_parallel_map(getattr(module, attr)))

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered, cursor = 0.0, span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = (span.end - span.start) - covered
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "parent": span.parent,
                            "case_id": span.case_id,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "counts": span.counts,
                        }
                    )
                )
                fh.write("\n")
