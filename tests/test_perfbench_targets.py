"""The benchmark tracer's wrap targets still name attributes that exist.

`perfbench/spans.Tracer.install()` replaces every dotted name in `TARGETS`
and `PARALLEL_MAP_NAMES` with a timing wrapper, and raises AttributeError on
a missing one, which breaks the traced benchmark. Renaming or dropping such an
import in `mvpad` must fail here too, not only in `perfbench/test_smoke.py`.
These tests only read `perfbench/spans.py`. The last one pins how scoring
calls the wrapped NN function, whose arguments the tracer's NN counter and
NN oracle read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _dotted_names() -> list[str]:
    spans = _load_spans()
    names = [dotted for _, dotted_names, _ in spans.TARGETS for dotted in dotted_names]
    return names + list(spans.PARALLEL_MAP_NAMES)


@pytest.mark.parametrize("dotted", _dotted_names())
def test_tracer_target_resolves_to_a_callable(dotted):
    module_name, attr = dotted.rsplit(".", 1)
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{dotted} is not a callable attribute"


def test_anomaly_map_calls_bulk_nn_distance_by_its_module_name(monkeypatch):
    """The tracer times NN scoring, and replays its oracle, through the name
    `mvpad.memory_bank.bulk_nn_distance` called with (queries, entries) as its
    first two positional arguments: one call per map."""
    import numpy as np

    from mvpad import memory_bank
    from mvpad.features import FeatureGrid
    from mvpad.projection import ProjectionType

    calls = []
    real = memory_bank.bulk_nn_distance

    def recorder(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(memory_bank, "bulk_nn_distance", recorder)
    rng = np.random.default_rng(5)
    ptype = ProjectionType.RIGHT_CORONAL
    bank = memory_bank.MemoryBank(
        ptype=ptype, entries=rng.random((7, 3)), extractor_hash="h", coreset_frac=1.0, source_count=7
    )
    grids = [
        FeatureGrid(
            ptype=ptype, features=rng.random((3, 4, 3), dtype=np.float32), extractor_hash="h",
            patch_size=3, stride=2, canvas=(7, 9),
        )
        for _ in range(3)
    ]
    for n, grid in enumerate(grids, start=1):
        memory_bank.anomaly_map(grid, bank)
        assert len(calls) == n
        queries, entries = calls[-1][:2]
        assert queries.shape == grid.flat().shape and queries.tobytes() == grid.flat().tobytes()
        assert entries is bank.entries
