"""The benchmark tracer's wrap targets still name attributes that exist.

`perfbench/spans.Tracer.install()` replaces every dotted name in `TARGETS`
and `PARALLEL_MAP_NAMES` with a timing wrapper, and raises AttributeError on
a missing one, which breaks the traced benchmark. Renaming or dropping such an
import in `mvpad` must fail here too, not only in `perfbench/test_smoke.py`.
This test only reads `perfbench/spans.py`.
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
