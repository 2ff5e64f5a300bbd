"""Every function the benchmark hooks must exist under its hooked name.

``perfbench/spans.py`` wraps library functions where other code looks them
up, by module attribute (``irrev.cli.measure``,
``irrev.surrogates.percentile_nearest_rank``, ...). A refactor that drops
one of those names would crash the benchmark when it installs its hooks, so
this test reads the hook table, without installing it, and resolves each
name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooked_names():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module_name, attr) for module_name, attr, *_ in spans.HOOKS]


@pytest.mark.parametrize("module_name, attr", _hooked_names())
def test_hooked_name_is_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
