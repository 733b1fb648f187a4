"""The traced benchmark run wraps bellopt functions by name; check the names resolve.

``perfbench/layers.py`` replaces each name in ``PATCH_POINTS`` on its module
with a span wrapper through ``getattr``/``setattr``, so a rename in
``src/bellopt`` would break ``perfbench/run.py --trace 1`` without failing any
other test.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    layers = _load_layers()
    for module_name, names in layers.PATCH_POINTS.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module_name} has no {missing}"


def test_installed_spans_restore_the_originals():
    layers = _load_layers()
    modules = {name: importlib.import_module(name) for name in layers.PATCH_POINTS}
    before = {(m, n): getattr(modules[m], n) for m, names in layers.PATCH_POINTS.items()
              for n in names}
    spans = layers.Spans()
    with spans.installed("probe"):
        for (m, n), original in before.items():
            assert getattr(modules[m], n) is not original
    for (m, n), original in before.items():
        assert getattr(modules[m], n) is original
