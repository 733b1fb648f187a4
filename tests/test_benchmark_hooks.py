"""The traced benchmark run wraps bellopt functions by name and probes them directly.

``perfbench/layers.py`` replaces each name in ``PATCH_POINTS`` on its module
with a span wrapper through ``getattr``/``setattr``, and its probes build
parameter vectors, circuits and tables through the public functions. A
rename or a layout change in ``src/bellopt`` would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_probe_chain_runs_at_na0(monkeypatch):
    # The chain the probes run, with each timed call made once.
    layers = _load_layers()
    monkeypatch.setattr(layers, "_median_seconds", lambda spans, metric, fn: (fn(), 1.0)[1])
    rng = np.random.default_rng(1)
    params = layers.CircuitParams.from_vector(layers.initial_vector(0, 0.5, rng), 4)
    assert np.isfinite(layers.objective(params, 0))
    assert layers.gradient(params, 0).shape == (params.dim,)
    costs = layers._batch_costs_us(layers.Spans(), 0, 1, batched=True)
    assert costs["batch"] == 2 * params.dim


def test_enumerate_probe_builds_the_cached_states():
    # The fock.enumerate_ms probe times the builder behind the cache.
    from bellopt.fock import enumerate_outcomes

    assert callable(enumerate_outcomes.__wrapped__)
    assert np.array_equal(enumerate_outcomes.__wrapped__(4, 6), enumerate_outcomes(4, 6))
