"""What the benchmark in `bench/` calls of bixsim keeps working.

The benchmark's gate (`bench/gate.py`) checks sampled spectra against its
own oracle on the whole L of `assemble_liouvillian`, with the whole-L form
of `steady_state`, and its tracer (`bench/tracer.py`) patches bixsim
functions by their dotted names to time each layer.  Both reach into the
package by name, so these tests fail when a rename or a dropped call form
would break the benchmark.  The per-layer figures a traced run prints
(`bench/child.py`) must also stay strict JSON.
"""

import json
import os
import random
import sys

import pytest

import bixsim

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import child  # noqa: E402
import gate  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def baseline():
    path = os.path.join(os.path.dirname(bixsim.__file__), "data", "baseline.json")
    cfg = bixsim.load_config(path)
    return cfg, bixsim.compute_spectrum_y(cfg).intensity


def test_gate_passes_the_packaged_baseline(baseline):
    cfg, intensity = baseline
    assert gate.check_spectrum(bixsim, cfg, intensity, random.Random(0)) is None
    golden = gate.load_golden(os.path.join(BENCH, "golden_baseline.json"))
    assert gate.check_golden(intensity, golden) is None


def test_tracer_finds_every_layer_on_the_spectrum_path(baseline):
    cfg, _ = baseline
    originals = {}
    for targets in BOUNDARIES.values():
        for target in targets:
            module, attr = target.rsplit(".", 1)
            if module in sys.modules and hasattr(sys.modules[module], attr):
                originals[target] = getattr(sys.modules[module], attr)
    tracer = Tracer()
    absent = tracer.install()
    try:
        assert absent == []
        tracer.request = 0
        bixsim.compute_spectrum_y(cfg)
    finally:
        tracer.uninstall()
    for target, fn in originals.items():
        module, attr = target.rsplit(".", 1)
        assert getattr(sys.modules[module], attr) is fn, target
    calls = {}
    for span in tracer.spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    for layer in ("phonons.build_kernels", "phonons.polaron_dissipator",
                  "liouville.assembly", "liouville.steady_state",
                  "system.compute_spectrum_y"):
        assert calls.get(layer, 0) >= 1, layer
    assert calls["liouville.regression_spectrum"] == 1


def test_traced_layer_metrics_are_strict_json(baseline):
    # a traced run prints its result as the last line of its output; every
    # per-layer figure must be a finite number or null so that line parses
    # with the strictest reader
    cfg, _ = baseline
    kernels = sys.modules["bixsim.phonons"].build_kernels
    tracer = Tracer()
    absent = tracer.install()
    try:
        cache0 = kernels.cache_info()
        tracer.request = 1
        bixsim.compute_spectrum_y(cfg)
        cache1 = kernels.cache_info()
    finally:
        tracer.uninstall()
    metrics = child.layer_metrics(tracer, absent, {1: 0.0}, 1, cache0, cache1)
    assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics
    for layer in ("phonons.polaron_dissipator", "liouville.assembly",
                  "liouville.steady_state", "liouville.regression_spectrum"):
        assert metrics[f"{layer}.self_ms"] > 0.0, layer
