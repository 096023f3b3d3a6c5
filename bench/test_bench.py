"""Tests of the benchmark itself (not of bixsim).

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stdout
from itertools import islice

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bixsim  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import clock  # noqa: E402
from tracer import Tracer, child_busy, layer_totals, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    baseline_config,
    map_config,
    request_specs,
    spectrum_config,
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    first = list(islice(request_specs(workload, 7), 30))
    again = list(islice(request_specs(workload, 7), 30))
    other = list(islice(request_specs(workload, 8), 30))
    assert first == again
    assert first != other
    base = baseline_config(bixsim)
    build = spectrum_config if first[0]["kind"] == "spectrum" else map_config
    assert ([build(bixsim, base, s) for s in first[:6]]
            == [build(bixsim, base, s) for s in again[:6]])


def test_spectrum_mix_deals_the_stated_mix():
    block = list(islice(request_specs("spectrum_mix", 3), 12))
    assert sum(s["phonons"] for s in block) == 9
    assert [s["source"] for s in block].count("both") == 2
    for s in block:
        assert 20.0 <= s["splitting"] <= 300.0
        assert abs(s["laser_detuning"]) <= 2 * 74.0
        assert s["temperature"] is None or 4.0 <= s["temperature"] <= 30.0


def fake_child(attempted=4):
    return {"setup_s": 2.0, "import_s": 1.5, "attempted": attempted, "failed": 0,
            "gate_checked": 1, "gate_rejected": 0, "golden_ok": True, "spectra": 3,
            "loop_s": 1.5, "loop_wall_s": 1.6, "cpu_s": 1.4, "latencies_ms": [400.0, 500.0, 600.0],
            "peak_rss_mb": 120.0, "export_bytes_first": 1000,
            "layers": {n: 1.0 for n in run.PER_LAYER}}


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_names_match_benchmark_json(monkeypatch, trace):
    spec = load_spec()
    assert list(WORKLOADS) == [w["name"] for w in spec["workloads"]]
    monkeypatch.setattr(run, "run_child", lambda *a, **k: fake_child())
    out = io.StringIO()
    with redirect_stdout(out):
        result = run.run_workload("spectrum_mix", 1, 1.0, trace)
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in out.getvalue().splitlines()
               if line.startswith("spectrum_mix")}
    assert printed == {**expected, "failed_frac": "1"}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.fixture(scope="module")
def baseline_spectrum():
    cfg = baseline_config(bixsim)
    return cfg, bixsim.compute_spectrum_y(cfg).intensity


def test_gate_accepts_the_program_and_rejects_a_1e6_perturbation(baseline_spectrum):
    cfg, intensity = baseline_spectrum
    assert gate.check_spectrum(bixsim, cfg, intensity, random.Random(0)) is None
    bumped = intensity * (1.0 + 1e-6)
    assert gate.check_spectrum(bixsim, cfg, bumped, random.Random(0)) is not None
    # a perturbation away from the argmax is caught at the sampled points
    idx = gate.pick_points(intensity, np.linspace(-1400, 1400, intensity.size),
                           random.Random(1))
    shifted = intensity.copy()
    shifted[idx[1:]] += 1e-6
    assert gate.check_spectrum(bixsim, cfg, shifted, random.Random(1)) is not None


def test_golden_copy(baseline_spectrum):
    _, intensity = baseline_spectrum
    golden = gate.load_golden(os.path.join(HERE, "golden_baseline.json"))
    assert gate.check_golden(intensity, golden) is None
    assert gate.check_golden(intensity * (1.0 + 1e-6), golden) is not None


def test_oracle_steady_state_is_a_density_matrix(baseline_spectrum):
    cfg, _ = baseline_spectrum
    liouv = bixsim.assemble_liouvillian(cfg)
    rho = gate.oracle_steady_state(liouv)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.norm(rho - rho.conj().T) < 1e-10
    assert np.linalg.norm(liouv @ rho.reshape(-1, order="F")) < 1e-9


def test_self_times_on_a_synthetic_span_tree():
    # id, name, start, end, parent, request
    spans = [
        [0, "root", 0.0, 10.0, None, 1],
        [1, "a", 1.0, 4.0, 0, 1],
        [2, "b", 3.0, 6.0, 0, 1],  # overlaps a: the union 1..6 counts once
        [3, "c", 2.0, 3.0, 1, 1],
        [4, "a", 20.0, 22.0, None, 2],
        [5, "a", 30.0, 34.0, None, 3],
    ]
    assert self_times(spans) == pytest.approx(
        {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 4.0})
    # request 2 is left out; steal took half of request 3
    totals = layer_totals(spans, stolen={1: 0.0, 3: 0.5})
    assert totals["a"] == pytest.approx({"self_s": 2.0 + 2.0, "calls": 2})
    assert totals["root"]["self_s"] == pytest.approx(5.0)
    busy, wall = child_busy(spans, "root", "a")
    assert (busy, wall) == pytest.approx((3.0, 10.0))


def test_steal_correction():
    # wall, steal, busy (both summed over vCPUs)
    t0 = (0.0, 0.0, 0.0)
    assert clock.elapsed(t0, (10.0, 3.0, 10.0)) == pytest.approx((7.0, 10.0))
    # two busy vCPUs lose time in parallel: 3 s stolen from each costs 3 s
    assert clock.elapsed(t0, (10.0, 6.0, 20.0)) == pytest.approx((7.0, 10.0))


def test_tracer_marks_missing_boundaries_absent_and_restores():
    import bixsim.system as system

    original = system.steady_state
    tracer = Tracer()
    absent = tracer.install({
        "liouville.steady_state": ("bixsim.system.steady_state",),
        "gone": ("bixsim.system.no_such_function", "no_such_module.f"),
    })
    try:
        assert absent == ["gone"]
        assert system.steady_state is not original
        tracer.request = 5
        system.steady_state(bixsim.assemble_liouvillian(baseline_config(bixsim)))
    finally:
        tracer.uninstall()
    assert system.steady_state is original
    assert [(s[1], s[5]) for s in tracer.spans] == [("liouville.steady_state", 5)]
