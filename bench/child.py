"""One benchmark child process: set up, run one workload, print one JSON line.

Started by run.py with BLAS pinned to one thread and PYTHONPATH pointing at
the checkout's src/.  Modes:

  setup    import bixsim, complete the workload's first request, report
           setup time, exit;
  measure  the same, then a closed loop (one client, next request after the
           previous one completes) for --seconds, then the correctness gate
           on a seeded sample of the outputs.

With --trace 1 the boundary functions are wrapped (tracer.py) before the
first request and the per-layer figures of the timed loop are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import replace

import clock
from workloads import WORKLOADS, baseline_config, map_config, request_specs, spectrum_config

GATE_SAMPLES = {"spectrum_mix": 5, "sweep_maps": 2, "fock_ladder": 1}
GATE_ROWS_PER_MAP = 2


class Runner:
    """Executes request specs through bixsim's public API.

    Functions are looked up on their modules at call time so that the
    tracer's wrappers, when installed, are the ones called.
    """

    def __init__(self, bixsim, workdir):
        self.bixsim = bixsim
        self.export = sys.modules["bixsim.export"]
        self.base = baseline_config(bixsim)
        self.workdir = workdir

    def config(self, spec):
        if spec["kind"] == "spectrum":
            return spectrum_config(self.bixsim, self.base, spec)
        return map_config(self.bixsim, self.base, spec)

    def run(self, spec, cfg):
        """Run one request; return (spectra computed, output, bytes exported)."""
        b = self.bixsim
        kind = spec["kind"]
        if kind == "spectrum":
            result = b.compute_spectrum_y(cfg)
            if not spec["peaks_and_export"]:
                return 1, result.intensity, 0
            b.extract_peaks(result)
            paths = self.export.export_spectrum(result, self.workdir)
            return 1, result.intensity, _size(paths)
        if kind == "power_map":
            sweep = b.power_sweep(cfg, n_rows=spec["rows"])
            stem = "power"
        else:
            sweep = b.detuning_sweep(cfg, n_rows=spec["rows"])
            stem = "detuning"
        paths = self.export.export_map(sweep, self.workdir, stem=stem)
        return sweep.axis1.size, (sweep.axis1, sweep.values), _size(paths)


def _size(paths):
    return sum(os.path.getsize(p) for p in paths)


def gate_outputs(bixsim, gate, spec, cfg, output, rng):
    """Reason the output of one request fails the gate, or None."""
    if spec["kind"] == "spectrum":
        return gate.check_spectrum(bixsim, cfg, output, rng)
    axis1, values = output
    # row 0 of a power map has zero drive: a dark row whose per-row
    # normalization only rescales rounding noise, so it is not compared
    first = 1 if spec["kind"] == "power_map" else 0
    for i in rng.sample(range(first, len(axis1)), GATE_ROWS_PER_MAP):
        if spec["kind"] == "power_map":
            row_cfg = replace(cfg, drive=replace(cfg.drive, omega=float(axis1[i]),
                                                 eta1=None, eta2=None))
        else:
            row_cfg = replace(cfg, laser_detuning=float(axis1[i]))
        reason = gate.check_spectrum(bixsim, row_cfg, values[i], rng)
        if reason:
            return f"row {i}: {reason}"
    return None


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", required=True,
                   help="clock.snapshot() taken by the parent before spawning, "
                        "comma-separated")
    p.add_argument("--root", required=True)
    args = p.parse_args(argv)

    spawned_at = tuple(float(x) for x in args.spawned_at.split(","))
    t0 = clock.snapshot()
    import bixsim
    import bixsim.export  # noqa: F401  (export_spectrum/export_map live here)
    import_s = clock.elapsed(t0, clock.snapshot())[0]
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(bixsim.__file__).startswith(src + os.sep):
        sys.exit(f"bixsim imported from {bixsim.__file__}, not from {src}")

    import gate

    tracer = None
    absent = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        absent = tracer.install()

    workdir = os.path.join(args.root, "bench", "out",
                           f"{args.workload}-{args.mode}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(bixsim, workdir)
    specs = request_specs(args.workload, args.seed)
    sample_rng = random.Random(f"gate:{args.workload}:{args.seed}")
    k = GATE_SAMPLES[args.workload]
    reservoir = []  # (request index, spec, cfg, output)
    stolen = {}  # request index -> share of its wall time taken by steal
    solver_errors = 0
    latencies = []
    spectra = 0

    def request(i):
        nonlocal solver_errors
        spec = next(specs)
        cfg = runner.config(spec)
        if tracer:
            tracer.request = i
        t = clock.snapshot()
        try:
            n, output, nbytes = runner.run(spec, cfg)
        except bixsim.SolverError as exc:
            print(f"request {i} failed: {exc}", file=sys.stderr)
            solver_errors += 1
            return 0, 0.0, 0
        t_end = clock.snapshot()
        dt = clock.elapsed(t, t_end)[0]
        stolen[i] = clock.stolen_share(t, t_end)
        # reservoir sample of k outputs over all requests
        if len(reservoir) < k:
            reservoir.append((i, spec, cfg, output))
        else:
            j = sample_rng.randrange(i + 1)
            if j < k:
                reservoir[j] = (i, spec, cfg, output)
        return n, dt, nbytes

    first = request(0)
    setup_s = clock.elapsed(spawned_at, clock.snapshot())[0]
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup" or first[0] == 0:
        result["setup_failed"] = first[0] == 0
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return

    kernels_fn = getattr(sys.modules.get("bixsim.phonons"), "build_kernels", None)
    cache = getattr(kernels_fn, "cache_info", None)
    cache0 = cache() if cache else None
    attempted = 1
    cpu0 = time.process_time()
    loop0 = clock.snapshot()
    while time.clock_gettime(time.CLOCK_MONOTONIC) - loop0[0] < args.seconds:
        n, dt, _ = request(attempted)
        attempted += 1
        if n:
            spectra += n
            latencies.append(dt * 1e3)
    loop_s, loop_wall_s = clock.elapsed(loop0, clock.snapshot())
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache1 = cache() if cache else None
    if tracer:
        tracer.uninstall()

    rejected = []
    for i, spec, cfg, output in reservoir:
        reason = gate_outputs(bixsim, gate, spec, cfg, output, sample_rng)
        if reason:
            rejected.append(f"request {i} ({spec}): {reason}")
    golden = gate.load_golden(os.path.join(args.root, "bench", "golden_baseline.json"))
    golden_reason = gate.check_golden(
        bixsim.compute_spectrum_y(runner.base).intensity, golden)
    for reason in rejected + ([golden_reason] if golden_reason else []):
        print(f"gate: {reason}", file=sys.stderr)

    result.update({
        "attempted": attempted,
        "failed": solver_errors + len(rejected),
        "gate_checked": len(reservoir),
        "gate_rejected": len(rejected),
        "golden_ok": golden_reason is None,
        "spectra": spectra,
        "loop_s": loop_s,
        "loop_wall_s": loop_wall_s,
        "cpu_s": cpu_s,
        "latencies_ms": latencies,
        "peak_rss_mb": rss_mb,
        "export_bytes_first": first[2],
    })
    if tracer:
        stolen.pop(0)  # the set-up request is not part of the timed loop
        result["layers"] = layer_metrics(tracer, absent, stolen, spectra, cache0, cache1)
        tracer.dump(os.path.join(args.root, "bench", "out",
                                 f"spans-{args.workload}-{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "absent": absent})
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def layer_metrics(tracer, absent, stolen, spectra, cache0, cache1):
    """Per-layer figures of the requests in `stolen` (request -> stolen share);
    None marks an absent boundary."""
    from tracer import child_busy, layer_totals

    totals = layer_totals(tracer.spans, stolen)
    per = max(spectra, 1)

    def self_ms(layer):
        if layer in absent:
            return None
        return totals.get(layer, {"self_s": 0.0})["self_s"] * 1e3 / per

    out = {f"{layer}.self_ms": self_ms(layer) for layer in (
        "phonons.build_kernels", "phonons.polaron_dissipator",
        "system.assemble_liouvillian", "liouville.assembly",
        "liouville.steady_state", "liouville.regression_spectrum",
        "system.compute_spectrum_y", "sweeps.extract_peaks", "sweeps.map")}
    out["export.self_ms"] = self_ms("export")
    reg = "liouville.regression_spectrum"
    out[f"{reg}.calls_per_spectrum"] = (
        None if reg in absent else totals.get(reg, {"calls": 0})["calls"] / per)
    if cache0 is None or "phonons.build_kernels" in absent:
        out["phonons.build_kernels.miss_ratio"] = None
    else:
        calls = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses)
        misses = cache1.misses - cache0.misses
        out["phonons.build_kernels.miss_ratio"] = misses / calls if calls else 0.0
    if "sweeps.map" in absent or "system.compute_spectrum_y" in absent:
        out["sweeps.row_concurrency"] = None
    else:
        busy, wall = child_busy(tracer.spans, "sweeps.map", "system.compute_spectrum_y",
                                stolen)
        out["sweeps.row_concurrency"] = busy / wall if wall else 0.0
    return out


if __name__ == "__main__":
    main()
