"""bixsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py                       # every workload, six metrics each
    python3 bench/run.py --workload spectrum_mix --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload fock_ladder --trace 1     # per-layer run
    python3 bench/run.py --workload sweep_maps --steady 10    # steadiness check

Run from the root of a checkout; bixsim is imported from its src/.  Every
measurement happens in a fresh child process (child.py) with BLAS pinned to
one thread.  One run of a workload starts SETUP_SAMPLES children: all of
them report set-up time (median taken), the last one also runs the timed
closed loop and the correctness gate.  With --trace 1 one untraced and one
traced child run instead, and the traced one reports the per-layer figures
together with the tracing overhead.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  See NOTES.md for why each metric and
workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "spectra_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed with the others but not listed in BENCHMARK.json: it is 0 whenever
# the program is correct; the result line carries it as attempted/failed
FAILED_FRAC = ("failed_frac", "1")
PER_LAYER = {
    "cli.import_s": "s",
    "phonons.build_kernels.self_ms": "ms/spectrum",
    "phonons.build_kernels.miss_ratio": "ratio",
    "phonons.polaron_dissipator.self_ms": "ms/spectrum",
    "system.assemble_liouvillian.self_ms": "ms/spectrum",
    "liouville.assembly.self_ms": "ms/spectrum",
    "liouville.steady_state.self_ms": "ms/spectrum",
    "liouville.regression_spectrum.self_ms": "ms/spectrum",
    "liouville.regression_spectrum.calls_per_spectrum": "calls/spectrum",
    "system.compute_spectrum_y.self_ms": "ms/spectrum",
    "sweeps.extract_peaks.self_ms": "ms/spectrum",
    "sweeps.map.self_ms": "ms/spectrum",
    "sweeps.row_concurrency": "ratio",
    "export.self_ms": "ms/spectrum",
    "export.bytes_written": "bytes",
    "run.cpu_s_per_spectrum": "s/spectrum",
    "trace.overhead": "ratio",
}
SETUP_SAMPLES = {"spectrum_mix": 5, "sweep_maps": 3, "fock_ladder": 3}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(workload, seed, seconds, mode, trace, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before all children ran")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--trace", str(trace), "--root", ROOT]
    spawned_at = ",".join(repr(x) for x in clock.snapshot())
    try:
        proc = subprocess.run(cmd + ["--spawned-at", spawned_at], env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} {mode} child exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out.get("setup_failed"):
        raise BenchError(f"{workload}: the first request failed")
    return out


def environment(seed):
    import importlib.metadata as md

    env = {k: os.environ.get(k) for k in PINNED}
    env.update({f"child {k}": v for k, v in PINNED.items()})
    env.update(cpu_count=os.cpu_count(), python=platform.python_version(), seed=seed,
               commit=git_commit())
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            env[pkg] = None
    env["openblas"] = blas_version()
    return env


def blas_version():
    code = ("import numpy, json; c = numpy.show_config(mode='dicts');"
            "print(c['Build Dependencies']['blas'].get('version'))")
    try:
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), timeout=60,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        return None
    return out.stdout.strip() or None


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def quartile3(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def end_to_end(setups, m):
    lat = m["latencies_ms"]
    if not lat:
        raise BenchError("no request completed in the timed loop")
    return {
        "setup_s": statistics.median(setups),
        "spectra_per_s": m["spectra"] / m["loop_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p75_ms": quartile3(lat),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; returns the result line as a dict."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        plain = run_child(workload, seed, seconds, "measure", 0, deadline)
        traced = run_child(workload, seed, seconds, "measure", 1, deadline)
        children = [plain, traced]
        if not (plain["spectra"] and traced["spectra"]):
            raise BenchError("no request completed in a timed loop")
        values = dict(traced["layers"])
        values["cli.import_s"] = traced["import_s"]
        values["export.bytes_written"] = traced["export_bytes_first"]
        values["run.cpu_s_per_spectrum"] = plain["cpu_s"] / plain["spectra"]
        values["trace.overhead"] = ((plain["spectra"] / plain["loop_s"])
                                    / (traced["spectra"] / traced["loop_s"]))
        units = PER_LAYER
    else:
        setups = [run_child(workload, seed, seconds, "setup", 0, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES[workload] - 1)]
        m = run_child(workload, seed, seconds, "measure", 0, deadline)
        children = [m]
        values = end_to_end(setups + [m["setup_s"]], m)
        units = END_TO_END
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0 and all(c["golden_ok"] for c in children)

    for c in children:
        lat = c["latencies_ms"]
        beyond = sum(x > quartile3(lat) for x in lat)
        print(f"# {workload} seed {seed}: {c['attempted']} requests, {c['spectra']} spectra,"
              f" {len(lat)} latency samples ({beyond} beyond p75),"
              f" gate checked {c['gate_checked']} outputs, rejected {c['gate_rejected']},"
              f" golden {'ok' if c['golden_ok'] else 'MISMATCH'};"
              f" loop {c['loop_wall_s']:.3f} s wall, {c['loop_s']:.3f} s without steal")
    for name, unit in units.items():
        v = values[name]
        print(f"{workload:13s} {name:50s} {'absent' if v is None else f'{v:.6g}'} {unit}")
    print(f"{workload:13s} {FAILED_FRAC[0]:50s} {failed / attempted:.6g} {FAILED_FRAC[1]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def steady(workload, seeds, seconds, trace):
    """Run a workload once per seed; print median, quartiles and spread."""
    bounds = {m["name"]: m.get("bound") for m in benchmark_spec()["end_to_end"]}
    runs = [run_workload(workload, s, seconds, trace) for s in seeds]
    print(f"# steadiness of {workload} over seeds {seeds[0]}..{seeds[-1]}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in vals) or len(vals) < 2:
            print(f"{name:50s} not enough values")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = "no bound"
        elif name == "setup_s":
            verdict = f"bound {bound:g}, median compared between checks"
        else:
            verdict = (f"bound {bound:g} " +
                       ("ok" if spread <= bound / 3 else
                        "within bound" if spread <= bound else "UNRESOLVED"))
        print(f"{name:50s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} {verdict}")
    return runs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed-loop length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run N times with seeds seed..seed+N-1 and report the spread")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bixsim", "__init__.py")):
        sys.exit(f"bixsim sources not found under {os.path.join(ROOT, 'src')}")
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print("# env " + json.dumps(environment(args.seed)))
    try:
        if args.steady:
            seeds = list(range(args.seed, args.seed + args.steady))
            for w in workloads:
                steady(w, seeds, seconds, args.trace)
            return
        results = [run_workload(w, args.seed, seconds, args.trace) for w in workloads]
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(workloads, results)}))


if __name__ == "__main__":
    main()
