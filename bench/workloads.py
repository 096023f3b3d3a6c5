"""Seeded request streams for the three benchmark workloads.

`request_specs` is pure Python: the same (workload, seed) always yields the
same sequence of plain-dict request specs, whatever bixsim looks like.  The
functions below it turn a spec into program calls and touch bixsim only
through its public API.

Discrete choices (phonons on/off, source) are dealt from shuffled blocks
rather than drawn independently, so the request mix of a run barely depends
on the seed and differences between seeds come from the continuous
parameters only.
"""

from __future__ import annotations

import random
from dataclasses import replace

WORKLOADS = ("spectrum_mix", "sweep_maps", "fock_ladder")

KAPPA_X = 74.0  # baseline x-mode loss (ueV); the detuning range is +-2 kappa_x
SWEEP_ROWS = 21  # CLI default is 41; 21 rows fit 4-6 maps into a 15 s run
FOCK_N_MAX_Y = 6  # L is 784 x 784


def _blocks(rng: random.Random, items):
    """Endless stream that deals `items` in seeded shuffled blocks."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def request_specs(workload: str, seed: int):
    """Endless, deterministic stream of request specs for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum_mix":
        # per block of twelve: 9 phonon-on, 2 `both` (one of them phonon-on).
        # The slow phonon-on `both` requests are 1/12, so p50 and p75 both fall
        # inside the phonon-on single-source cluster instead of at an edge.
        pairs = _blocks(rng, [(True, "y-dipole")] * 4 + [(True, "y-cavity")] * 4
                        + [(True, "both"), (False, "y-dipole"), (False, "y-cavity"),
                           (False, "both")])
        while True:
            on, source = next(pairs)
            yield {
                "kind": "spectrum",
                "splitting": round(rng.uniform(20.0, 300.0), 6),
                "laser_detuning": round(rng.uniform(-2.0, 2.0) * KAPPA_X, 6),
                "phonons": on,
                "temperature": round(rng.uniform(4.0, 30.0), 6) if on else None,
                "source": source,
                "n_max_y": 2,
                "peaks_and_export": True,  # as `bixsim spectrum` does
            }
    elif workload == "sweep_maps":
        while True:
            splitting = round(rng.uniform(60.0, 100.0), 6)
            for kind in ("power_map", "detuning_map"):
                yield {"kind": kind, "splitting": splitting, "rows": SWEEP_ROWS}
    else:
        while True:
            for on in (True, False):
                yield {
                    "kind": "spectrum",
                    "splitting": round(rng.uniform(60.0, 100.0), 6),
                    "laser_detuning": 0.0,
                    "phonons": on,
                    "temperature": None,
                    "source": "y-dipole",
                    "n_max_y": FOCK_N_MAX_Y,
                    "peaks_and_export": False,
                }


def baseline_config(bixsim):
    """The packaged baseline parameter set (bixsim/data/baseline.json)."""
    from importlib import resources

    with resources.as_file(
        resources.files("bixsim").joinpath("data/baseline.json")
    ) as path:
        return bixsim.load_config(path)


def spectrum_config(bixsim, base, spec):
    """SystemConfig of one `spectrum` request.

    The drive is calibrated at zero laser detuning and the laser is then
    detuned at fixed drive, as `bixsim detuning-sweep` does.
    """
    cfg = replace(
        base,
        source=spec["source"],
        numerics=replace(base.numerics, n_max_y=spec["n_max_y"]),
    )
    phonon = replace(cfg.phonon, enable=spec["phonons"])
    if spec["temperature"] is not None:
        phonon = replace(phonon, temperature=spec["temperature"])
    cfg = bixsim.calibrate_drive(replace(cfg, phonon=phonon, laser_detuning=0.0),
                                 spec["splitting"])
    return replace(cfg, laser_detuning=spec["laser_detuning"])


def map_config(bixsim, base, spec):
    """Base SystemConfig of one sweep request (calibrated packaged baseline)."""
    return bixsim.calibrate_drive(base, spec["splitting"])
