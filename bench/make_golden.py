"""Write golden_baseline.json: the packaged baseline spectrum.

The correctness gate compares every run's baseline spectrum against this
copy within 1e-10 relative, so a refactor that changes the spectra fails the
benchmark.  Regenerate only when a change of the physics is intended:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/make_golden.py
"""

import json
import os

import bixsim
from workloads import baseline_config

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    result = bixsim.compute_spectrum_y(baseline_config(bixsim))
    with open(os.path.join(HERE, "golden_baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": "bixsim/data/baseline.json",
                   "intensity": [float(x) for x in result.intensity]}, fh, indent=0)
        fh.write("\n")
