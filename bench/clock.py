"""Wall-clock time with the hypervisor's steal time taken out.

On a virtual machine the host may withhold a vCPU that has work to run;
Linux counts that time as `steal` in /proc/stat.  On the 2-vCPU machine this
benchmark was written on, 15 identical warm spectra took 1.98-3.46 s of wall
time while the process used 1.84-1.95 s of CPU: steal, not the program, made
most of the run-to-run spread.  Every time the benchmark reports is
therefore wall time minus the steal accrued in the same interval.

Steal accrues only on vCPUs that are busy, summed over all of them.  Dividing
it by the mean number of busy vCPUs in the interval (at least one) keeps the
correction right when the program runs on both vCPUs at once, where both
threads lose time in parallel.  Where /proc/stat is missing the correction
is zero and the times are plain wall time.
"""

from __future__ import annotations

import os
import time


def snapshot():
    """(monotonic wall s, steal s, busy s incl. steal) summed over all CPUs."""
    wall = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return wall, 0.0, 0.0
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    hz = os.sysconf("SC_CLK_TCK")
    return wall, steal / hz, (user + nice + system + irq + softirq + steal) / hz


def stolen_share(t0, t1):
    """Share of the wall time between two snapshots that steal took from us.

    Not clamped: /proc/stat counts whole 10 ms ticks, so a short interval can
    read more or less than its true steal, but sums over many intervals
    stay unbiased.
    """
    wall = t1[0] - t0[0]
    if wall <= 0:
        return 0.0
    busy_vcpus = max((t1[2] - t0[2]) / wall, 1.0)
    return (t1[1] - t0[1]) / busy_vcpus / wall


def elapsed(t0, t1):
    """Steal-corrected seconds between two snapshots, and the raw wall seconds."""
    wall = t1[0] - t0[0]
    return max(wall * (1.0 - stolen_share(t0, t1)), 0.0), wall
