"""In-memory span tracer for the traced benchmark run.

The tracer wraps boundary functions of bixsim under the module attribute
its caller looks them up by (for example ``bixsim.system.polaron_dissipator``,
which `assemble_liouvillian` resolves through the `system` module globals).
Each call records a span: id, layer name, start, end, parent span and the
benchmark request it belongs to.  Nothing is written until `dump`.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans (overlapping children count once), so a
layer wrapped inside another is never counted twice.  Code that is not
wrapped (`dressed`, `hilbert`, `units`, small helpers) lands in the self
time of the nearest wrapped caller.  Self times are reported without the
share of each request's wall time that steal took (clock.py); a request is
long enough for /proc/stat's 10 ms ticks, most spans are not.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# layer name -> attributes its callers resolve at call time
BOUNDARIES = {
    "phonons.build_kernels": ("bixsim.system.build_kernels",),
    "phonons.polaron_dissipator": ("bixsim.system.polaron_dissipator",),
    "system.assemble_liouvillian": ("bixsim.system.assemble_liouvillian",),
    "liouville.assembly": (
        "bixsim.system.liouvillian",
        "bixsim.system.lindblad_dissipator",
    ),
    "liouville.steady_state": ("bixsim.system.steady_state",),
    "liouville.regression_spectrum": ("bixsim.liouville.regression_spectrum",),
    "system.compute_spectrum_y": (
        "bixsim.compute_spectrum_y",
        "bixsim.sweeps.compute_spectrum_y",
    ),
    "sweeps.extract_peaks": ("bixsim.extract_peaks",),
    "sweeps.map": ("bixsim.power_sweep", "bixsim.detuning_sweep"),
    "export": ("bixsim.export.export_spectrum", "bixsim.export.export_map"),
}


class Tracer:
    """Records spans; `install` patches the boundaries, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, request]
        self.request = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a span opened on a worker thread belongs to the main thread's
        # innermost open span (e.g. a sweep row run by a thread pool)
        if threading.get_ident() != self._main and self._main_stack:
            return self._main_stack[-1]
        return None

    def begin(self, name):
        stack = self._stack()
        span = [len(self.spans), name, time.perf_counter(), None, self._parent(stack),
                self.request]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def end(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def install(self, boundaries=BOUNDARIES):
        """Patch every boundary that exists; return the layers found absent."""
        absent = []
        for layer, targets in boundaries.items():
            found = 0
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, layer))
                found += 1
            if not found:
                absent.append(layer)
        return absent

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path, extra=None):
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       **(extra or {})}, fh)
            fh.write("\n")


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered = [(max(s, start), min(e, end)) for s, e in children[sid]]
        covered = [(s, e) for s, e in covered if e > s]
        out[sid] = (end - start) - _union_length(covered)
    return out


def layer_totals(spans, stolen):
    """Per layer: summed self time (s) without steal, and span count.

    `stolen` maps request id -> share of that request's wall time taken by
    steal; spans of other requests are not counted.
    """
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for sid, name, _, _, _, request in spans:
        if request in stolen:
            totals[name]["self_s"] += selfs[sid] * (1.0 - stolen[request])
            totals[name]["calls"] += 1
    return dict(totals)


def child_busy(spans, parent_name, child_name, requests=None):
    """(summed duration of `child_name` spans under `parent_name` spans,
    summed duration of those parent spans)."""
    by_id = {s[0]: s for s in spans}
    parent_ids = {
        s[0] for s in spans
        if s[1] == parent_name and (requests is None or s[5] in requests)
    }
    busy = sum(s[3] - s[2] for s in spans
               if s[1] == child_name and s[4] in parent_ids)
    wall = sum(by_id[p][3] - by_id[p][2] for p in parent_ids)
    return busy, wall
