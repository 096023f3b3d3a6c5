"""Deterministic on-disk formats for spectra and sweep maps.

Both go through one writer, `_export`: CSV tables at 17 significant digits
(floats round-trip exactly) or one JSON document of the same arrays, then a
.meta.json sidecar with the metadata dict (config hash, tool version) and
an optional PNG.  An unknown format, or a PNG without matplotlib, is
rejected before any directory is made.  Nothing time- or host-dependent
is written, so repeated exports of the same result are byte-identical.

An existing file is overwritten in place rather than truncated first.  On
ext4, truncating a file to zero and rewriting it makes the close flush the
new data to disk and discard the old blocks, so a loop that exports to one
directory would issue block I/O on every call; in place, repeated exports
stay in the page cache until normal writeback.
"""

from __future__ import annotations

import json
import os
from functools import partial

import numpy as np

from .errors import ConfigurationError
from .liouville import SpectrumResult
from .sweeps import SweepMap

__all__ = [
    "export_spectrum",
    "export_map",
    "render_spectrum",
    "render_heatmap",
]

_FMT = "%.17g"


def _overwrite(path: str, write) -> None:
    """Call write(fh) with path open for text, overwriting it in place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        write(fh)
        fh.flush()
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if os.fstat(fd).st_size > end:  # drop the tail of a longer old file
            os.ftruncate(fd, end)


def _write_csv(path: str, arr, header: str = "") -> None:
    """The bytes np.savetxt(arr, fmt=_FMT, delimiter=",", comments="") writes:
    an optional header line, then one line per row (per value for 1-D).
    Each chunk of about 256 values (one row if wider) is formatted by one
    % on the line format repeated over its rows, so a wide map never holds
    its whole text.  The chunk stays small because % grows its result by
    reallocation: chunks of 4096 values raised the peak RSS of a process
    exporting one 1601-point spectrum per request by 6 MB in 15 s."""
    rows = np.asarray(arr, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    line = ",".join([_FMT] * rows.shape[1]) + "\n"
    step = max(1, 256 // max(rows.shape[1], 1))

    def write(fh):
        if header:
            fh.write(header + "\n")
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))

    _overwrite(path, write)


def _write_json(path: str, payload) -> None:
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _overwrite(path, write)


def _export(out_dir, fmt, stem, tables, arrays, meta, draw) -> list[str]:
    """Write the csv tables (suffix, array, header) or the json arrays, then the
    meta sidecar and draw's PNG if given; returns the paths in that order."""
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown export format {fmt!r}; use csv or json")
    if draw is not None:
        _pyplot()
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. out_dir names an existing file
        raise ConfigurationError(
            f"cannot create output directory {out_dir}: {exc.strerror}"
        ) from exc
    written = []
    if fmt == "csv":
        for suffix, arr, header in tables:
            written.append(os.path.join(out_dir, f"{stem}{suffix}.csv"))
            _write_csv(written[-1], arr, header)
    else:
        written.append(os.path.join(out_dir, f"{stem}.json"))
        doc = {name: arr.tolist() for name, arr in arrays.items()}
        _write_json(written[-1], {**doc, "metadata": meta})
    written.append(os.path.join(out_dir, f"{stem}.meta.json"))
    _write_json(written[-1], meta)
    if draw is not None:
        written.append(draw(os.path.join(out_dir, f"{stem}.png")))
    return written


def export_spectrum(
    result: SpectrumResult,
    out_dir: str,
    fmt: str = "csv",
    stem: str = "spectrum",
    render: bool = False,
) -> list[str]:
    """Write one spectrum to out_dir; returns the created paths."""
    x, y = result.omega_offsets, result.intensity
    tables = [("", np.column_stack([x, y]), "offset_ueV,intensity")]
    arrays = {"omega_offsets": x, "intensity": y}
    draw = partial(render_spectrum, result) if render else None
    return _export(out_dir, fmt, stem, tables, arrays, dict(result.metadata), draw)


def export_map(
    sweep: SweepMap,
    out_dir: str,
    fmt: str = "csv",
    stem: str = "map",
    render: bool = False,
) -> list[str]:
    """Write a sweep map to out_dir; returns the created paths.

    CSV splits the map into {stem}_axis1/axis2/values.csv; JSON keeps one
    document.  The sidecar records the sweep metadata (its normalization
    among them) and the axis names.
    """
    meta = {**sweep.metadata, "axis1_name": sweep.axis1_name}
    tables = [("_axis1", sweep.axis1, "axis1"), ("_axis2", sweep.axis2, "axis2"),
              ("_values", sweep.values, "")]
    arrays = {"axis1": sweep.axis1, "axis2": sweep.axis2, "values": sweep.values}
    draw = partial(render_heatmap, sweep) if render else None
    return _export(out_dir, fmt, stem, tables, arrays, meta, draw)


def _pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg", force=False)
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigurationError(
            "rendering needs matplotlib (install the 'render' extra)"
        ) from exc
    return plt


def render_spectrum(result: SpectrumResult, path: str) -> str:
    plt = _pyplot()
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(result.omega_offsets, result.intensity, lw=1.0)
    ax.set_xlabel("offset from laser (ueV)")
    ax.set_ylabel("intensity (arb.)")
    fig.tight_layout()
    fig.savefig(path, dpi=160)
    plt.close(fig)
    return path


def render_heatmap(sweep: SweepMap, path: str) -> str:
    plt = _pyplot()
    fig, ax = plt.subplots(figsize=(7, 5))
    extent = [
        sweep.axis2[0],
        sweep.axis2[-1],
        sweep.axis1[0],
        sweep.axis1[-1],
    ]
    im = ax.imshow(
        sweep.values,
        origin="lower",
        aspect="auto",
        extent=extent,
        cmap="viridis",
    )
    ax.set_xlabel("offset from laser (ueV)")
    ax.set_ylabel(sweep.axis1_name)
    fig.colorbar(im, ax=ax, label="intensity (arb.)")
    fig.tight_layout()
    fig.savefig(path, dpi=160)
    plt.close(fig)
    return path
