"""File formats: CSV ingestion, grid/report writers, SVG heatmaps, and the
synthetic point-data generator.

All writers are atomic (temp file + rename) and produce byte-identical
output for identical inputs; nothing here depends on wall-clock state.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from .bootstrap import STREAM_SYNTH, rng_stream
from .exceptions import DataError
from .geometry import RegularGrid, SpatialSample, pairwise_distances
from .numerics import cholesky

TRANSFORMS = ("none", "sqrt")


def ingest_csv(path, transform: str = "none") -> SpatialSample:
    """Read a point data set with header columns x, y, value.

    Column names are case-insensitive and may come in any order; both LF
    and CRLF line endings are accepted. Rows with missing, unparseable or
    non-finite entries are reported with their line numbers, as are
    duplicate locations. ``transform`` "sqrt" root-transforms the response
    (negative values are a data error).
    """
    if transform not in TRANSFORMS:
        raise DataError(f"unknown transform {transform!r}; expected one of {TRANSFORMS}")
    path = Path(path)
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        cols = {name.strip().lower(): k for k, name in enumerate(header)}
        missing = [c for c in ("x", "y", "value") if c not in cols]
        if missing:
            raise DataError(f"{path}: missing required column(s) {', '.join(missing)}")
        ix, iy, iv = cols["x"], cols["y"], cols["value"]
        width = max(ix, iy, iv) + 1

        locations = []
        values = []
        line_numbers = []
        bad_lines = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                bad_lines.append(line_no)
                continue
            try:
                x = float(row[ix])
                y = float(row[iy])
                v = float(row[iv])
            except ValueError:
                bad_lines.append(line_no)
                continue
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(v)):
                bad_lines.append(line_no)
                continue
            locations.append((x, y))
            values.append(v)
            line_numbers.append(line_no)
        if bad_lines:
            shown = ", ".join(str(b) for b in bad_lines[:10])
            more = "..." if len(bad_lines) > 10 else ""
            raise DataError(
                f"{path}: {len(bad_lines)} unparseable or non-finite row(s) "
                f"at line(s) {shown}{more}"
            )
        if not locations:
            raise DataError(f"{path}: no data rows")

    locs = np.asarray(locations, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if transform == "sqrt":
        if np.any(vals < 0.0):
            k = int(np.argmax(vals < 0.0))
            raise DataError(
                f"{path}: sqrt transform needs nonnegative values "
                f"(line {line_numbers[k]} has {vals[k]})"
            )
        vals = np.sqrt(vals)

    dmat = pairwise_distances(locs)
    n = len(locs)
    iu = np.triu_indices(n, k=1)
    dup = dmat[iu] <= 1e-12
    if dup.any():
        k = int(np.argmax(dup))
        i, j = iu[0][k], iu[1][k]
        raise DataError(
            f"{path}: duplicate locations at lines "
            f"{line_numbers[i]} and {line_numbers[j]}"
        )
    return SpatialSample(locs, vals)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _atomic_write_text(path, content: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    os.replace(tmp, path)


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        return format(v, ".12g")
    return str(v)


def write_grid_csv(path, points, columns: dict):
    """Long-format grid CSV: x, y, then one column per entry of ``columns``.

    NaN values are written as NA (masked nodes).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64).ravel() for name in names]
    for arr in arrays:
        if arr.shape[0] != points.shape[0]:
            raise DataError("grid columns must align with the points")
    lines = ["x,y," + ",".join(names)]
    for k in range(points.shape[0]):
        row = [_fmt(float(points[k, 0])), _fmt(float(points[k, 1]))]
        row.extend(_fmt(float(arr[k])) for arr in arrays)
        lines.append(",".join(row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload: dict):
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_table_csv(path, fieldnames, rows):
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in fieldnames))
    _atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG heatmaps
# ---------------------------------------------------------------------------

# viridis-like 9-stop ramp, dark low to bright high
_RAMP = (
    (68, 1, 84),
    (71, 45, 123),
    (59, 82, 139),
    (44, 114, 142),
    (33, 145, 140),
    (40, 174, 128),
    (94, 201, 98),
    (173, 220, 48),
    (253, 231, 37),
)
_NA_COLOR = "#c8c8c8"


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(_RAMP) - 1)
    frac = pos - lo
    rgb = tuple(
        int(round((1.0 - frac) * a + frac * b)) for a, b in zip(_RAMP[lo], _RAMP[hi])
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap_svg(
    grid: RegularGrid, values, title: str = "", vmin=None, vmax=None
) -> str:
    """SVG heatmap of grid values with an embedded legend.

    A pure function of its arguments: identical data produces an identical
    document. NaN cells render gray.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(grid.dims)
    finite = vals[np.isfinite(vals)]
    lo = float(vmin) if vmin is not None else (float(finite.min()) if finite.size else 0.0)
    hi = float(vmax) if vmax is not None else (float(finite.max()) if finite.size else 1.0)
    if hi <= lo:
        hi = lo + 1.0
    nx, ny = grid.dims
    cell = max(4, int(round(480 / max(nx, ny))))
    plot_w, plot_h = nx * cell, ny * cell
    margin, legend_w = 44, 58
    width = plot_w + margin * 2 + legend_w
    height = plot_h + margin * 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{margin}" y="{margin - 14}" font-family="sans-serif" '
            f'font-size="14">{title}</text>'
        )
    for i in range(nx):
        for j in range(ny):
            v = vals[i, j]
            color = _NA_COLOR if not np.isfinite(v) else _ramp_color((v - lo) / (hi - lo))
            x = margin + i * cell
            y = margin + (ny - 1 - j) * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>')
    # legend: stacked ramp with min/mid/max labels
    lx = margin + plot_w + 16
    steps = 64
    step_h = plot_h / steps
    for s in range(steps):
        t = 1.0 - (s + 0.5) / steps
        y = margin + s * step_h
        parts.append(
            f'<rect x="{lx}" y="{y:.2f}" width="14" height="{step_h + 0.5:.2f}" '
            f'fill="{_ramp_color(t)}"/>'
        )
    for frac, anchor_v in ((0.0, hi), (0.5, 0.5 * (lo + hi)), (1.0, lo)):
        y = margin + frac * plot_h
        parts.append(
            f'<text x="{lx + 18}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11">{format(anchor_v, ".3g")}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap_svg(path, grid, values, title="", vmin=None, vmax=None):
    _atomic_write_text(path, render_heatmap_svg(grid, values, title, vmin, vmax))


# ---------------------------------------------------------------------------
# Synthetic point data
# ---------------------------------------------------------------------------


def synth_dataset(n: int = 1053, seed: int = 0) -> tuple:
    """Format-compatible synthetic precipitation-like data set.

    n sites uniform over a 60 x 30 region; the response is the square of a
    smooth surface plus an exponential-covariogram Gaussian field, clipped
    at zero, so a sqrt transform is the natural preprocessing step.
    """
    if n < 10:
        raise DataError("synthetic data set needs at least 10 sites")
    rng = rng_stream(seed, STREAM_SYNTH)
    locs = np.column_stack([rng.uniform(0.0, 60.0, n), rng.uniform(0.0, 30.0, n)])
    trend = (
        1.6
        + 0.9 * np.sin(np.pi * locs[:, 0] / 30.0) * np.cos(np.pi * locs[:, 1] / 15.0)
        + 0.02 * locs[:, 1]
    )
    d = pairwise_distances(locs)
    cov = 0.01 * np.eye(n) + 0.09 * np.exp(-3.0 * d / 8.0)
    factor = cholesky(cov)
    field = trend + factor.L @ rng.standard_normal(n)
    values = np.clip(field, 0.0, None) ** 2
    return locs, values


def write_synth_csv(path, n: int = 1053, seed: int = 0):
    locs, values = synth_dataset(n, seed)
    lines = ["x,y,value"]
    for k in range(len(values)):
        lines.append(
            f"{_fmt(float(locs[k, 0]))},{_fmt(float(locs[k, 1]))},{_fmt(float(values[k]))}"
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")
