"""Deterministic output: CSV tables, text summaries, and SVG line plots.

Floats are written with the shortest round-trip representation, so a fixed
seed produces byte-identical files independent of thread counts or reruns.
The SVG writer emits plain markup with no display dependency.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """Shortest round-trip text for a scalar; floats via repr."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """RFC 4180 CSV: header row then data rows; rows are dicts or sequences."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([fmt(row[h]) for h in header])
            else:
                writer.writerow([fmt(v) for v in row])


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def svg_line_plot(series: dict, *, title: str = "") -> str:
    """Minimal 640 x 400 multi-series line plot; series maps label -> (x array, y array)."""
    width, height = 640, 400
    pad_l, pad_r, pad_t, pad_b = 56, 16, 28, 40
    iw, ih = width - pad_l - pad_r, height - pad_t - pad_b
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return pad_l + (x - x_lo) / (x_hi - x_lo) * iw

    def sy(y):
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ih

    palette = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{iw}" height="{ih}" fill="none" stroke="#555"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad_b + 16}" text-anchor="middle" font-family="monospace" font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{pad_l - 6}" y="{sy(yv):.1f}" text-anchor="end" font-family="monospace" font-size="11">{yv:.4g}</text>')

    for i, (label, (x, y)) in enumerate(series.items()):
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(np.asarray(x), np.asarray(y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad_l + 8}" y="{pad_t + 16 + 14 * i}" font-family="monospace" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
