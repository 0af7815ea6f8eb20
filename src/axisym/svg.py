"""Minimal self-contained SVG 1.1 emission for trajectory plots.

A trajectory is drawn as a chain of short line segments whose stroke
color is interpolated from red (start) to blue (end), matching the
time-gradient styling of the reference plots.  No external CSS,
scripts, or fonts: each file stands alone.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

CANVAS = 640.0
MARGIN_FRAC = 0.05

PROJECTIONS = ("xy", "xz", "yz", "3d")

_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}

# Oblique view direction for the pseudo-3D projection.
_ISO_C30 = math.cos(math.pi / 6.0)
_ISO_S30 = math.sin(math.pi / 6.0)


def project(points: np.ndarray, which: str) -> np.ndarray:
    """(N, 3) positions -> (N, 2) plane coordinates."""
    if which in _AXES:
        i, j = _AXES[which]
        return points[:, (i, j)]
    if which == "3d":
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        u = (x - y) * _ISO_C30
        v = z - (x + y) * _ISO_S30
        return np.column_stack([u, v])
    raise ValueError(f"unknown projection {which!r}")


def _color(frac: float) -> str:
    r = round(255 * (1.0 - frac))
    b = round(255 * frac)
    return f"#{r:02x}00{b:02x}"


@functools.lru_cache(maxsize=1)
def _strokes(n: int) -> tuple:
    """Stroke colours of the n - 1 segments of an n-point polyline.

    Cached for the last n: the views of one file set share a segment
    count, so their colours are formatted once.
    """
    return tuple(_color(i / max(n - 2, 1)) for i in range(n - 1))


def render_polyline(points2d: np.ndarray, title: str = "",
                    annotation: Optional[str] = None,
                    max_segments: int = 1500) -> str:
    """SVG document for one projected trajectory."""
    pts = np.asarray(points2d, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need an (N, 2) array with N >= 2")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = MARGIN_FRAC * float(np.max(span))
    lo = lo - pad
    hi = hi + pad
    scale = CANVAS / float(np.max(hi - lo))
    size = (hi - lo) * scale

    # Thin dense polylines down to a bounded segment count.
    n = pts.shape[0]
    if n - 1 > max_segments:
        idx = np.unique(np.linspace(0, n - 1, max_segments + 1).astype(int))
        pts = pts[idx]
        n = pts.shape[0]
    q = (pts - lo) * scale
    # Each vertex formatted once, x and y in turn; flip y so "up" is up.
    px = np.column_stack([q[:, 0], size[1] - q[:, 1]]).ravel().tolist()
    text = ("%.2f " * len(px) % tuple(px)).split()
    xs, ys = text[0::2], text[1::2]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size[0]:.1f}" height="{size[1]:.1f}" '
        f'viewBox="0 0 {size[0]:.1f} {size[1]:.1f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(f'<title>{title}</title>')
    parts += [f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
              f'stroke="{c}" stroke-width="1.2" stroke-linecap="round"/>'
              for x1, y1, x2, y2, c in zip(xs, ys, xs[1:], ys[1:], _strokes(n))]
    if annotation:
        parts.append(
            f'<text x="8" y="18" font-family="sans-serif" font-size="14" '
            f'fill="#333">{annotation}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_projections(prefix: str, positions: np.ndarray, title: str = "",
                      annotation: Optional[str] = None) -> list:
    """Write the four standard views; returns the created paths."""
    paths = []
    for which in PROJECTIONS:
        doc = render_polyline(project(positions, which),
                              title=f"{title} ({which})" if title else which,
                              annotation=annotation)
        path = f"{prefix}_{which}.svg"
        with open(path, "w") as fh:
            fh.write(doc + "\n")
        paths.append(path)
    return paths
