"""Static SVG rendering of 2-D polytopes.

Canvas rule: 480x480 viewport with a 40-unit margin; the bounding box of
the vertices together with the origin is scaled uniformly (preserving
aspect ratio) to fit the 400x400 interior, and the y axis points up.
Vertex labels are exact rational coordinates.  No randomness, no
timestamps: identical input gives byte-identical output.

The body is read as its integer points X / q (`Polytope._core`): a pixel
coordinate is the exact ratio (X - LX) * 400 / SPAN of integers, made a
float by int true division, which rounds correctly and so equals float()
of the same Fraction.  The labels are the exact ratios X / q.
"""
from __future__ import annotations

import math

from .numbers import _ratio
from .polytope import Polytope

_SIZE = 480
_MARGIN = 40
_INNER = _SIZE - 2 * _MARGIN


def render_svg(P: Polytope, path) -> None:
    if P.ambient_dim > 2:
        raise ValueError("SVG rendering supports dimension <= 2 only")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    if P.is_empty:
        parts.append(
            f'<text x="{_SIZE // 2}" y="{_SIZE // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="16">empty</text>'
        )
        parts.append("</svg>")
        _write(path, parts)
        return

    # The vertices as integer points on the scale q, padded to 2-D.
    q = P._core.q
    verts = [(*p, 0, 0)[:2] for p in P._core.points]
    xs = [v[0] for v in verts] + [0]
    ys = [v[1] for v in verts] + [0]
    lx, ly = min(xs), min(ys)
    span = max(max(xs) - lx, max(ys) - ly, q)

    def to_px(v):
        # Int true division rounds the exact ratio correctly, as float()
        # of the Fraction does.
        x = _MARGIN + (v[0] - lx) * _INNER / span
        y = _SIZE - _MARGIN - (v[1] - ly) * _INNER / span
        return x, y

    # Axes through the origin.
    ox, oy = to_px((0, 0))
    parts.append(
        f'<line x1="0" y1="{oy:.2f}" x2="{_SIZE}" y2="{oy:.2f}" '
        f'stroke="#cccccc"/>'
    )
    parts.append(
        f'<line x1="{ox:.2f}" y1="0" x2="{ox:.2f}" y2="{_SIZE}" '
        f'stroke="#cccccc"/>'
    )
    pix = [to_px(v) for v in _boundary_order(verts, q)]
    if len(pix) >= 2:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pix)
        tag = "polygon" if len(pix) >= 3 else "polyline"
        parts.append(
            f'<{tag} points="{pts}" fill="#9ecae1" fill-opacity="0.5" '
            f'stroke="#3182bd" stroke-width="2"/>'
        )
    for v in verts:
        x, y = to_px(v)
        label = f"({_ratio(v[0], q)}, {_ratio(v[1], q)})"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="#08519c"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-family="monospace" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    _write(path, parts)


def _boundary_order(verts, q):
    """The integer points verts / q in counterclockwise order around their
    centroid."""
    if len(verts) <= 2:
        return sorted(verts)
    n = len(verts)
    sx, sy = (sum(c) for c in zip(*verts))

    def angle(v):
        # v / q minus the centroid is (n v - sum) / (n q), exactly.
        return math.atan2((n * v[1] - sy) / (n * q), (n * v[0] - sx) / (n * q))

    return sorted(verts, key=angle)


def _write(path, parts) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
