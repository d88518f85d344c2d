"""Reference routines that the tests check the program against; the
program itself has no use for them."""
import math
from fractions import Fraction

from okounkov.numbers import format_rat
from okounkov.polytope import Polytope


def dot(a, b) -> Fraction:
    """The exact dot product of two vectors of the same length."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def squarefree_split(n: int) -> tuple[int, int]:
    """(s, f) with n = s^2 f and f square-free, by trial division up to the
    square root of what is left: O(sqrt n)."""
    s, f, m, p = 1, 1, n, 2
    while p * p <= m:
        if m % p:
            p += 1 if p == 2 else 2
        elif m % (p * p):
            m, f = m // p, f * p
        else:
            m, s = m // (p * p), s * p
    return (s, f * m)


# -- the Fraction SVG renderer -----------------------------------------
# Every coordinate a Fraction, made a float by float().  render.render_svg,
# which reads the body's integer points, must write the same bytes.

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

    verts = [_pad2(v) for v in P.vertices]
    xs = [v[0] for v in verts] + [Fraction(0)]
    ys = [v[1] for v in verts] + [Fraction(0)]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    span = max(hi[0] - lo[0], hi[1] - lo[1], Fraction(1))
    scale = Fraction(_INNER) / span

    def to_px(v):
        x = _MARGIN + float((v[0] - lo[0]) * scale)
        y = _SIZE - _MARGIN - float((v[1] - lo[1]) * scale)
        return x, y

    # Axes through the origin.
    ox, oy = to_px((Fraction(0), Fraction(0)))
    parts.append(
        f'<line x1="0" y1="{oy:.2f}" x2="{_SIZE}" y2="{oy:.2f}" '
        f'stroke="#cccccc"/>'
    )
    parts.append(
        f'<line x1="{ox:.2f}" y1="0" x2="{ox:.2f}" y2="{_SIZE}" '
        f'stroke="#cccccc"/>'
    )
    pix = [to_px(v) for v in _boundary_order(verts)]
    if len(pix) >= 2:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pix)
        tag = "polygon" if len(pix) >= 3 else "polyline"
        parts.append(
            f'<{tag} points="{pts}" fill="#9ecae1" fill-opacity="0.5" '
            f'stroke="#3182bd" stroke-width="2"/>'
        )
    for v in verts:
        x, y = to_px(v)
        label = f"({format_rat(v[0])}, {format_rat(v[1])})"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="#08519c"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-family="monospace" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    _write(path, parts)


def _pad2(v):
    if len(v) == 2:
        return (v[0], v[1])
    if len(v) == 1:
        return (v[0], Fraction(0))
    return (Fraction(0), Fraction(0))


def _boundary_order(verts):
    """Vertices in counterclockwise order around their centroid."""
    if len(verts) <= 2:
        return sorted(verts)
    cx = sum((v[0] for v in verts), Fraction(0)) / len(verts)
    cy = sum((v[1] for v in verts), Fraction(0)) / len(verts)

    def angle(v):
        return math.atan2(float(v[1] - cy), float(v[0] - cx))

    return sorted(verts, key=angle)


def _write(path, parts) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
