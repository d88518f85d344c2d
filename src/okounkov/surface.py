"""Picard-lattice arithmetic on blow-ups of the projective plane.

Classes are written d*H - sum(m_i * E_i) with the intersection form
H^2 = 1, E_i^2 = -1, H.E_i = 0.  For s <= 8 general points the negative
curves are exactly the classical exceptional classes, enumerated from
C^2 = -1, C.K = -1; for s >= 9 the built-in mode refuses rather than
using a wrong cone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index, mul

from . import linalg, lp, polytope
from .numbers import format_rat, parse_rat
from .polytope import Polytope

# Classical counts of exceptional classes on Bl_s(P^2), s = 1..8.
_NEG_CURVE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
# Most supports that the chamber walk of surface_body_outer solves.
MAX_CHAMBERS = 10_000
# The exceptional classes besides the E_i, one type per degree d: d and the
# nonzero multiplicities (Manin, Cubic Forms, Ch. IV).
_CURVE_TYPES = (
    (1, (1, 1)), (2, (1,) * 5), (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5), (5, (2,) * 6 + (1, 1)), (6, (3,) + (2,) * 7),
)


def _fraction(x) -> Fraction:
    # A Fraction is immutable, so one passed in is shared, not copied.
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class PicClass:
    """The class d*H - sum(m_i * E_i)."""

    d: Fraction
    m: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", _fraction(self.d))
        object.__setattr__(self, "m", tuple(map(_fraction, self.m)))

    @property
    def s(self) -> int:
        return len(self.m)

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.d + other.d,
                        tuple(a + b for a, b in zip(self.m, other.m, strict=True)))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.d - other.d,
                        tuple(a - b for a, b in zip(self.m, other.m, strict=True)))

    def scale(self, k) -> "PicClass":
        k = Fraction(k)
        return PicClass(k * self.d, tuple(k * x for x in self.m))

    def is_zero(self) -> bool:
        return self.d == 0 and all(x == 0 for x in self.m)

    def to_json(self) -> dict:
        return {"d": format_rat(self.d), "m": [format_rat(x) for x in self.m]}

    @staticmethod
    def from_json(obj: dict) -> "PicClass":
        return PicClass(parse_rat(obj["d"]),
                        tuple(parse_rat(x) for x in obj["m"]))


def H(s: int) -> PicClass:
    return PicClass(1, (0,) * s)


def E(s: int, i: int) -> PicClass:
    # The exceptional class itself: 0*H - (-1)*E_i, so m_i = -1.
    m = [Fraction(0)] * s
    m[i] = Fraction(-1)
    return PicClass(0, tuple(m))


def intersect(a: PicClass, b: PicClass) -> Fraction:
    if a.s != b.s:
        raise ValueError("intersection of classes with different s")
    return a.d * b.d - sum(
        (x * y for x, y in zip(a.m, b.m)), Fraction(0)
    )


def _row(X: PicClass) -> tuple[tuple[int, ...], int]:
    """(row, q): q > 0 is the lcm of the denominators of X and row is the
    integer tuple q * (d, m_1, ..., m_s)."""
    return linalg.scaled((X.d, *X.m))


def _dot(a, b) -> int:
    """d d' - sum m_i m'_i of two integer rows: the intersection number of
    their classes times both scales."""
    return a[0] * b[0] - sum(map(mul, a[1:], b[1:]))


def _dots(rows, x) -> list[int]:
    """[_dot(r, x) for r in rows], with the sign of d folded into x once."""
    xt = (-x[0], *x[1:])
    return [-sum(map(mul, r, xt)) for r in rows]


def _distinct_permutations(values):
    """Distinct orderings of a multiset, in lexicographic order."""
    if not values:
        yield ()
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        yield from ((v,) + tail for tail in _distinct_permutations(rest))


def neg_curve_classes(s: int) -> list[PicClass]:
    """Exceptional classes on Bl_s(P^2) at general points, s <= 8.

    The E_i, then the classical types by degree, each with its
    multiplicities in lexicographic order: exactly the integral solutions
    of C^2 = -1, C.K = -1 (K = -3H + sum E_i) with d >= 0.  Counts are
    asserted against the classical table.
    """
    if not 1 <= s <= 8:
        raise ValueError(
            "unsupported generality: built-in negative-curve lists cover "
            "1 <= s <= 8 only; supply a user curve list beyond that"
        )
    out = [E(s, i) for i in range(s)]
    frac = [Fraction(k) for k in range(4)]  # shared by all the curves
    for d, mult in _CURVE_TYPES:
        if len(mult) <= s:
            for m in _distinct_permutations(mult + (0,) * (s - len(mult))):
                out.append(PicClass(d, tuple(frac[x] for x in m)))
    assert len(out) == _NEG_CURVE_COUNTS[s], (s, len(out))
    return out


@dataclass(frozen=True)
class SurfaceModel:
    s: int
    mode: str = "delpezzo-general"
    neg_curves: tuple[PicClass, ...] = field(default=())
    # _row of each of psef_generators(), so the negative curves come first.
    # A row is its class scaled by a positive factor, which cancels from
    # every sign and every ratio read off the rows.
    _rows: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode == "delpezzo-general":
            curves = tuple(neg_curve_classes(self.s))
        elif self.mode == "user":
            curves = tuple(self.neg_curves)
            if not all(c.s == self.s for c in curves):
                raise ValueError("user curve list has wrong s")
        else:
            raise ValueError(f"unknown surface mode {self.mode!r}")
        object.__setattr__(self, "neg_curves", curves)
        object.__setattr__(self, "_rows", tuple(
            _row(g)[0] for g in self.psef_generators()))

    def psef_generators(self) -> list[PicClass]:
        gens = list(self.neg_curves) + [H(self.s)]
        gens += [H(self.s) - E(self.s, i) for i in range(self.s)]
        return gens

    def to_json(self) -> dict:
        out = {"s": self.s, "mode": self.mode}
        if self.mode == "user":
            out["neg_curves"] = [c.to_json() for c in self.neg_curves]
        return out

    @staticmethod
    def from_json(obj: dict) -> "SurfaceModel":
        mode = obj.get("mode", "delpezzo-general")
        curves = tuple(PicClass.from_json(c)
                       for c in obj.get("neg_curves", []))
        return SurfaceModel(int(obj["s"]), mode, curves)


@dataclass(frozen=True)
class ZariskiDecomp:
    positive: PicClass
    negative_support: tuple[tuple[PicClass, Fraction], ...]

    def negative_part(self) -> PicClass:
        n = PicClass(0, (0,) * self.positive.s)
        for c, a in self.negative_support:
            n = n + c.scale(a)
        return n

    def to_json(self) -> dict:
        return {
            "positive": self.positive.to_json(),
            "negative_support": [
                {"curve": c.to_json(), "mult": format_rat(a)}
                for c, a in self.negative_support
            ],
        }


def is_psef(model: SurfaceModel, D: PicClass) -> bool:
    """Pseudoeffectivity: the support-growth verdict on built-in models; a
    user curve list may be incomplete, so there cone membership decides."""
    if model.mode == "user":
        cols = [[g.d] + [-x for x in g.m] for g in model.psef_generators()]
        return lp.in_cone(cols, [D.d] + [-x for x in D.m])
    return _decompose(model, D) is not None


def is_nef(model: SurfaceModel, D: PicClass) -> bool:
    return min(_dots(model._rows, _row(D)[0])) >= 0


def _solve(support, *xs):
    """The support solver: support and xs are integer rows, b = q_b c and
    x = q X with scales q > 0.  None when the Gram matrix G of the support
    is singular; else (det, [(p, n) for each x]) with det = |det G| > 0,
    n = det * y for G y = (x.b)_b and p = det * x - sum n_b b: on a chamber
    with this support, P(X) = p / (det q) and c has multiplicity
    q_b n_b / (det q) (Bauer 2009)."""
    k = len(support)
    m = [[_dot(a, b) for b in support] + [_dot(x, a) for x in xs]
         for a in support]
    det = linalg.bareiss(m, k, jordan=True)
    if det == 0:
        return None
    out = []
    for j, x in enumerate(xs):
        n = [row[k + j] for row in m]
        p = [det * v for v in x]
        for nb, b in zip(n, support):
            p = [v - nb * w for v, w in zip(p, b)]
        out.append((p, n))
    return det, out


def _decompose(model: SurfaceModel, D: PicClass) -> ZariskiDecomp | None:
    """Zariski decomposition D = P + N by support growth, or None exactly
    when D is not pseudoeffective.

    For psef D and a complete curve list each stage's support lies in
    Neg(D): its Gram matrix is negative definite, the multiplicities stay
    >= 0, it has at most s curves, and the loop ends with nef P (Bauer,
    J. Algebraic Geom. 2009).  Nef P plus N >= 0 shows D psef, so any other
    outcome rejects D.  On a user list that outcome, after the cone test
    accepted D, means the list is inconsistent.
    """
    if model.mode == "user" and not is_psef(model, D):
        return None
    x, q = _row(D)
    support, p, det, n = [], x, 1, ()  # P = p / (det q)
    while True:
        # A support curve has P.C = 0 exactly, so it never shows up again.
        dots = _dots(model._rows, p)
        new = [k for k, v in zip(range(len(model.neg_curves)), dots) if v < 0]
        if not new:
            if min(dots) >= 0:  # P is nef
                den = det * q
                P = PicClass(Fraction(p[0], den),
                             tuple(Fraction(v, den) for v in p[1:]))
                curves = [model.neg_curves[k] for k in support]
                return ZariskiDecomp(P, tuple(
                    (c, Fraction(_row(c)[1] * nb, den))
                    for c, nb in zip(curves, n) if nb != 0))
            break
        support.extend(new)
        if len(support) > model.s:
            break
        sol = _solve([model._rows[k] for k in support], x)
        if sol is None:
            break
        det, [(p, n)] = sol
        if any(nb < 0 for nb in n):
            break
    if model.mode == "user":
        raise ValueError("the user curve list is inconsistent: the class is in "
                         "its cone but has no Zariski decomposition over it")
    return None


def chambers(model: SurfaceModel, L: PicClass, w):
    """The Zariski chambers of L - t W, W = sum w_i E_i, w_i >= 0, t >= 0,
    in order (Bauer, Kuronya & Szemberg, Crelle 2004); none if L is not
    psef, where a class nef against a user list counts as psef even
    outside the list's cone.  Yields (t0, t1, k, (A, B, C)) per chamber
    [t0, t1]: t1 is None past the last wall and t1 == t0 where one t
    changes the support twice, k is the support size, and A + B t + C t^2
    is a positive multiple of the volume on the chamber.  The volume does
    not increase along the walk, which ends with the chamber where it
    reaches 0 (the first, when L is not big) or with t1 None.
    """
    lrow, qL = _row(L)
    wrow, qW = _row(PicClass(0, tuple(w)))  # the row of -W
    # A nef L starts with empty support: on built-in rows _decompose would
    # return (L, ()), and on a user list nef counts as psef.
    supp, dots = [], _dots(model._rows, lrow)
    if min(dots) < 0:
        Z = _decompose(model, L)
        if Z is None:
            return
        supp = [_row(c)[0] for c, _ in Z.negative_support]
    tn, td = 0, 1
    for _ in range(10000):
        # P(t) = p0 / (det qL) + t p1 / (det qW), and the k-th support curve
        # (scale q_k) has multiplicity q_k (n0_k / qL + t n1_k / qW) / det.
        sol = _solve(supp, lrow, wrow)
        if sol is None:
            raise RuntimeError("singular support system in chamber walk")
        _, ((p0, n0), (p1, n1)) = sol
        # Walls t = num / den, den > 0, tagged (k, c): support curve k leaves
        # where its multiplicity vanishes, outside curve c enters where P.c
        # does.  P0 and P1 meet every support curve in 0.
        walls = [(a * qW, -b * qL, k, None)
                 for k, (a, b) in enumerate(zip(n0, n1)) if b < 0]
        walls += [(x0 * qW, -x1 * qL, None, c) for c, x0, x1 in zip(
            model._rows, dots if not supp else _dots(model._rows, p0),
            _dots(model._rows, p1)) if x1 < 0]  # with no support p0 = lrow
        quad = (_dot(p0, p0) * qW * qW, 2 * _dot(p0, p1) * qL * qW,
                _dot(p1, p1) * qL * qL)  # (det qL qW)^2 P(t)^2
        g = math.gcd(*quad) or 1
        t1 = (tn, td)
        if all(v[0] * td > tn * v[1] for v in walls):
            t1 = None  # the nearest wall, compared by cross-multiplication
            for v in walls:
                if t1 is None or v[0] * t1[1] < t1[0] * v[1]:
                    t1 = v[:2]
        A, B, C = (x // g for x in quad)
        yield (Fraction(tn, td), None if t1 is None else Fraction(*t1),
               len(supp), (A, B, C))
        if t1 is None:
            return
        tn, td = t1  # the walls at t1 change the support, unless vol is 0
        if A * td * td + B * tn * td + C * tn * tn <= 0:
            return  # there the ray leaves the big cone, which chambers tile
        now = [v for v in walls if v[0] * td <= tn * v[1]]
        gone = {v[2] for v in now}
        supp = ([b for k, b in enumerate(supp) if k not in gone]
                + [v[3] for v in now if v[3] is not None])
    raise RuntimeError("chamber walk did not terminate")


def zariski(model: SurfaceModel, D: PicClass) -> ZariskiDecomp:
    """Zariski decomposition D = P + N by iterative support growth."""
    Z = _decompose(model, D)
    if Z is None:
        raise ValueError("Zariski decomposition needs a pseudoeffective class")
    return Z


def check_zariski(model: SurfaceModel, D: PicClass, Z: ZariskiDecomp) -> list[str]:
    """Return a list of violated Zariski-decomposition invariants (empty = ok)."""
    bad = []
    if not is_nef(model, Z.positive):
        bad.append("positive part not nef")
    p, _ = _row(Z.positive)
    rows = [_row(c)[0] for c, _ in Z.negative_support]
    for (_, a), c in zip(Z.negative_support, rows):
        if a <= 0:
            bad.append("nonpositive multiplicity in negative part")
        if _dot(p, c) != 0:
            bad.append("positive part meets a support curve")
    recon = Z.positive + Z.negative_part()
    if not (recon - D).is_zero():
        bad.append("P + N does not reconstruct the input")
    if rows:
        # The Gram matrix of the rows: its k-th leading minor is that of the
        # curves times the square of the product of their scales.
        gram = [[_dot(a, b) for b in rows] for a in rows]
        for k in range(1, len(rows) + 1):
            minor = linalg.det([row[:k] for row in gram[:k]])
            if (minor > 0) != (k % 2 == 0) or minor == 0:
                bad.append("support intersection matrix not negative definite")
                break
    return bad


def is_big(model: SurfaceModel, D: PicClass) -> bool:
    return vol(model, D) > 0


def vol(model: SurfaceModel, D: PicClass) -> Fraction:
    Z = _decompose(model, D)
    return Fraction(0) if Z is None else intersect(Z.positive, Z.positive)


def base_loci(model: SurfaceModel, D: PicClass) -> dict:
    """Restricted and augmented base loci of a big class.

    bminus = support of the Zariski negative part; bplus additionally
    collects the model curves orthogonal to the positive part.
    """
    Z = _decompose(model, D)
    if Z is None or intersect(Z.positive, Z.positive) <= 0:
        raise ValueError("base loci computed for big classes only")
    bminus = [c for c, _ in Z.negative_support]
    extra = [C for C, x in zip(model.neg_curves,
                               _dots(model._rows, _row(Z.positive)[0]))
             if x == 0 and C not in bminus]
    return {"bminus": bminus, "bplus": bminus + extra}


def flag_points(model: SurfaceModel, points) -> list[int]:
    """The flag points, checked before any work: one or more distinct
    indices i of the exceptional curves E_i, 0 <= i < s, else a ValueError
    (input error)."""
    try:
        # index() reads a bool as 0 or 1, but a bool names no point.
        pts = [None if isinstance(i, bool) else index(i) for i in points]
    except TypeError:
        pts = None  # not a list of integers
    if not pts or None in pts or len(set(pts)) != len(pts) or not all(
            0 <= i < model.s for i in pts):
        raise ValueError(f"flag points must be a nonempty list of distinct "
                         f"indices in 0..{model.s - 1}, got {points!r}")
    return pts


def surface_body_outer(model: SurfaceModel, D: PicClass, points: list[int],
                       grid_step: Fraction, t_max: Fraction) -> Polytope:
    """The exact extended body of a big D for infinitesimal flags C_i = E_i.

    Flag points on E_i are general, so block i is shift_i + t_i over [0,
    P(t).E_i]: shift_i is the multiplicity of E_i in N(D), and P(t) is the
    positive part of D' - sum t_i E_i, D' = D - sum shift_i E_i (Lazarsfeld
    & Mustata 2009, Thm 6.4).  P(t) is affine on each Zariski chamber
    (Bauer, Kuronya & Szemberg 2004): a breadth-first walk from the support
    of D' makes one _solve per support, _dd gives the chamber's vertices and
    the walls tight at each, and the walls tight on the same vertices are
    crossed together (support curves leave, curves enter), in lower-
    dimensional chambers too, unless that leaves t >= 0.  A support off the
    tiling gives P.E_i no larger (N is minimal), so the body is the hull of
    all fibre ends.  grid_step > 0 and t_max >= 0 are checked and echoed in
    meta only; past MAX_CHAMBERS supports the walk is refused.
    """
    points = flag_points(model, points)
    grid_step, t_max = Fraction(grid_step), Fraction(t_max)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    r = len(points)
    Z0 = _decompose(model, D)
    if Z0 is None or intersect(Z0.positive, Z0.positive) <= 0:
        raise ValueError("surface body computed for big classes only")
    flags = [E(model.s, i) for i in points]
    N0 = dict(Z0.negative_support)
    shift = [N0.get(f, Fraction(0)) for f in flags]
    x, q = _row(sum((f.scale(-a) for f, a in zip(flags, shift)), D))
    us = [_row(f.scale(-1))[0] for f in flags]  # D_t = D' + sum t_i us_i
    curves = set(model._rows[:len(model.neg_curves)])
    unit = [tuple(int(j == k) for j in range(r + 1)) for k in range(r + 1)]
    todo = [tuple(sorted(_row(c)[0] for c in N0 if c not in flags))]
    seen, pts = set(todo), []
    for k, supp in enumerate(todo):  # todo grows as the walk goes
        if k == MAX_CHAMBERS:
            raise ValueError(f"chamber walk exceeds MAX_CHAMBERS = {MAX_CHAMBERS}")
        if not (sol := len(supp) <= model.s and _solve(supp, x, *us)):
            continue
        # Rows on (tau, t), the point t / tau, times det q > 0: P is p0 tau +
        # q sum t_i p_i, and the multiplicities are n0 tau + q sum t_i n_i.
        det, ((p0, n0), *lin) = sol
        out = [g for g in model._rows if g not in supp]
        walls = [(a, *(q * n[j] for _, n in lin)) for j, a in enumerate(n0)]
        walls += zip(_dots(out, p0),
                     *([q * y for y in _dots(out, p)] for p, _ in lin))
        betas = [(p0[i + 1], *(q * p[i + 1] for p, _ in lin)) for i in points]
        verts = [v for v in polytope._dd(walls + unit) if v[0][0] > 0]
        for v, _ in verts:  # t = v[1:] / v[0], and P(t).E_i = P(t).m_i
            ends = [[(sh + Fraction(tk, v[0]), y) for y in (0, Fraction(
                sum(map(mul, b, v)), det * q * v[0]))]
                for sh, tk, b in zip(shift, v[1:], betas)]
            pts += (sum(e, ()) for e in itertools.product(*ends))
        groups = {}
        ons = [sum(1 << e for e, (_, m) in enumerate(verts) if m >> j & 1)
               for j in range(len(walls) + r + 1)]
        # Beyond a face in t_i = 0, short of the whole chamber, t_i < 0.
        edge = set(ons[len(walls) + 1:]) - {(1 << len(verts)) - 1}
        for j, g in enumerate(list(supp) + out):
            if ons[j] and ons[j] not in edge and (j < len(supp) or g in curves):
                groups.setdefault(ons[j], set()).add(g)
        new = {tuple(sorted(set(supp) ^ gs)) for gs in groups.values()} - seen
        seen |= new
        todo += sorted(new)
    body = polytope.hull(pts, 2 * r)
    body.meta.update(outer_approx=True, grid_step=format_rat(grid_step),
                     t_max=format_rat(t_max),
                     flag_points="general on each exceptional curve")
    return body
