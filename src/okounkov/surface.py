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
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import mul

from . import linalg, lp, polytope
from .numbers import (_FRACTION, _INT, _RAT, _RATS, _STR, _integer,
                      _read_json, format_rat, parse_rat)
from .polytope import Polytope

# Classical counts of exceptional classes on Bl_s(P^2), s = 1..8.
_NEG_CURVE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
# Most steps of a Zariski-chamber walk: chambers and surface_body_outer.
MAX_CHAMBERS = 10_000
# Most fibre points surface_body_outer hands to the final hull.
MAX_FIBRE_POINTS = 50_000
# The exceptional classes besides the E_i, one type per degree d: d and the
# nonzero multiplicities (Manin, Cubic Forms, Ch. IV).
_CURVE_TYPES = (
    (1, (1, 1)), (2, (1,) * 5), (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5), (5, (2,) * 6 + (1, 1)), (6, (3,) + (2,) * 7),
)


@dataclass(frozen=True)
class PicClass:
    """The class d*H - sum(m_i * E_i)."""

    d: Fraction
    m: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", parse_rat(self.d))
        object.__setattr__(self, "m", tuple(map(parse_rat, self.m)))

    @property
    def s(self) -> int:
        return len(self.m)

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.d + other.d,
                        tuple(a + b for a, b in zip(self.m, other.m, strict=True)))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.d - other.d,
                        tuple(a - b for a, b in zip(self.m, other.m, strict=True)))

    @cached_property
    def _row(self) -> tuple[tuple[int, ...], int]:
        """(row, q), built once: q > 0 is the lcm of the denominators of the
        class and row is the integer tuple q * (d, m_1, ..., m_s)."""
        return linalg.scaled((self.d, *self.m))

    def scale(self, k) -> "PicClass":
        k = parse_rat(k, "scale")
        return PicClass(k * self.d, tuple(k * x for x in self.m))

    def to_json(self) -> dict:
        return {"d": format_rat(self.d), "m": [format_rat(x) for x in self.m]}

    @staticmethod
    def from_json(obj: dict) -> "PicClass":
        return PicClass(*_read_json(obj, "class", d=_RAT, m=_RATS))


def H(s: int) -> PicClass:
    return PicClass(1, (0,) * _integer(s, "s", 0))


def E(s: int, i: int) -> PicClass:
    # The exceptional class itself: 0*H - (-1)*E_i, so m_i = -1.
    if not 0 <= _integer(i, "index i") < _integer(s, "s"):
        raise ValueError(f"exceptional class index i = {i} outside "
                         f"0..{s - 1} (s = {s})")
    m = [Fraction(0)] * s
    m[i] = Fraction(-1)
    return PicClass(0, tuple(m))


def intersect(a: PicClass, b: PicClass) -> Fraction:
    if a.s != b.s:
        raise ValueError("intersection of classes with different s")
    (ra, qa), (rb, qb) = a._row, b._row
    return Fraction(_dot(ra, rb), qa * qb)


def _dot(a, b) -> int:
    """d d' - sum m_i m'_i of two integer rows: the intersection number of
    their classes times both scales."""
    return a[0] * b[0] - sum(map(mul, a[1:], b[1:]))


# A packed scan keeps one dot per 64-bit lane, offset by _HALF = 2^63.
_HALF = 1 << 63
_BIG_ENDIAN = sys.byteorder == "big"
# Byte b to 1 where its top bit is set, else to 0.
_TOP = bytes(int(b >= 0x80) for b in range(256))


def _pack(values) -> int:
    """sum(v_k 2^(64 k)) of integers |v_k| < 2^63, read from their bytes:
    lane k of their two's complement bytes holds v_k + 2^64 where v_k < 0,
    and the 1 borrowed from lane k + 1 is put back."""
    lanes = array("q", values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    raw = lanes.tobytes()
    borrow = bytearray(len(raw) + 8)
    borrow[8::8] = raw[7::8].translate(_TOP)
    return int.from_bytes(raw, "little") - int.from_bytes(borrow, "little")


class _Rows(tuple):
    """A model's integer rows (d, m_1, ..., m_s), its negative curves first,
    packed for _dots (SIMD within a register: Lamport, "Multiple byte
    processing with full-word instructions", CACM 1975).

    cols[j] packs column j as sum_k r_kj 2^(64 k), negated for j >= 1 so
    that the sign of d is folded in, and maxes[j] = max_k |r_kj|.  A column
    with an entry past a lane packs as 0: the guard of _dots passes only
    rows x with x_j = 0 there.  off holds 2^63 in every lane, off_curves in
    the lanes of the curves."""

    def __new__(cls, rows, curves: int):
        self = super().__new__(cls, rows)
        self.curves = curves
        cols = list(zip(*rows))
        self.maxes = [max(max(c), -min(c)) for c in cols]
        self.cols = [(_pack(c) if mx < _HALF else 0) * (-1 if j else 1)
                     for j, (c, mx) in enumerate(zip(cols, self.maxes))]
        top = b"\0" * 7 + b"\x80"
        self.off = int.from_bytes(top * len(rows), "little")
        self.off_curves = int.from_bytes(top * curves, "little")
        return self

    def __reduce__(self):
        # copy and pickle rebuild the rows through __new__, which packs them.
        return _Rows, (tuple(self), self.curves)

    def values(self, scan) -> list[int]:
        """The dots of a scan, one per row."""
        if type(scan) is list:
            return scan
        # Lane k holds dot + 2^63; flipping its top bit leaves the dot in
        # two's complement.
        lanes = array("q", (scan ^ self.off).to_bytes(8 * len(self), "little"))
        if _BIG_ENDIAN:
            lanes.byteswap()
        return lanes.tolist()

    def nef(self, scan) -> bool:
        """No dot of the scan is negative: every lane keeps its top bit."""
        if type(scan) is list:
            return min(scan) >= 0
        return scan & self.off == self.off

    def negative(self, scan) -> list[int]:
        """The indices of the curves with a negative dot, in order."""
        if type(scan) is list:
            return [k for k in range(self.curves) if scan[k] < 0]
        if scan & self.off_curves == self.off_curves:
            return []
        # Flipped, the top bit of a curve's lane is set where dot < 0.
        tops = (scan ^ self.off).to_bytes(8 * len(self), "little")[
            7:8 * self.curves:8]
        return list(itertools.compress(range(self.curves),
                                       tops.translate(_TOP)))


def _dots(rows: _Rows, x):
    """The scan of the integer row x against rows: while sum_j |x_j| maxes_j
    < 2^63 every |_dot(r, x)| is too, and the scan is one integer, sum_k
    (_dot(rows[k], x) + 2^63) 2^(64 k), with no carry between lanes; else
    it is the list of the dots from the row loop.  Read it with
    rows.values, rows.nef and rows.negative."""
    if sum(map(mul, map(abs, x), rows.maxes)) < _HALF:
        return sum(map(mul, x, rows.cols), rows.off)
    return _row_dots(rows, x)


def _row_dots(rows, x) -> list[int]:
    """[_dot(r, x) for r in rows], with the sign of d folded into x once."""
    xt = (-x[0], *x[1:])
    return [-sum(map(mul, r, xt)) for r in rows]


def _distinct_permutations(values):
    """Distinct orderings of a multiset, in lexicographic order (Knuth,
    TAOCP 4A, 7.2.1.2, Algorithm L: step to the next one in place)."""
    a = sorted(values)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def _curve_rows(s: int) -> list[tuple[int, ...]]:
    """The integer rows (d, m_1, ..., m_s) of neg_curve_classes(s)."""
    if not 1 <= s <= 8:
        raise ValueError(
            "unsupported generality: built-in negative-curve lists cover "
            "1 <= s <= 8 only; supply a user curve list beyond that"
        )
    rows = [(0, *(-int(j == i) for j in range(s))) for i in range(s)]
    for d, mult in _CURVE_TYPES:
        if len(mult) <= s:
            rows += ((d, *m) for m in _distinct_permutations(
                mult + (0,) * (s - len(mult))))
    assert len(rows) == _NEG_CURVE_COUNTS[s], (s, len(rows))
    return rows


def _curve_classes(rows) -> tuple[PicClass, ...]:
    # The entries of _curve_rows, -1..6, are shared from numbers._FRACTION.
    return tuple(PicClass(_FRACTION[r[0]], tuple(_FRACTION[x] for x in r[1:]))
                 for r in rows)


def neg_curve_classes(s: int) -> list[PicClass]:
    """Exceptional classes on Bl_s(P^2) at general points, s <= 8.

    The E_i, then the classical types by degree, each with its
    multiplicities in lexicographic order: exactly the integral solutions
    of C^2 = -1, C.K = -1 (K = -3H + sum E_i) with d >= 0.  Counts are
    asserted against the classical table.
    """
    return list(_builtin(_integer(s, "s"))[0])


def _generator_rows(s: int) -> list[tuple[int, ...]]:
    """The rows of H, then of the H - E_i."""
    return [(1, *(int(j == i) for j in range(s))) for i in range(-1, s)]


@cache
def _builtin(s: int) -> tuple[tuple[PicClass, ...], _Rows]:
    """The curve classes and packed rows of SurfaceModel(s), built once per
    s.  Callers pass an int s, so that 4.0 does not read the entry of 4."""
    rows = _curve_rows(s)
    return _curve_classes(rows), _Rows(rows + _generator_rows(s), len(rows))


@dataclass(frozen=True)
class SurfaceModel:
    s: int
    mode: str = "delpezzo-general"
    neg_curves: tuple[PicClass, ...] = field(default=())
    # The _row of each of psef_generators(), so the negative curves come
    # first, packed once: per s on built-in models.  A row is its class
    # scaled by a positive factor, which cancels from every sign and every
    # ratio read off the rows.
    _rows: _Rows = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        s = _integer(self.s, "s", 0)
        if self.mode == "delpezzo-general":
            if self.neg_curves:
                raise ValueError("neg_curves are read only with mode 'user'")
            curves, rows = _builtin(s)
        elif self.mode == "user":
            curves = tuple(self.neg_curves)
            if not all(c.s == s for c in curves):
                raise ValueError("user curve list has wrong s")
            # The rows' entries, which lp.in_cone would refuse past its bound.
            if (size := (len(curves) + s + 1) * (s + 1)) > lp.MAX_CONE_CELLS:
                raise ValueError(f"user model of {size} row entries exceeds "
                                 f"MAX_CONE_CELLS = {lp.MAX_CONE_CELLS}")
            rows = [c._row[0] for c in curves]
            # A curve named twice makes every support holding both singular.
            first = {}
            for i, r in enumerate(rows):
                g = math.gcd(*r) or 1
                j = first.setdefault(tuple(x // g for x in r), i)
                if j != i:
                    raise ValueError(
                        f"user curve list names one curve twice: entries "
                        f"{j} and {i}, {curves[j].to_json()} and "
                        f"{curves[i].to_json()}")
            rows = _Rows(rows + _generator_rows(s), len(curves))
        else:
            raise ValueError(f"unknown surface mode {self.mode!r}")
        object.__setattr__(self, "neg_curves", curves)
        object.__setattr__(self, "_rows", rows)

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
        curves = (lambda v: tuple(map(PicClass.from_json, v))
                  if isinstance(v, list) else None, "a list of classes")
        return SurfaceModel(*_read_json(
            obj, "surface", {"mode": "delpezzo-general", "neg_curves": ()},
            s=_INT, mode=_STR, neg_curves=curves))


@dataclass(frozen=True)
class ZariskiDecomp:
    positive: PicClass
    negative_support: tuple[tuple[PicClass, Fraction], ...]

    def to_json(self) -> dict:
        return {
            "positive": self.positive.to_json(),
            "negative_support": [
                {"curve": c.to_json(), "mult": format_rat(a)}
                for c, a in self.negative_support
            ],
        }


def _check_s(model: SurfaceModel, *classes: PicClass) -> None:
    """A ValueError unless each class has model.s multiplicities: the
    integer scans zip a class's row with the model's rows, so a row of
    another length would be truncated or padded without notice."""
    for D in classes:
        if len(D.m) != model.s:
            raise ValueError(f"a class of s = {len(D.m)} on a model of "
                             f"s = {model.s}")


def is_psef(model: SurfaceModel, D: PicClass) -> bool:
    """Pseudoeffectivity: the support-growth verdict on built-in models; a
    user curve list may be incomplete, so there cone membership decides."""
    if model.mode == "user":
        _check_s(model, D)
        return lp.in_cone(model._rows, D._row[0])
    return _support(model, D) is not None


def is_nef(model: SurfaceModel, D: PicClass) -> bool:
    _check_s(model, D)
    return model._rows.nef(_dots(model._rows, D._row[0]))


def _negative_definite(m, k: int, jordan: bool = False) -> int:
    """linalg.bareiss(m, k, jordan) of an integer matrix whose leading k x k
    block G is a Gram matrix under _dot, or 0 unless G is negative
    definite."""
    det = linalg.bareiss(m, k, jordan)
    # Sylvester's criterion: G is negative definite iff its leading minors
    # alternate in sign from negative, and with no row swap they are the
    # pivots m[c][c].  A swap follows a zero minor, and then the last pivot,
    # det G, has the wrong sign: G has a positive eigenvalue, and by the
    # Hodge index theorem only one.
    if det == 0 or any((m[c][c] < 0) != (c % 2 == 0) for c in range(k)):
        return 0
    return det


def _solve(support, *xs):
    """The support solver: support and xs are integer rows, b = q_b c and
    x = q X with scales q > 0.  None unless the Gram matrix G of the support
    is negative definite, as the support of a Zariski chamber is; else (det,
    [(p, n) for each x]) with det = |det G| > 0, n = det * y for G y =
    (x.b)_b and p = det * x - sum n_b b: on a chamber with this support,
    P(X) = p / (det q) and c has multiplicity q_b n_b / (det q) (Bauer
    2009).  A support of more than s curves is never negative definite
    (Pic has signature (1, s)), so it is refused before G is built."""
    k = len(support)
    if k >= len(xs[0]):  # a row has s + 1 entries
        return None
    m = []  # G is symmetric: row i copies its first i entries from above
    for i, a in enumerate(support):
        m.append([r[i] for r in m] + [_dot(a, b) for b in support[i:]]
                 + [_dot(x, a) for x in xs])
    det = _negative_definite(m, k, jordan=True)
    if not det:
        return None
    # p_i = det x_i - sum_b n_b b_i, by column i of the support rows
    cols = list(zip(*support)) if k else [()] * len(xs[0])
    ns = [[row[k + j] for row in m] for j in range(len(xs))]
    return det, [([det * v - sum(map(mul, n, c)) for v, c in zip(x, cols)], n)
                 for x, n in zip(xs, ns)]


def _support(model: SurfaceModel, D: PicClass):
    """The Zariski decomposition D = P + N by support growth, as integer
    state (support, p, n, den), or None exactly when D is not psef: P = p /
    den, and support lists N's curves, as indices into model.neg_curves;
    curve support[j], whose row is q C, has multiplicity q n[j] / den > 0.

    The state is kept with D, as D._row is: one entry of D.__dict__,
    outside the dataclass fields, tagged with model._rows and read back
    only for the same rows object (built-in models of one s share it), so
    a class runs the loop once per model whoever asks first.  A ValueError
    is raised again on every call, never kept.
    """
    rows = model._rows
    memo = D.__dict__.get("_support")
    if memo is not None and memo[0] is rows:
        return memo[1]
    _check_s(model, D)
    sup = None
    if model.mode != "user" or is_psef(model, D):
        sup = _grow(rows, *D._row)
        if sup is None and model.mode == "user":
            raise ValueError("the user curve list is inconsistent: the class "
                             "is in its cone but has no Zariski "
                             "decomposition over it")
    D.__dict__["_support"] = (rows, sup)
    return sup


def _grow(rows: _Rows, x, q: int):
    """The support-growth loop of _support on the row x = q D, q > 0.

    For psef D and a complete curve list each stage's support lies in
    Neg(D): its Gram matrix is negative definite, the multiplicities stay
    >= 0, it has at most s curves, and the loop ends with nef P (Bauer,
    J. Algebraic Geom. 2009).  Nef P plus N >= 0 shows D psef, so any other
    outcome rejects D: None, which on a user list whose cone holds D means
    the list is inconsistent.  The curves that left N (n = 0) are dropped.
    """
    support, p, det, n = [], x, 1, ()  # P = p / (det q)
    while True:
        # A support curve has P.C = 0 exactly, so it never shows up again.
        scan = _dots(rows, p)
        new = rows.negative(scan)
        if not new:
            if rows.nef(scan):  # P is nef
                return (tuple(itertools.compress(support, n)), tuple(p),
                        tuple(filter(None, n)), det * q)
            return None
        support.extend(new)
        sol = _solve([rows[k] for k in support], x)
        if sol is None:
            return None
        det, [(p, n)] = sol
        if any(nb < 0 for nb in n):
            return None


def _big(model: SurfaceModel, D: PicClass, what: str):
    """_support(model, D) of a big D, else a ValueError."""
    sup = _support(model, D)
    if sup is None or _dot(sup[1], sup[1]) <= 0:
        raise ValueError(f"{what} computed for big classes only")
    return sup


def _chamber(model: SurfaceModel, supp, x, *us):
    """One walk step: the family x + sum t_j u_j (integer rows on one scale
    q > 0) solved once on the curves supp, indices into model._rows.  None
    unless _solve answers; else (det, ps, cols): on the chamber P = (p_0 +
    sum t_j p_j) / (det q) for the rows ps of x, u_1, ..., and the wall
    rows w, w_0 + sum t_j w_j >= 0, are zip(*cols): each support curve's
    multiplicity, then P.g for each g in model._rows (0 on supp), times
    positive scales.  Columns, because a scan gives one per p_j."""
    rows = model._rows
    if (sol := _solve(tuple(rows[k] for k in supp), x, *us)) is None:
        return None
    det, pn = sol
    return det, [p for p, _ in pn], [n + rows.values(_dots(rows, p))
                                     for p, n in pn]


def chambers(model: SurfaceModel, L: PicClass, w):
    """The Zariski chambers of L - t W, W = sum w_i E_i, w_i >= 0, t >= 0,
    in order (Bauer, Kuronya & Szemberg, Crelle 2004); none if L is not
    psef, where a class nef against a user list counts as psef even
    outside the list's cone.  Yields (t0, t1, k, (A, B, C)) per chamber
    [t0, t1]: t1 is None past the last wall and t1 == t0 where one t
    changes the support twice, k is the support size, and A + B t + C t^2
    is a positive multiple of the volume on the chamber.  The volume does
    not increase along the walk, which starts from L's Zariski support
    (empty when the walls of the empty support show L nef) and ends with
    the chamber where it reaches 0 (the first, when L is not big) or with
    t1 None; past MAX_CHAMBERS chambers it is refused.  An L of the wrong
    s, or a w of other than s entries or with a negative one, is refused
    before the walk."""
    _check_s(model, L)
    w = [parse_rat(x, "weight") for x in w]
    if len(w) != model.s or any(x < 0 for x in w):
        raise ValueError(f"weights must be {model.s} nonnegative rationals, "
                         f"got [{', '.join(map(format_rat, w))}]")
    return _walk(model, L, w)


def _walk(model: SurfaceModel, L: PicClass, w):
    """The generator of chambers(model, L, w), for an L of model.s
    multiplicities and weights already read: s nonnegative ints or
    Fractions."""
    n = len(L.m) + 1  # x = q L and u = q (-W) on one scale q
    row, _ = linalg.scaled((L.d, *L.m, 0, *w))
    x, u, supp, tn, td = row[:n], row[n:], [], 0, 1
    ch = _chamber(model, supp, x, u)
    if ch and min(ch[2][0]) < 0:  # not nef: start from L's Zariski support
        sup = _support(model, L)
        if sup is None:
            return
        supp = list(sup[0])
        ch = _chamber(model, supp, x, u)
    for _ in range(MAX_CHAMBERS):
        if ch is None:
            raise RuntimeError("singular support system in chamber walk")
        _, (p0, p1), cols = ch
        # Wall row j, (a, b) with b < 0, has the wall t = a / -b: support
        # curve j leaves where its multiplicity vanishes, model row j - k
        # enters where P.g does.  One pass finds the nearest wall t1 = a1 / b1
        # (b1 = 0: none yet), comparing a / -b with it by the sign of
        # a b1 + a1 b, and the rows now on it.
        k = len(supp)
        a1, b1, now = 1, 0, []
        for j, a, b in zip(itertools.count(), *cols):
            if b < 0:
                c = a * b1 + a1 * b
                if c < 0:
                    a1, b1, now = a, -b, [j]
                elif c == 0:
                    now.append(j)
        if b1 and a1 * td <= tn * b1:  # then the chamber is the point t0,
            a1, b1 = tn, td  # and every wall at or before t0 is crossed there
            now = [j for j, a, b in zip(itertools.count(), *cols)
                   if b < 0 and a * td <= tn * -b]
        quad = (_dot(p0, p0), 2 * _dot(p0, p1), _dot(p1, p1))  # (det q P)^2
        g = math.gcd(*quad) or 1
        A, B, C = (v // g for v in quad)
        yield (Fraction(tn, td), Fraction(a1, b1) if b1 else None, k,
               (A, B, C))
        if not b1:
            return
        tn, td = a1, b1  # the walls at t1 change the support, unless vol is 0
        if A * td * td + B * tn * td + C * tn * tn <= 0:
            return  # there the ray leaves the big cone, which chambers tile
        supp = ([c for j, c in enumerate(supp) if j not in now]
                + [j - k for j in now if j >= k])
        ch = _chamber(model, supp, x, u)
    raise ValueError(f"chamber walk exceeds MAX_CHAMBERS = {MAX_CHAMBERS}")


def zariski(model: SurfaceModel, D: PicClass) -> ZariskiDecomp:
    """Zariski decomposition D = P + N by iterative support growth."""
    sup = _support(model, D)
    if sup is None:
        raise ValueError("Zariski decomposition needs a pseudoeffective class")
    support, p, n, den = sup
    P = PicClass(Fraction(p[0], den), tuple(Fraction(v, den) for v in p[1:]))
    curves = [model.neg_curves[k] for k in support]
    return ZariskiDecomp(P, tuple((c, Fraction(c._row[1] * nb, den))
                                  for c, nb in zip(curves, n)))


def check_zariski(model: SurfaceModel, D: PicClass, Z: ZariskiDecomp) -> list[str]:
    """Return a list of violated Zariski-decomposition invariants (empty = ok).

    An audit of Z's own fields on integer rows, independent of how Z was
    computed: P + N is compared with D over one common denominator.  A
    class of the wrong s, in D or in Z, is refused with a ValueError.
    """
    _check_s(model, D, Z.positive, *(c for c, _ in Z.negative_support))
    bad = []
    p, qP = Z.positive._row
    if not model._rows.nef(_dots(model._rows, p)):
        bad.append("positive part not nef")
    x, qD = D._row
    rows = [(c._row, a) for c, a in Z.negative_support]
    # a C = a_num * row / (q a_den) for the row q C of C.
    den = math.lcm(qP, qD, *(q * a.denominator for (_, q), a in rows))
    recon = [v * (den // qP) for v in p]
    for (c, q), a in rows:
        if a <= 0:
            bad.append("nonpositive multiplicity in negative part")
        if _dot(p, c) != 0:
            bad.append("positive part meets a support curve")
        f = a.numerator * (den // (q * a.denominator))
        recon = [v + f * w for v, w in zip(recon, c)]
    if recon != [v * (den // qD) for v in x]:
        bad.append("P + N does not reconstruct the input")
    # The Gram matrix of the rows: its k-th leading minor is that of the
    # curves times the square of the product of their scales.
    if rows and not _negative_definite(
            [[_dot(a, b) for (b, _), _ in rows] for (a, _), _ in rows],
            len(rows)):
        bad.append("support intersection matrix not negative definite")
    return bad


def is_big(model: SurfaceModel, D: PicClass) -> bool:
    return vol(model, D) > 0


def vol(model: SurfaceModel, D: PicClass) -> Fraction:
    """P^2, read off the integer state of the support loop; 0 unless D is
    psef."""
    sup = _support(model, D)
    return Fraction(0) if sup is None else Fraction(_dot(sup[1], sup[1]),
                                                    sup[3] ** 2)


def base_loci(model: SurfaceModel, D: PicClass) -> dict:
    """Restricted and augmented base loci of a big class.

    bminus = support of the Zariski negative part; bplus additionally
    collects the model curves orthogonal to the positive part.
    """
    support, p, _, _ = _big(model, D, "base loci")
    bminus = [model.neg_curves[k] for k in support]
    dots = model._rows.values(_dots(model._rows, p))
    extra = [C for k, C in enumerate(model.neg_curves)
             if dots[k] == 0 and k not in support]
    return {"bminus": bminus, "bplus": bminus + extra}


def flag_points(model: SurfaceModel, points) -> list[int]:
    """The flag points, checked before any work: one or more distinct
    indices i of the exceptional curves E_i, 0 <= i < s, else a ValueError
    (input error)."""
    try:
        pts = list(points)
    except TypeError:
        pts = []  # not a list
    # numbers._integer's rule: a bool is not an int, and names no point.
    if not pts or not all(type(i) is int and 0 <= i < model.s
                          for i in pts) or len(set(pts)) != len(pts):
        raise ValueError(f"flag points must be a nonempty list of distinct "
                         f"indices in 0..{model.s - 1}, got {points!r}")
    return pts


def surface_body_outer(model: SurfaceModel, D: PicClass, points: list[int],
                       grid_step: Fraction, t_max: Fraction) -> Polytope:
    """The exact extended body of a big D for infinitesimal flags C_i = E_i.

    Flag points on E_i are general, so block i is shift_i + t_i over [0,
    P(t).E_i]: shift_i is the multiplicity of E_i in N(D), and P(t) is the
    positive part of D' - sum t_i E_i, D' = D - sum shift_i E_i (Lazarsfeld &
    Mustata 2009, Thm 6.4).  P(t) is affine on each Zariski chamber (Bauer,
    Kuronya & Szemberg 2004): a breadth-first walk from the support of D',
    N(D)'s curves less the flags, takes one _chamber step per support (sorted
    model._rows indices), _dd gives the chamber's vertices and the walls tight
    at each, and the walls tight on the same vertices are crossed together
    (support curves leave, curves enter), in lower-dimensional chambers too,
    unless that leaves t >= 0.  _solve answers only negative definite supports
    (one of more than s curves costs no elimination), and on them P nef and
    N >= 0 is the Zariski decomposition, so the body is the hull of all fibre
    ends.  grid_step > 0 and t_max >= 0 are checked and echoed in meta only; a
    D of the wrong s is refused, by _support; past MAX_CHAMBERS supports or
    MAX_FIBRE_POINTS fibre points the walk is refused."""
    points = flag_points(model, points)
    grid_step = parse_rat(grid_step, "grid_step")
    t_max = parse_rat(t_max, "t_max")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    r = len(points)
    support, _, n, den = _big(model, D, "surface body")
    # Each flag E_i's index among the model's curves, by row; None if unnamed.
    curves = model._rows[:model._rows.curves]
    flags = [curves.index(e) if e in curves else None for e in (
        (0, *(-int(j == i) for j in range(model.s))) for i in points)]
    N0 = dict(zip(support, n))  # E_i's row is E_i: scale 1
    sh = [N0.get(f, 0) for f in flags]  # den shift_i
    # D' = D - sum shift_i E_i puts m_i + a / den on E_i: the row x on the
    # scale q, the lcm of its denominators; q D_t = x + sum t_i us_i.
    row, qD = D._row
    X = [den * c for c in row]
    for i, a in zip(points, sh):
        X[i + 1] += qD * a
    g = math.gcd(den * qD, *X)
    x, q = tuple(c // g for c in X), den * qD // g
    us = [tuple(q * (j == i + 1) for j in range(len(x))) for i in points]
    unit = [tuple(int(j == k) for j in range(r + 1)) for k in range(r + 1)]
    todo = [tuple(sorted(set(support).difference(flags)))]
    seen, pts = set(todo), []
    for k, supp in enumerate(todo):  # todo grows as the walk goes
        if k == MAX_CHAMBERS:
            raise ValueError(f"chamber walk exceeds MAX_CHAMBERS = {MAX_CHAMBERS}")
        if not (ch := _chamber(model, supp, x, *us)):
            continue
        det, ps, cols = ch  # rows on (tau, t), the point t / tau
        walls = [*zip(*cols)]
        betas = [tuple(p[i + 1] for p in ps) for i in points]
        verts = [v for v in polytope._dd(walls + unit) if v[0][0] > 0]
        for v, _ in verts:  # t = v[1:] / v[0], and P(t).E_i = P(t).m_i
            # Ends on the scale S = den det q v0, a = den shift_i: shift_i +
            # t_i = det q (a v0 + den v_i) / S and P(t).E_i = den b.v / S.
            S = den * det * q * v[0]
            ends = [[(det * q * (a * v[0] + den * tk), y) for y in (
                0, den * sum(map(mul, b, v)))]
                for a, tk, b in zip(sh, v[1:], betas)]
            pts += ((sum(e, ()), S) for e in itertools.product(*ends))
        if len(pts) > MAX_FIBRE_POINTS:
            raise ValueError(f"surface body exceeds MAX_FIBRE_POINTS = "
                             f"{MAX_FIBRE_POINTS} fibre points; give fewer "
                             f"points")
        groups = {}
        ons = [sum(1 << e for e, (_, m) in enumerate(verts) if m >> j & 1)
               for j in range(len(walls) + r + 1)]
        # Beyond a face in t_i = 0, short of the whole chamber, t_i < 0.
        edge = set(ons[len(walls) + 1:]) - {(1 << len(verts)) - 1}
        for j, c in enumerate(itertools.chain(supp, range(len(curves)))):
            if ons[j] and ons[j] not in edge and (  # P.c = 0 on supp
                    j < len(supp) or c not in supp):
                groups.setdefault(ons[j], set()).add(c)
        new = {tuple(sorted(set(supp) ^ gs)) for gs in groups.values()} - seen
        seen |= new
        todo += sorted(new)
    body = Polytope._of(2 * r, pts)
    body.meta.update(outer_approx=True, grid_step=format_rat(grid_step),
                     t_max=format_rat(t_max),
                     flag_points="general on each exceptional curve")
    return body
