"""Exact rational convex polytopes.

A body is the convex hull of the points it is built from: the constructor
keeps the sorted vertices and the H-representation (facet halfspaces plus
affine-hull equalities) it computes on the way, as integer rows.  The
producers below hand it integer points on one common scale, and the rows
become Fractions only when halfspaces() is read.  Both conversions are
_cone of a homogenised system: the vertices of {c + a.x >= 0} are the rays
(t, z), t > 0, of its cone, and a hull's facets the rays (c, a) of its
polar cone.  Volumes are measured in the Euclidean metric induced from the
ambient space, so lower-dimensional bodies get the honest surface measure
(a diagonal segment has length sqrt(2)).
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, prod
from operator import mul

from . import linalg
from .linalg import Vec
from .numbers import (_INT, _OBJECT, _RAT_LISTS, RadVal, _read_json,
                      format_rat)

Halfspace = tuple[Vec, Fraction]  # <normal, x> <= offset
Equality = tuple[Vec, Fraction]   # <normal, x> == offset
_Record = namedtuple("_Record", "facets eqs q points coords gram masks")


@dataclass(frozen=True)
class SliceSpec:
    """The n-dimensional weighted-diagonal subspace of R^{nr}.

    Basis vectors b_j (j = 1..n) place weight m_i at coordinate (i-1)n + j,
    i.e. b_j is the weighted sum of the j-th unit direction of every block.
    """

    n: int
    r: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if len(ws) != self.r or any(w <= 0 for w in ws):
            raise ValueError("slice weights must be r positive rationals")
        object.__setattr__(self, "weights", ws)

    def basis(self) -> list[Vec]:
        n = self.n
        return [tuple(w * (k == j) for w in self.weights for k in range(n))
                for j in range(n)]

    def gram_scale(self) -> RadVal:
        """sqrt(det Gram(basis)) = (sum m_i^2)^{n/2}."""
        s = sum((w * w for w in self.weights), Fraction(0))
        return RadVal.sqrt(s ** self.n)


@dataclass
class Polytope:
    """The convex hull of the given points.

    The constructor keeps only the vertices, lexicographically sorted, and
    _hrep_from_vertices' record of the body: the integer H-representation,
    the integer vertices, and the coordinates and facet masks volume reads.
    """

    ambient_dim: int
    vertices: tuple[Vec, ...]
    meta: dict = field(default_factory=dict, compare=False)
    _core: _Record = field(init=False, repr=False, compare=False)
    _halfs = None  # halfspaces(), once read

    def __post_init__(self):
        n = self.ambient_dim
        pts = [linalg.scaled([_exact(x) for x in p]) for p in self.vertices]
        if bad := [len(v) for v, _ in pts if len(v) != n]:
            raise ValueError(
                f"point of length {bad[0]} in ambient dimension {n}")
        self._build(pts)

    @classmethod
    def _of(cls, n, points):
        """The body the constructor builds from the points p / t of R^n,
        pairs (p, t) of an integer tuple and t > 0, without Fractions."""
        P = cls.__new__(cls)
        P.ambient_dim, P.meta = n, {}
        P._build(points)
        return P

    def _build(self, points):
        # The record of the pairs (p, t) of _of, on their lowest scale.
        points = list(points)
        s = lcm(*(t for _, t in points))
        pts = {p if t == s else tuple(x * (s // t) for x in p)
               for p, t in points}
        g = gcd(s, *chain.from_iterable(pts))
        q, ints = s // g, sorted({tuple(x // g for x in p) for p in pts}
                                 if g > 1 else pts)
        self._core = _hrep_from_vertices(q, ints, self.ambient_dim)
        self.vertices = tuple(tuple(Fraction(x, q) for x in p)
                              for p in self._core.points)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    # -- H-representation --------------------------------------------
    def halfspaces(self) -> tuple[list[Halfspace], list[Equality]]:
        """(facet halfspaces, affine-hull equalities), built from the
        integer rows on first read."""
        if self._halfs is None:
            c = self._core
            self._halfs = tuple(
                [(tuple(map(Fraction, a)), Fraction(b, c.q)) for a, b in rows]
                for rows in (c.facets, c.eqs))
        return self._halfs

    def dim(self) -> int:
        """Dimension of the affine span (-1 for empty)."""
        if self.is_empty:
            return -1
        return self.ambient_dim - len(self._core.eqs)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": [[format_rat(x) for x in v] for v in self.vertices],
        }

    @staticmethod
    def from_json(obj: dict) -> "Polytope":
        """The body of a to_json document, or of a CLI result with meta."""
        return Polytope(*_read_json(
            obj, "polytope", {"meta": {}}, ambient_dim=_INT,
            vertices=_RAT_LISTS, meta=_OBJECT))


def hull(points, ambient_dim: int) -> Polytope:
    """Convex hull: the body the points build."""
    return Polytope(ambient_dim, points)


def cone_base(graded_points) -> Polytope:
    """Level-1 slice of the cone over graded points: hull of {p / level}."""
    pts = []
    for p, level in graded_points:
        level = int(level)
        if level <= 0:
            raise ValueError("levels must be positive")
        v, q = linalg.scaled(p)
        pts.append((v, q * level))
        if len(v) != len(pts[0][0]):
            raise ValueError(f"point of length {len(v)} in ambient "
                             f"dimension {len(pts[0][0])}")
    if not pts:
        raise ValueError("cone_base needs at least one graded point")
    return Polytope._of(len(pts[0][0]), pts)


def affine_image(P: Polytope, M, t=None) -> Polytope:
    """Hull of {M v + t} over the vertices of P."""
    rows = [tuple(Fraction(x) for x in row) for row in M]
    out_dim = len(rows)
    if t is None:
        t = (Fraction(0),) * out_dim
    t = tuple(Fraction(x) for x in t)
    if any(len(row) != P.ambient_dim for row in rows) or len(t) != out_dim:
        raise ValueError("matrix/translation shape mismatch")
    # With M = A / qm and t = T / qt, M (v / q) + t = (qt A v + q qm T) / s
    # for s = q qm qt.
    qm = lcm(*(x.denominator for row in rows for x in row))
    A = [[x.numerator * (qm // x.denominator) for x in row] for row in rows]
    (T, qt), q = linalg.scaled(t), P._core.q * qm
    return Polytope._of(out_dim, ((tuple(
        qt * sum(map(mul, row, v)) + q * y for row, y in zip(A, T)), q * qt)
        for v in P._core.points))


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("Minkowski sum of bodies in different dimensions")
    a, b = P._core, Q._core
    return Polytope._of(P.ambient_dim, ((tuple(
        b.q * x + a.q * y for x, y in zip(u, v)), a.q * b.q)
        for u in a.points for v in b.points))


def contains(outer: Polytope, inner) -> bool:
    """Exact containment of a point (sequence) or another polytope."""
    if isinstance(inner, Polytope):
        n, s, pts = inner.ambient_dim, inner._core.q, inner._core.points
    else:
        p, s = linalg.scaled(tuple(map(Fraction, inner)))
        n, pts = len(p), [p]
    if n != outer.ambient_dim:
        raise ValueError("containment across different ambient dimensions")
    c = outer._core
    # a.(q x) <= b at x = p / s is q a.p <= s b.
    return all(all(c.q * sum(map(mul, a, p)) == s * b for a, b in c.eqs)
               and all(c.q * sum(map(mul, a, p)) <= s * b for a, b in c.facets)
               for p in pts)


def intersect_subspace(P: Polytope, S: SliceSpec) -> tuple[Polytope, RadVal]:
    """P cut with the weighted-diagonal subspace, in slice coordinates.

    Returns the intersection expressed in coordinates w.r.t. the slice
    basis b_j, together with gram_scale = sqrt(det Gram(b)) so that
    induced-metric volume = coordinate volume * gram_scale.
    """
    if P.ambient_dim != S.n * S.r:
        raise ValueError("slice spec does not match ambient dimension")
    scale = S.gram_scale()
    qw = linalg.scaled(S.weights)[1]
    basis = [linalg.scaled(b)[0] for b in S.basis()]  # qw b_j
    c = P._core

    # x = sum_j y_j b_j turns a.(q x) <= b into qw b - (q a.(qw b_j)).y >= 0.
    def sub(rows):
        return [(qw * b, *(-c.q * sum(map(mul, a, u)) for u in basis))
                for a, b in rows]

    return Polytope._of(S.n, _vertex_points(sub(c.facets), sub(c.eqs),
                                            S.n)), scale


def volume(P: Polytope) -> RadVal:
    """Volume of P inside its affine span, induced Euclidean metric.

    A pulling triangulation (De Loera, Rambau & Santos, "Triangulations",
    2010) read off the cached facet masks: each face is coned from its first
    vertex over its facets that miss that vertex, down to faces that are
    simplices.  A simplex face with vertices v_0, ..., v_k below a chain of
    apexes v_d, ..., v_{k+1} spans a simplex of volume |det(v_i - v_0)| / d!
    in the coordinates of the affine span.  The determinants are taken on
    the integer frame coordinates q y, so their sum is divided once by
    q^d d!.
    """
    if P.is_empty:
        return RadVal.rational(0)
    _, _, q, _, coords, gram, masks = P._core
    d = len(coords[0])
    if d == 0:
        return RadVal.rational(0)

    def pull(face, apexes):
        # The facets of a face F are the inclusion-maximal proper nonempty
        # sets F & m over the facet masks m, so a face below k apexes has
        # dimension d - k, and with d - k + 1 vertices it is a simplex: its
        # own pulling triangulation.
        low = face & -face
        v0 = coords[low.bit_length() - 1]
        if face.bit_count() + len(apexes) == d + 1:
            rest = [y for j, y in enumerate(coords) if (face ^ low) >> j & 1]
            return abs(linalg.bareiss([[x - y for x, y in zip(a, v0)]
                                       for a in apexes + rest], d))
        subs = {face & m for m in masks} - {0, face}
        # Skipping the facets through v0 only prunes flat simplices.
        return sum(pull(f, apexes + [v0]) for f in subs
                   if not f & low
                   and not any(f != g and f & g == f for g in subs))

    # The body's own faces are its facet masks, already maximal: cone those
    # that miss vertex 0 from it.
    total = sum(pull(m, [coords[0]]) for m in masks if not m & 1)
    return RadVal.sqrt(gram) * Fraction(total, q ** d * factorial(d))


def inverted_slice_simplex(xi, n: int) -> Polytope:
    """Hull of 0 and the partial sums of the weighted block directions.

    The k-th nonzero generator puts weight xi_i on coordinates
    (i-1)n + 1 .. (i-1)n + k of every block i.
    """
    xs = [Fraction(x) for x in xi]
    if any(x < 0 for x in xs):
        raise ValueError("negative slice-simplex size")
    if n < 1 or not xs:
        raise ValueError("need n >= 1 and r >= 1")
    dim = n * len(xs)
    return hull([(Fraction(0),) * dim, *_block_steps(xs, n)], dim)


# -- internal helpers ------------------------------------------------

def _exact(x):
    """x as an int or a Fraction; a float, a binary fraction, and a bool are
    refused."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{type(x).__name__} coordinate {x!r}; give an "
                         f"exact rational")
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _block_steps(xs, n) -> list[Vec]:
    """The n partial sums of the weighted block directions: the k-th puts
    xs[i] on the first k coordinates of every block i."""
    return [tuple(x * (j < k) for x in xs for j in range(n))
            for k in range(1, n + 1)]


def _independent(rows) -> tuple[list[int], list[int]]:
    """The rows independent of the rows before them, at most as many as
    there are columns, by fraction-free (Bareiss) elimination: (their
    indices, the pivot columns of the RREF of their span)."""
    picked, echelon = [], []
    for i, a in enumerate(rows):
        # Each echelon row is zero at the leading columns of the rows before
        # it, so a ends zero at every leading column.
        a, prev = list(a), 1
        for c, b in echelon:
            linalg.bareiss_step([a], b, c, prev)
            prev = b[c]
        lead = next((c for c, x in enumerate(a) if x), None)
        if lead is None:
            continue
        echelon.append((lead, a))
        picked.append(i)
        if len(picked) == len(a):
            break
    # Distinct leading columns, sorted, make an echelon form of the span.
    return picked, sorted(c for c, _ in echelon)


def _kernel(rows, n) -> tuple[list[int], list[list[int]]]:
    """(pivots, basis) of {x in Z^n : row . x = 0 for every row}, integer
    rows: the pivot columns of their RREF B, and one primitive vector per
    free column f, in order, positive at f and 0 at the other free columns.

    _independent finds the pivots and a basis of the span among the rows;
    one fraction-free Gauss-Jordan pass (Bareiss) over it, pivot columns
    first, gives D B at the free columns, D > 0, and the vector for f is D
    at f and -D B[:, f] at the pivots.  No nonzero row: the unit basis; rank
    n: no free column and no pass.
    """
    picked, pivots = _independent(rows)
    d = len(pivots)
    if d == n:
        return pivots, []
    free = [c for c in range(n) if c not in pivots]
    m = [[rows[i][c] for c in pivots + free] for i in picked]
    det = linalg.bareiss(m, d, jordan=True)
    basis = []
    for t, f in enumerate(free):
        v = [0] * n
        v[f] = det
        for row, c in zip(m, pivots):
            v[c] = -row[d + t]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return pivots, basis


def _dd(rows):
    """Extreme rays of the pointed cone {x : row . x >= 0}, integer rows.

    Motzkin's double description (Fukuda & Prodon, "Double description
    method revisited", 1996): start from the simplicial cone of the first
    n independent rows, then add the other rows one at a time, both in
    lexicographic order (cddlib's default; it tests far fewer pairs than
    the input order on the surface bodies' hulls).  A new row
    keeps the rays on its side and joins each adjacent pair of rays it
    separates; two rays are adjacent when no third ray is tight at every
    row tight at both.  Returns [(ray, mask)] with each ray a primitive
    integer tuple and mask the bitmask of the rows tight at it, or None
    when the rows have rank below n (the cone is not pointed).
    """
    n = len(rows[0])
    order = sorted(range(len(rows)), key=rows.__getitem__)
    basis = [order[k] for k in _independent([rows[i] for i in order])[0]]
    if len(basis) < n:
        return None
    m = [list(rows[i]) + [int(i == j) for j in basis] for i in basis]
    linalg.bareiss(m, n, jordan=True)
    # Column j of the inverse, |det| times it in m, is tight at every basis
    # row but the j-th and positive on that one.
    full = sum(1 << i for i in basis)
    rays = []
    for j, i in enumerate(basis):
        r = [row[n + j] for row in m]
        g = gcd(*r)
        rays.append((tuple(x // g for x in r), full ^ (1 << i)))
    for i in order:
        if full >> i & 1:
            continue
        a = rows[i]
        out, pos, neg = [], [], []
        for r, m in rays:
            v = sum(map(mul, a, r))
            if v > 0:
                out.append((r, m))
                pos.append((v, r, m))
            elif v < 0:
                neg.append((v, r, m))
            else:
                out.append((r, m | 1 << i))
        if not neg:
            rays = out
            continue
        masks = None
        for vp, rp, mp in pos:
            # A ray tight at exactly n - 1 rows is tight at independent
            # ones.  Then z, short of all of them (q is another ray), holds
            # n - 2 at most, and n - 2 cut out a 2-face: p and q span an edge.
            simple = mp.bit_count() == n - 1
            for vq, rq, mq in neg:
                z = mp & mq
                if z.bit_count() < n - 2:
                    continue
                if not simple:
                    # p and q themselves contain z; a third ray means the
                    # two span no edge.  Rays have distinct masks.
                    masks = masks or [m for _, m in rays]
                    if any(m & z == z and m != mp and m != mq for m in masks):
                        continue
                r = [vp * y - vq * x for x, y in zip(rp, rq)]
                g = gcd(*r)
                out.append((tuple(x // g for x in r), z | 1 << i))
        rays = out
    return rays


def _cone(le, eq, n):
    """The extreme rays of {x in R^n : row . x >= 0 for each row of le, row
    . x = 0 for each row of eq}, integer rows, as _dd's pairs (ray, mask),
    the mask over the rows of le; None when the cone is not pointed.

    With equalities, x = sum y_k u_k over the _kernel basis u_k of eq: _dd
    runs on the rows (row . u_k)_k, and each ray y maps back to the
    primitive x.  With none, _dd runs on le itself.
    """
    if not eq:
        return _dd(le)
    _, basis = _kernel(eq, n)
    rays = _dd([tuple(sum(map(mul, a, u)) for u in basis) for a in le])
    cols = list(zip(*basis))
    out = []
    for y, mask in rays or ():
        x = [sum(map(mul, y, col)) for col in cols]
        g = gcd(*x)
        out.append((tuple(v // g for v in x), mask))
    return None if rays is None else out


def _hrep_from_vertices(q, ints, ambient_dim):
    """The _Record of the hull of the points p given as the distinct sorted
    integer points ints = q p, q > 0.  A facet row (a, b) is a.(q x) <= b
    and an equality row a.(q x) = b, a primitive; the facets are sorted.
    The points are the vertices of ints and each facet's mask lists the
    vertices on it.  A difference d = p - ints[0] is the sum of the rows of
    the RREF B of the differences weighted by its entries at the pivot
    columns, so those entries are its coordinates q y, coords.  The
    equality normals N are _kernel's basis of {a : a.d = 0}; scaled to 1
    at their own free columns they have Gram determinant gram = det(B B^T)
    (Sylvester's determinant identity).
    """
    if not ints:
        # Canonical infeasible system: 0.x <= -1.
        return _Record([((0,) * ambient_dim, -q)], [], q, [], [], 1, [])
    v0 = ints[0]
    diffs = [[x - y for x, y in zip(p, v0)] for p in ints]
    pivots, normals = _kernel(diffs, ambient_dim)
    coords = [tuple(d[c] for c in pivots) for d in diffs]
    free = [c for c in range(ambient_dim) if c not in pivots]
    # N N^T is positive definite: its pivots are positive and never swapped.
    gram = Fraction(linalg.bareiss([[sum(map(mul, a, b)) for b in normals]
                                    for a in normals], len(normals)),
                    prod(nrm[f] for nrm, f in zip(normals, free)) ** 2)
    eqs = [(tuple(nrm), sum(map(mul, nrm, v0))) for nrm in normals]
    if not pivots:
        return _Record([], eqs, q, ints, coords, gram, [])
    # The facets a.(x - v0) <= c, the mask listing the points on each, are
    # the rays (c, a) of the polar cone {c - a.d >= 0 at every difference
    # d, a.N = 0 at every normal N}.  A ray is primitive and c = a.d at a
    # point on the facet, so a is primitive and in the span; c + a.v0 is
    # the offset.  Distinct facets have distinct normals, which sort them.
    ranked = sorted((tuple(a), c + sum(map(mul, a, v0)), mask)
                    for (c, *a), mask in _cone(
                        [(1, *(-x for x in d)) for d in diffs],
                        [(0, *nrm) for nrm in normals], ambient_dim + 1))
    masks = [m for _, _, m in ranked]
    # A point is a vertex iff it is the only point on every facet through
    # it: meet[k] is the meet of the masks of the facets through point k.
    meet = [(1 << len(ints)) - 1] * len(ints)
    for m in masks:
        b = m
        while b:
            low = b & -b
            meet[low.bit_length() - 1] &= m
            b ^= low
    kept = [k for k, m in enumerate(meet) if m == 1 << k]
    if len(kept) < len(ints):
        ints = [ints[k] for k in kept]
        coords = [coords[k] for k in kept]
        masks = [sum(1 << j for j, k in enumerate(kept) if m >> k & 1)
                 for m in masks]
    return _Record([(a, b) for a, b, _ in ranked], eqs, q, ints, coords,
                   gram, masks)


def _vertex_points(le, eq, dim):
    """The vertices z / t of the bounded {x : c + a.x >= 0 for each row
    (c, *a) of le, c + a.x = 0 for each row of eq}, integer rows, as pairs
    (z, t): homogenised, x = z / t, the rows are those of the _cone on
    (t, z), with t >= 0, and the vertices its rays with t > 0.  Inconsistent
    equalities leave only t = 0."""
    rays = _cone([(1,) + (0,) * dim, *le], eq, dim + 1)
    return [(tuple(z), t) for (t, *z), _ in rays or () if t > 0]


def _vertices_from_constraints(halfs, eqs, dim) -> list[Vec]:
    """Enumerate vertices of {x : eqs hold, halfs satisfied} (bounded case):
    _vertex_points of the rows (c, -n) of n.x <= c and n.x = c, scaled to
    integers by positive factors, which keep the rays."""
    return [tuple(Fraction(x, t) for x in z) for z, t in _vertex_points(
        *([linalg.scaled((c, *(-x for x in n)))[0] for n, c in cons]
          for cons in (halfs, eqs)), dim)]
