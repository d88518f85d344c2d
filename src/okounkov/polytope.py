"""Exact rational convex polytopes.

A body is the convex hull of the points it is built from: the constructor
keeps the sorted vertices and the H-representation (facet halfspaces plus
affine-hull equalities) it computes on the way, as integer rows.  The
producers below hand it integer points on one common scale, and the rows
become Fractions only when halfspaces() is read.  Volumes are measured
in the Euclidean metric induced from the ambient space, so lower-dimensional
bodies get the honest surface measure (a diagonal segment has length sqrt(2)).
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
        out = []
        for j in range(self.n):
            b = [Fraction(0)] * (self.n * self.r)
            for i in range(self.r):
                b[i * self.n + j] = self.weights[i]
            out.append(tuple(b))
        return out

    def gram_scale(self) -> RadVal:
        """sqrt(det Gram(basis)) = (sum m_i^2)^{n/2}."""
        s = sum((w * w for w in self.weights), Fraction(0))
        return RadVal.sqrt(s ** self.n)


@dataclass
class Polytope:
    """The convex hull of the given points.

    The constructor keeps only the vertices, lexicographically sorted, and
    _hrep_from_vertices' record of the body: the integer H-representation,
    the integer vertices, and the frame and facet masks that volume reads.
    """

    ambient_dim: int
    vertices: tuple[Vec, ...]
    meta: dict = field(default_factory=dict, compare=False)
    _core: _Record = field(init=False, repr=False, compare=False)
    _halfs = None  # halfspaces(), once read

    def __post_init__(self):
        n, pts = self.ambient_dim, []
        for p in self.vertices:
            v = [x if isinstance(x, (int, Fraction)) else Fraction(x)
                 for x in p]
            if len(v) != n:
                raise ValueError(
                    f"point of length {len(v)} in ambient dimension {n}")
            pts.append(v)
        # q p for the lcm q of the denominators sorts as the points p do.
        q = lcm(*(x.denominator for p in pts for x in p))
        self._build([(tuple(x.numerator * (q // x.denominator) for x in p), q)
                     for p in pts])

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

    # Substitute x = sum_j y_j b_j: a.(q x) <= b is (q a.(qw b_j)).y <= qw b.
    def sub(rows):
        return [(qw * b, *(c.q * sum(map(mul, a, u)) for u in basis))
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

def _block_steps(xs, n) -> list[Vec]:
    """The n partial sums of the weighted block directions: the k-th puts
    xs[i] on the first k coordinates of every block i."""
    return [tuple(x * (j < k) for x in xs for j in range(n))
            for k in range(1, n + 1)]


def _frame(ints):
    """The integer frame of the affine span of integer points about ints[0]:
    (coords, normals, gram, pullback).

    Let B be the RREF basis of the span of the differences p - ints[0] and
    P its pivot columns.  A difference is the sum of the rows of B weighted
    by its entries at P, so those entries, coords, are its coordinates y.
    The normals N, _kernel's basis of the nullspace of B, cut out the affine
    hull.  Scaled to 1 at their own columns they have Gram determinant
    gram = det(B B^T) (Sylvester's determinant identity).  The rows at P of
    the projection I - N^T (N N^T)^{-1} N onto the span are
    L = (B B^T)^{-1} B, the map from x - ints[0] to y; a second pass over
    [N N^T | N] gives pullback = g L, g = det(N N^T).  A full-dimensional
    body has no normals, g = 1 and L = I.
    """
    diffs = [[x - y for x, y in zip(p, ints[0])] for p in ints]
    n = len(ints[0])
    pivots, normals = _kernel(diffs, n)
    free = [c for c in range(n) if c not in pivots]
    scale = prod(nrm[f] for nrm, f in zip(normals, free)) ** 2
    e = len(normals)
    # N N^T is positive definite: its pivots are positive and never swapped.
    nn = [[sum(map(mul, a, b)) for b in normals] + a for a in normals]
    g = linalg.bareiss(nn, e, jordan=True)
    pullback = [[g * (c == t) - sum(a[c] * row[e + t]
                                    for a, row in zip(normals, nn))
                 for t in range(n)] for c in pivots]
    return ([tuple(p[c] for c in pivots) for p in diffs], normals,
            Fraction(g, scale), pullback)


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


def _hrep_from_vertices(q, ints, ambient_dim):
    """The _Record of the hull of the points p given as the distinct sorted
    integer points ints = q p, q > 0.  A facet row (a, b) is a.(q x) <= b
    and an equality row a.(q x) = b, a primitive; the facets are sorted.
    The points are the vertices of ints, coords their frame coordinates q y
    and gram the Gram determinant of _frame, and each facet's mask lists
    the vertices on it.
    """
    if not ints:
        # Canonical infeasible system: 0.x <= -1.
        return _Record([((0,) * ambient_dim, -q)], [], q, [], [], 1, [])
    coords, normals, gram, pullback = _frame(ints)
    eqs = [(tuple(nrm), sum(map(mul, nrm, ints[0]))) for nrm in normals]
    if not coords[0]:
        return _Record([], eqs, q, ints, coords, gram, [])
    # Facets h.y <= c in the frame as ((c, *h), mask), the mask listing the
    # points on the facet: the rays of {(c, h) : q c - h.(q y) >= 0 at
    # every y}.
    facets_local = _dd([(q,) + tuple(-x for x in y) for y in coords])
    # A point is a vertex iff it is the only point on every facet through
    # it: meet[k] is the meet of the masks of the facets through point k.
    meet = [(1 << len(ints)) - 1] * len(ints)
    for _, m in facets_local:
        b = m
        while b:
            low = b & -b
            meet[low.bit_length() - 1] &= m
            b ^= low
    is_vertex = [m == 1 << k for k, m in enumerate(meet)]
    # Pull each local halfspace h.y <= c back through y = L(x - v0): its
    # primitive normal is a = w / k, w = h.(g L) and k = gcd(w), and its
    # offset is a.(q p) at any point p on it.  Distinct facets have
    # distinct normals, which key and sort them.  With no equalities g L is
    # the identity and w = h.
    cols = list(zip(*pullback))
    facets = {}
    for (_, *h), mask in facets_local:
        w = [sum(map(mul, h, col)) for col in cols] if normals else h
        k = gcd(*w)
        a = tuple(x // k for x in w)
        on_it = ints[(mask & -mask).bit_length() - 1]
        facets[a] = (sum(map(mul, a, on_it)), mask)
    ranked = sorted(facets.items())
    masks = [m for _, (_, m) in ranked]
    if not all(is_vertex):
        kept = [k for k, keep in enumerate(is_vertex) if keep]
        ints = [ints[k] for k in kept]
        coords = [coords[k] for k in kept]
        masks = [sum(1 << j for j, k in enumerate(kept) if m >> k & 1)
                 for m in masks]
    return _Record([(a, b) for a, (b, _) in ranked], eqs, q, ints, coords,
                   gram, masks)


def _vertex_points(le, eq, dim):
    """The vertices z / t of the bounded {x : n.x <= c for each row (c, *n)
    of le, n.x = c for each row of eq}, integer rows, as pairs (z, t).

    Homogenised, x = z / t: the points (t, z) with c t = n.z for every
    equality are the combinations sum y_k u_k of the _kernel basis u_k of
    the rows (-c, n), and the vertices are z / t at the rays with t > 0 of
    {y : t >= 0, c t - n.z >= 0 for every row of le}.  Inconsistent
    equalities leave only t = 0; with none the u_k are the unit basis.
    """
    _, basis = _kernel([(-c, *n) for c, *n in eq], dim + 1)
    rows = [tuple(u[0] for u in basis)]
    rows += [tuple(c * u[0] - sum(map(mul, n, u[1:])) for u in basis)
             for c, *n in le]
    homog = [[sum(map(mul, y, col)) for col in zip(*basis)]
             for y, _ in _dd(rows) or ()]
    return [(tuple(z), t) for t, *z in homog if t > 0]


def _vertices_from_constraints(halfs, eqs, dim) -> list[Vec]:
    """Enumerate vertices of {x : eqs hold, halfs satisfied} (bounded case):
    _vertex_points of the rows scaled to integers by positive factors,
    which keep the rays."""
    return [tuple(Fraction(x, t) for x in z) for z, t in _vertex_points(
        *([linalg.scaled((c, *n))[0] for n, c in cons]
          for cons in (halfs, eqs)), dim)]
