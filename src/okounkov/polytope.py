"""Exact rational convex polytopes.

A body is the convex hull of the points it is built from: the constructor
keeps the sorted vertices and the H-representation (facet halfspaces plus
affine-hull equalities) it computes on the way, as integer rows.  The
producers below hand it integer points on one common scale, and the rows
become Fractions only when halfspaces() is read; integer entries in
-256..256 take the Fractions numbers._FRACTION shares.  Both conversions
are _cone of a homogenised system: the vertices of {c + a.x >= 0} are the
rays (t, z), t > 0, of its cone, and a hull's facets the rays (c, a) of
its polar cone, and both run the one double description _dd, which sets
zero and repeated rows aside and starts from a simplex spread over the
lexicographic order of the rows.  Volumes are measured in the Euclidean metric induced from the
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
from .numbers import (_INT, _OBJECT, _RAT_LISTS, RadVal, _fraction,
                      _integer, _read_json, format_rat, parse_rat)

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
        _integer(self.n, "n", 1)
        ws = tuple(parse_rat(w, "slice weight") for w in self.weights)
        if len(ws) != _integer(self.r, "r", 1) or any(w <= 0 for w in ws):
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
        n = _integer(self.ambient_dim, "ambient dimension", 0)
        pts = list(map(_scaled_point, self.vertices))
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
        self.vertices = tuple(
            tuple(map(_fraction, p) if q == 1 else (Fraction(x, q) for x in p))
            for p in self._core.points)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    # -- H-representation --------------------------------------------
    def halfspaces(self) -> tuple[list[Halfspace], list[Equality]]:
        """(facet halfspaces, affine-hull equalities), built from the
        integer rows on first read."""
        if self._halfs is None:
            c, q = self._core, self._core.q
            self._halfs = tuple(
                [(tuple(map(_fraction, a)),
                  _fraction(b) if q == 1 else Fraction(b, q)) for a, b in rows]
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
        v, q = _scaled_point(p)
        pts.append((v, q * _integer(level, "level", 1)))
        if len(v) != len(pts[0][0]):
            raise ValueError(f"point of length {len(v)} in ambient "
                             f"dimension {len(pts[0][0])}")
    if not pts:
        raise ValueError("cone_base needs at least one graded point")
    return Polytope._of(len(pts[0][0]), pts)


def affine_image(P: Polytope, M, t=None) -> Polytope:
    """Hull of {M v + t} over the vertices of P."""
    rows = [tuple(parse_rat(x, "matrix entry") for x in row) for row in M]
    out_dim = len(rows)
    T, qt = _scaled_point((0,) * out_dim if t is None else t, "translation")
    if any(len(row) != P.ambient_dim for row in rows) or len(T) != out_dim:
        raise ValueError("matrix/translation shape mismatch")
    # With M = A / qm and t = T / qt, M (v / q) + t = (qt A v + q qm T) / s
    # for s = q qm qt.
    qm = lcm(*(x.denominator for row in rows for x in row))
    A = [[x.numerator * (qm // x.denominator) for x in row] for row in rows]
    q = P._core.q * qm
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
        p, s = _scaled_point(inner)
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

    Lasserre's cone decomposition (Lasserre, "An analytical expression and
    an algorithm for the volume of a convex polyhedron in R^n", JOTA 1983),
    read off the cached facet masks, with determinants in place of heights:
    a face F is coned from its first vertex v0 over its facets that miss v0,
    down to faces that are simplices.  A simplex face with vertices v_0,
    ..., v_k below a chain A of apexes v_d, ..., v_{k+1} spans a simplex of
    volume |det(v_i - v_0)| / d! in the coordinates of the affine span.  So
    F's sum below A is |det[A, tau_F]| ratio(F) for one fixed simplex tau_F
    of F, and ratio(F) = vol(F) / vol(tau_F) does not depend on A.  The
    first visit of F sums its facets G_1, G_2, ... and takes tau_F = v0 and
    tau_{G_1}, whose determinant G_1 returns, so ratio(F) costs nothing more;
    it is kept by F's vertex mask, and each later visit costs one
    determinant.  The determinants are integers taken on the frame
    coordinates q y, and so is every sum, so the total is divided once by
    q^d d!.
    """
    if P.is_empty:
        return RadVal.rational(0)
    _, _, q, _, coords, gram, masks = P._core
    d = len(coords[0])
    if d == 0:
        return RadVal.rational(0)
    seen = {}  # face mask -> (tau mask, sum, |det| on the first visit)

    def det(apexes, face):
        # |det| of the simplex on the apexes and the vertices of face.
        low = face & -face
        v0 = coords[low.bit_length() - 1]
        rows = [[x - y for x, y in zip(a, v0)] for a in apexes]
        face ^= low
        while face:
            low = face & -face
            rows.append([x - y for x, y in
                         zip(coords[low.bit_length() - 1], v0)])
            face ^= low
        return abs(linalg.bareiss(rows, d))

    def measure(face, apexes):
        # (the sum of face below the apexes, |det[apexes, tau_face]|).  The
        # facets of a face F are the inclusion-maximal proper nonempty sets
        # F & m over the facet masks m, so a face below k apexes has
        # dimension d - k, and with d - k + 1 vertices it is a simplex.
        if face.bit_count() + len(apexes) == d + 1:
            x = det(apexes, face)
            return x, x
        if face in seen:
            tau, total, first = seen[face]
            x = det(apexes, tau)
            return x * total // first, x
        low = face & -face
        below = apexes + [coords[low.bit_length() - 1]]
        subs = {face & m for m in masks} - {0, face}
        total = g1 = None
        # Skipping the facets through v0 only prunes flat simplices.
        for f in subs:
            if f & low or any(f != g and f & g == f for g in subs):
                continue
            c, x = measure(f, below)
            if g1 is None:
                g1, total, first = f, c, x
            else:
                total += c
        tau = g1 if g1.bit_count() + len(below) == d + 1 else seen[g1][0]
        seen[face] = low | tau, total, first
        return total, first

    # The body's own faces are its facet masks, already maximal: cone those
    # that miss vertex 0 from it.
    total = sum(measure(m, [coords[0]])[0] for m in masks if not m & 1)
    return RadVal.sqrt(gram) * Fraction(total, q ** d * factorial(d))


def inverted_slice_simplex(xi, n: int) -> Polytope:
    """Hull of 0 and the partial sums of the weighted block directions.

    The k-th nonzero generator puts weight xi_i on coordinates
    (i-1)n + 1 .. (i-1)n + k of every block i.
    """
    xs = [parse_rat(x, "slice-simplex size") for x in xi]
    if any(x < 0 for x in xs):
        raise ValueError("negative slice-simplex size")
    if _integer(n, "n") < 1 or not xs:
        raise ValueError("need n >= 1 and r >= 1")
    dim = n * len(xs)
    return hull([(Fraction(0),) * dim, *_block_steps(xs, n)], dim)


# -- internal helpers ------------------------------------------------

def _scaled_point(p, what="coordinate") -> tuple[tuple[int, ...], int]:
    """(q p as an int tuple, q) of a caller's point p, each coordinate read
    by numbers.parse_rat."""
    p = tuple(p)
    if all(type(x) is int for x in p):
        return p, 1
    return linalg.scaled([parse_rat(x, what) for x in p])


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
    method revisited", 1996) on the distinct nonzero rows.  A zero row is
    tight at every ray and a repeat wherever its first copy is, so those
    rows are set aside and their bits ORed into the masks at the end.

    The start is the simplicial cone of n independent rows.  With k > n + 1
    distinct rows in lexicographic order it is the first ceil(n/2) and the
    last floor(n/2) of them, a simplex spread over both ends of the order:
    a 10-point 3-D moment cloud's hull makes 28 rays from it, 43 from the
    first n.  With k = n + 1 one row is left to insert whichever simplex
    starts, so the first n start.  A singular start falls back to
    _independent's pick, the first n rows when they are independent, with
    no second try of the first n.  The other rows are then added one at a
    time in lexicographic order (cddlib's default).  Adding them
    alternately from both ends made fewer rays on the clouds too, but the
    Bl5 -K r = 5 body 5.6 times slower to build.

    A new row keeps the rays on its side and joins each adjacent pair of
    rays it separates; two rays are adjacent when no third ray is tight at
    every row tight at both.  Returns [(ray, mask)] with each ray a
    primitive integer tuple and mask the bitmask of the rows tight at it,
    or None when the rows have rank below n (the cone is not pointed).
    """
    n = len(rows[0])
    # The distinct nonzero rows in lexicographic order; equal rows sort
    # next to each other, so a repeat follows its first copy.
    distinct, zero, copies = [], 0, []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        a = rows[i]
        if not any(a):
            zero |= 1 << i
        elif distinct and rows[distinct[-1]] == a:
            copies.append((distinct[-1], i))
        else:
            distinct.append(i)
    k = len(distinct)

    def start(basis):
        # [B | I] eliminated, for the rows B of the basis; None when singular.
        m = [list(rows[i]) + [int(i == j) for j in basis] for i in basis]
        return m if len(m) == n and linalg.bareiss(m, n, jordan=True) else None

    basis = (distinct[:(n + 1) // 2] + distinct[k - n // 2:] if k > n + 1
             else distinct[:n])
    if (m := start(basis)) is None:
        basis = [distinct[j]
                 for j in _independent(rows[i] for i in distinct)[0]]
        if (m := start(basis)) is None:
            return None
    # Column j of the inverse, |det| times it in m, is tight at every basis
    # row but the j-th and positive on that one.
    full = sum(1 << i for i in basis)
    rays = []
    for j, i in enumerate(basis):
        r = [row[n + j] for row in m]
        g = gcd(*r)
        rays.append((tuple(x // g for x in r), full ^ (1 << i)))
    for i in distinct:
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
    if not (zero or copies):
        return rays
    out = []
    for r, m in rays:
        for j, i in copies:
            m |= (m >> j & 1) << i
        out.append((r, m | zero))
    return out


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
        # Delete the other points' bits from every mask, one run a..b - 1 of
        # them between two vertices at a time, the highest run first.
        ends = [-1, *kept, len(ints)]
        for a, b in reversed(list(zip(ends, ends[1:]))):
            if b > a + 1:
                low = (1 << a + 1) - 1
                masks = [m & low | m >> b - a - 1 & ~low for m in masks]
        ints = [ints[k] for k in kept]
        coords = [coords[k] for k in kept]
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
