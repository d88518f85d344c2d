"""Exact rational convex polytopes.

A body is the convex hull of the points it is built from: the constructor
keeps the sorted vertices and the H-representation (facet halfspaces plus
affine-hull equalities) it computes on the way.  Volumes are measured
in the Euclidean metric induced from the ambient space, so lower-dimensional
bodies get the honest surface measure (a diagonal segment has length sqrt(2)).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from . import linalg
from .linalg import Vec, dot, vadd
from .numbers import RadVal, format_rat, parse_rat

Halfspace = tuple[Vec, Fraction]  # <normal, x> <= offset
Equality = tuple[Vec, Fraction]   # <normal, x> == offset


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
    _hrep_from_vertices' record of the body: the H-representation with the
    frame and the facet masks that volume reads.
    """

    ambient_dim: int
    vertices: tuple[Vec, ...]
    meta: dict = field(default_factory=dict, compare=False)
    _core: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q, ints = _integer_points(self.vertices, self.ambient_dim)
        self._core, is_vertex = _hrep_from_vertices(q, ints, self.ambient_dim)
        self.vertices = tuple(tuple(Fraction(x, q) for x in p)
                              for p, keep in zip(ints, is_vertex) if keep)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    # -- H-representation --------------------------------------------
    def halfspaces(self) -> tuple[list[Halfspace], list[Equality]]:
        """(facet halfspaces, affine-hull equalities)."""
        return self._core[0]

    def dim(self) -> int:
        """Dimension of the affine span (-1 for empty)."""
        if self.is_empty:
            return -1
        return self.ambient_dim - len(self.halfspaces()[1])

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": [[format_rat(x) for x in v] for v in self.vertices],
        }

    @staticmethod
    def from_json(obj: dict) -> "Polytope":
        n = int(obj["ambient_dim"])
        verts = [tuple(parse_rat(x) for x in v) for v in obj["vertices"]]
        return hull(verts, n)


def hull(points, ambient_dim: int) -> Polytope:
    """Convex hull: the body the points build."""
    return Polytope(ambient_dim, points)


def cone_base(graded_points) -> Polytope:
    """Level-1 slice of the cone over graded points: hull of {p / level}."""
    pts = []
    dim = None
    for p, level in graded_points:
        level = int(level)
        if level <= 0:
            raise ValueError("levels must be positive")
        v = tuple(Fraction(x, level) for x in p)
        dim = len(v) if dim is None else dim
        pts.append(v)
    if dim is None:
        raise ValueError("cone_base needs at least one graded point")
    return hull(pts, dim)


def affine_image(P: Polytope, M, t=None) -> Polytope:
    """Hull of {M v + t} over the vertices of P."""
    rows = [tuple(Fraction(x) for x in row) for row in M]
    out_dim = len(rows)
    if t is None:
        t = (Fraction(0),) * out_dim
    t = tuple(Fraction(x) for x in t)
    if any(len(row) != P.ambient_dim for row in rows) or len(t) != out_dim:
        raise ValueError("matrix/translation shape mismatch")
    images = [vadd(tuple(dot(row, v) for row in rows), t) for v in P.vertices]
    return hull(images, out_dim)


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("Minkowski sum of bodies in different dimensions")
    return hull([vadd(p, q) for p in P.vertices for q in Q.vertices],
                P.ambient_dim)


def contains(outer: Polytope, inner) -> bool:
    """Exact containment of a point (sequence) or another polytope."""
    if isinstance(inner, Polytope):
        if outer.ambient_dim != inner.ambient_dim:
            raise ValueError("containment across different ambient dimensions")
        return all(contains(outer, v) for v in inner.vertices)
    pt = tuple(Fraction(x) for x in inner)
    if len(pt) != outer.ambient_dim:
        raise ValueError("containment across different ambient dimensions")
    halfs, eqs = outer.halfspaces()
    return (all(dot(n, pt) == c for n, c in eqs)
            and all(dot(n, pt) <= c for n, c in halfs))


def intersect_subspace(P: Polytope, S: SliceSpec) -> tuple[Polytope, RadVal]:
    """P cut with the weighted-diagonal subspace, in slice coordinates.

    Returns the intersection expressed in coordinates w.r.t. the slice
    basis b_j, together with gram_scale = sqrt(det Gram(b)) so that
    induced-metric volume = coordinate volume * gram_scale.
    """
    if P.ambient_dim != S.n * S.r:
        raise ValueError("slice spec does not match ambient dimension")
    scale = S.gram_scale()
    basis = S.basis()
    halfs, eqs = P.halfspaces()
    # Substitute x = sum_j y_j b_j into every constraint.
    sub_halfs = [(tuple(dot(n, b) for b in basis), c) for n, c in halfs]
    sub_eqs = [(tuple(dot(n, b) for b in basis), c) for n, c in eqs]
    verts = _vertices_from_constraints(sub_halfs, sub_eqs, S.n)
    return hull(verts, S.n), scale


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
    _, q, coords, gram, masks = P._core
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
    return [tuple(x if j < k else Fraction(0) for x in xs for j in range(n))
            for k in range(1, n + 1)]


def _integer_points(points, ambient_dim):
    """(q, the distinct q p, sorted): q > 0 is the lcm of the denominators
    of the points p.  q p sorts in the lexicographic order of p."""
    pts = []
    for p in points:
        v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in p]
        if len(v) != ambient_dim:
            raise ValueError(
                f"point of length {len(v)} in ambient dimension {ambient_dim}"
            )
        pts.append(v)
    q = lcm(*(x.denominator for p in pts for x in p))
    return q, sorted({tuple(x.numerator * (q // x.denominator) for x in p)
                      for p in pts})


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
    n independent rows, then add the other rows one at a time.  A new row
    keeps the rays on its side and joins each adjacent pair of rays it
    separates; two rays are adjacent when no third ray is tight at every
    row tight at both.  Returns [(ray, mask)] with each ray a primitive
    integer tuple and mask the bitmask of the rows tight at it, or None
    when the rows have rank below n (the cone is not pointed).
    """
    n = len(rows[0])
    basis, _ = _independent(rows)
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
    for i, a in enumerate(rows):
        if full >> i & 1:
            continue
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
    """(record, vertex flags) of the hull of the points p given as the
    distinct integer points ints = q p, q > 0.

    The record is ((facet halfspaces, affine-hull equalities), q, coords,
    gram, masks): the frame coordinates q y of the vertices and the Gram
    determinant of _frame, and for each halfspace the bitmask of the
    vertices on it.
    """
    if not ints:
        # Canonical infeasible system.
        zero = (Fraction(0),) * ambient_dim
        return (([(zero, Fraction(-1))], []), q, [], 1, []), []
    coords, normals, gram, pullback = _frame(ints)
    eqs = [(tuple(map(Fraction, nrm)),
            Fraction(sum(map(mul, nrm, ints[0])), q)) for nrm in normals]
    if not coords[0]:
        return (([], eqs), q, coords, gram, []), [True]
    # Facets h.y <= c in the frame as ((c, *h), mask), the mask listing the
    # points on the facet: the rays of {(c, h) : q c - h.(q y) >= 0 at
    # every y}.
    facets_local = _dd([(q,) + tuple(-x for x in y) for y in coords])
    # A point is a vertex iff no other point lies on a strict superset of
    # its facets.
    on = [0] * len(ints)
    for f, (_, m) in enumerate(facets_local):
        while m:
            low = m & -m
            on[low.bit_length() - 1] |= 1 << f
            m ^= low
    is_vertex = [not any(o != mine and o & mine == mine for o in on)
                 for mine in on]
    # Pull each local halfspace h.y <= c back through y = L(x - v0): its
    # primitive normal is w / k, w = h.(g L) and k = gcd(w), and its offset
    # is normal.p = (w.(q p)) / (q k) at any point p on it.  Distinct facets
    # have distinct normals, which key and sort them.  With no equalities
    # g L is the identity and w = h.
    cols = list(zip(*pullback))
    facets = {}
    for (_, *h), mask in facets_local:
        w = [sum(map(mul, h, col)) for col in cols] if normals else h
        k = gcd(*w)
        on_it = ints[(mask & -mask).bit_length() - 1]
        facets[tuple(x // k for x in w)] = (
            Fraction(sum(map(mul, w, on_it)), q * k), mask)
    ranked = sorted(facets.items())
    halfs = [(tuple(map(Fraction, nrm)), c) for nrm, (c, _) in ranked]
    masks = [m for _, (_, m) in ranked]
    if not all(is_vertex):
        kept = [k for k, keep in enumerate(is_vertex) if keep]
        coords = [coords[k] for k in kept]
        masks = [sum(1 << j for j, k in enumerate(kept) if m >> k & 1)
                 for m in masks]
    return ((halfs, eqs), q, coords, gram, masks), is_vertex


def _vertices_from_constraints(halfs, eqs, dim) -> list[Vec]:
    """Enumerate vertices of {x : eqs hold, halfs satisfied} (bounded case).

    Homogenised, x = z / t: the points (t, z) with c t = n.z for every
    equality are the combinations sum y_k u_k of the _kernel basis u_k of
    the rows (-c, n), and the vertices are z / t at the rays with t > 0 of
    {y : t >= 0, c t - n.z >= 0 for every halfspace}.  Inconsistent
    equalities leave only t = 0; with none the u_k are the unit basis.
    """
    _, basis = _kernel([linalg.scaled((-c, *n))[0] for n, c in eqs], dim + 1)
    rows = [tuple(u[0] for u in basis)]
    for n, c in halfs:
        # Scaled to integers by a positive factor, which keeps the rays.
        c, *n = linalg.scaled((c, *n))[0]
        rows.append(tuple(c * u[0] - sum(map(mul, n, u[1:])) for u in basis))
    rays = _dd(rows)
    if rays is None:
        return []
    homog = [[sum(map(mul, y, col)) for col in zip(*basis)] for y, _ in rays]
    return [tuple(Fraction(x, t) for x in z) for t, *z in homog if t > 0]
