import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from okounkov import invariants, linalg, lp, polytope, surface, toric
from okounkov.numbers import RadVal, parse_rat, format_rat, squarefree_split
from okounkov.polytope import (
    affine_image,
    contains,
    hull,
    minkowski_sum,
    volume,
)
from okounkov.surface import E, H, PicClass, SurfaceModel
from okounkov.toric import Fan
from reference import dot

F = Fraction

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def points_strategy(dim, max_points=6):
    point = st.tuples(*([small_rationals] * dim))
    return st.lists(point, min_size=1, max_size=max_points)


# -- RadVal ------------------------------------------------------------

@settings(deadline=None)
@given(rationals)
def test_radval_rational_round_trip(q):
    v = RadVal.rational(q)
    assert v.is_rational and v.as_rational() == q
    assert RadVal.from_json(v.to_json()) == v


@settings(deadline=None)
@given(st.fractions(min_value=0, max_value=30, max_denominator=8))
def test_radval_sqrt_squares_back(q):
    v = RadVal.sqrt(q)
    assert v.squared() == q
    assert v >= 0


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10_000))
def test_squarefree_split_reconstructs(n):
    s, f = squarefree_split(n)
    assert s * s * f == n
    for p in range(2, 40):
        assert f % (p * p) != 0
    assert squarefree_split(0) == (1, 0)


@settings(deadline=None)
@given(rationals, rationals,
       st.integers(min_value=2, max_value=30),
       rationals, rationals)
def test_radval_field_ops_same_radicand(s1, a1, k, s2, a2):
    _, k = squarefree_split(k)
    if k == 1:
        k = 2
    x = RadVal(a1, k, s1)
    y = RadVal(a2, k, s2)
    assert (x + y) - y == x
    assert x * y == y * x
    if not (a2 == 0 and s2 == 0):
        assert (x * y) / y == x


@settings(deadline=None)
@given(rationals, rationals, st.integers(min_value=2, max_value=30))
def test_radval_ordering_total(s1, a1, k):
    _, k = squarefree_split(k)
    x = RadVal(a1, k, s1)
    y = RadVal(a1 + 1, k, s1)
    assert x < y
    assert not (x < x)
    assert x <= x and x == x


@settings(deadline=None)
@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rat(format_rat(q)) == q


# -- hull / containment -----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(points_strategy(2))
def test_hull_idempotent(pts):
    P = hull(pts, 2)
    Q = hull(list(P.vertices), 2)
    assert set(Q.vertices) == set(P.vertices)


@settings(max_examples=40, deadline=None)
@given(points_strategy(2))
def test_hull_contains_generators(pts):
    P = hull(pts, 2)
    assert contains(P, P)
    for p in pts:
        assert contains(P, p)


@settings(max_examples=25, deadline=None)
@given(points_strategy(3, max_points=5))
def test_hull_idempotent_3d(pts):
    P = hull(pts, 3)
    Q = hull(list(P.vertices), 3)
    assert set(Q.vertices) == set(P.vertices)


@settings(max_examples=30, deadline=None)
@given(points_strategy(2))
def test_hrep_vrep_round_trip(pts):
    P = hull(pts, 2)
    halfs, eqs = P.halfspaces()
    back = polytope._vertices_from_constraints(halfs, eqs, 2)
    assert set(hull(back, 2).vertices) == set(P.vertices)


def flat_cloud_3d(k):
    """Points a + sum_j s_j u_j in R^3 for k integer directions u_j."""
    ints = st.integers(-2, 2)
    vec = st.tuples(ints, ints, ints)
    return st.tuples(
        vec, st.lists(vec, min_size=k, max_size=k),
        st.lists(st.lists(small_rationals, min_size=k, max_size=k),
                 min_size=1, max_size=7),
    ).map(lambda t: [tuple(t[0][i] + sum(c * u[i] for c, u in zip(cs, t[1]))
                           for i in range(3)) for cs in t[2]])


@settings(max_examples=40, deadline=None)
@given(st.one_of(points_strategy(3, max_points=8),
                 points_strategy(4, max_points=8),
                 flat_cloud_3d(1), flat_cloud_3d(2)))
def test_hull_vertices_match_lp_oracle(pts):
    d = len(pts[0])
    P = hull(pts, d)
    distinct = sorted({tuple(F(x) for x in p) for p in pts})
    extreme = [p for p in distinct
               if not lp.in_convex_hull([list(q) for q in distinct if q != p],
                                        list(p))]
    assert list(P.vertices) == extreme
    back = polytope._vertices_from_constraints(*P.halfspaces(), d)
    assert sorted(back) == list(P.vertices)


# -- volume ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(points_strategy(2), st.tuples(small_rationals, small_rationals))
def test_volume_translation_invariant(pts, shift):
    P = hull(pts, 2)
    moved = affine_image(P, [[1, 0], [0, 1]], shift)
    assert volume(moved) == volume(P)


@settings(max_examples=30, deadline=None)
@given(points_strategy(2), st.integers(min_value=1, max_value=4))
def test_volume_dilation_scaling(pts, c):
    P = hull(pts, 2)
    scaled = affine_image(P, [[c, 0], [0, c]])
    d = P.dim()
    assert volume(scaled) == volume(P) * (F(c) ** d)


@settings(max_examples=30, deadline=None)
@given(points_strategy(2))
def test_volume_nonnegative_and_squared_rational(pts):
    P = hull(pts, 2)
    v = volume(P)
    assert v >= 0
    assert isinstance(v.squared(), Fraction)


@settings(max_examples=25, deadline=None)
@given(points_strategy(2, max_points=4), points_strategy(2, max_points=4))
def test_volume_monotone_under_inclusion(pts1, pts2):
    # Volume is normalized to the body's own dimension, so monotonicity
    # only makes sense between bodies of equal dimension.
    P = hull(pts1, 2)
    Q = hull(pts1 + pts2, 2)
    assert contains(Q, P)
    if P.dim() == Q.dim():
        assert volume(Q) >= volume(P)


# -- Minkowski sums ----------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(points_strategy(2, max_points=4), points_strategy(2, max_points=4))
def test_minkowski_commutes(pts1, pts2):
    P, Q = hull(pts1, 2), hull(pts2, 2)
    assert set(minkowski_sum(P, Q).vertices) == \
        set(minkowski_sum(Q, P).vertices)


@settings(max_examples=25, deadline=None)
@given(points_strategy(2, max_points=4))
def test_minkowski_origin_identity(pts):
    P = hull(pts, 2)
    O = hull([(F(0), F(0))], 2)
    assert set(minkowski_sum(P, O).vertices) == set(P.vertices)


@settings(max_examples=20, deadline=None)
@given(points_strategy(2, max_points=3), points_strategy(2, max_points=3))
def test_minkowski_contains_translates(pts1, pts2):
    P, Q = hull(pts1, 2), hull(pts2, 2)
    S = minkowski_sum(P, Q)
    for q in Q.vertices:
        shifted = affine_image(P, [[1, 0], [0, 1]], q)
        assert contains(S, shifted)


# -- determinant against cofactor expansion ---------------------------

def _cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@st.composite
def square_matrices(draw):
    """int or Fraction matrices of size 0..5; half of them made singular
    by a last row that combines rows 0 and n-2 (zero when n = 1)."""
    n = draw(st.integers(0, 5))
    entries = draw(st.sampled_from([st.integers(-4, 4), small_rationals]))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    singular = n > 0 and draw(st.booleans())
    if singular:
        a, b = draw(entries), draw(entries)
        m[-1] = ([a * x + b * y for x, y in zip(m[0], m[n - 2])] if n > 1
                 else [0])
    return m, singular


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_expansion(case):
    m, singular = case
    d = linalg.det(m)
    assert isinstance(d, Fraction) and d == _cofactor_det(m)
    if singular:
        assert d == 0


def test_bareiss_jordan_returns_positive_determinant():
    # [[1, 2], [3, 4]] x = (5, 6) has det -2 and x = (-4, 9/2); the second
    # matrix needs a row swap, det -1 and x = (7, 3).  jordan gives |det|
    # and |det| x; without it the determinant keeps its sign.
    for block, rhs, x in (([[1, 2], [3, 4]], [5, 6], [-4, F(9, 2)]),
                          ([[0, 1], [1, 0]], [3, 7], [7, 3])):
        m = [row + [b] for row, b in zip(block, rhs)]
        assert linalg.bareiss(m, 2, jordan=True) == abs(linalg.det(block))
        assert [row[2] for row in m] == [abs(linalg.det(block)) * v
                                         for v in x]
        assert linalg.bareiss([row[:] for row in block], 2) \
            == linalg.det(block) < 0


def test_det_empty_and_fan_smoothness():
    assert linalg.det([]) == 1
    with pytest.raises(ValueError, match="ray determinant 2 "):
        Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (2, 0)))


# -- integer polyhedral core against a Fraction reference --------------
#
# The reference is the Fraction core the integer one replaced: the frame
# from the RREF of the differences, the double description started from
# the RREF of the transposed rows and of [A | I], the pull-back through
# the RREF of [G | B], and triangulation leaves as Fraction determinants.

def _ref_int_row(v):
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v)


def _ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ref_frame(points):
    v0 = points[0]
    diffs = [_ref_sub(p, v0) for p in points]
    basis, pivots = linalg.rref(diffs[1:])
    return basis, [tuple(x[c] for c in pivots) for x in diffs]


def _ref_dd(rows):
    # Rows in lexicographic order, for the initial basis and after it.
    n = len(rows[0])
    order = sorted(range(len(rows)), key=rows.__getitem__)
    _, basis = linalg.rref([list(col) for col in zip(*(rows[i]
                                                       for i in order))])
    if len(basis) < n:
        return None
    basis = [order[k] for k in basis]
    inv, _ = linalg.rref([list(rows[i]) + [int(i == j) for j in basis]
                          for i in basis])
    full = sum(1 << i for i in basis)
    rays = [(tuple(map(int, linalg.primitive([row[n + j] for row in inv]))),
             full ^ (1 << i)) for j, i in enumerate(basis)]
    for i in order:
        if full >> i & 1:
            continue
        vals = [sum(x * y for x, y in zip(rows[i], r)) for r, _ in rays]
        masks = [m for _, m in rays]
        out = [(r, m | 1 << i if v == 0 else m)
               for (r, m), v in zip(rays, vals) if v >= 0]
        for p, vp in enumerate(vals):
            for q, vq in enumerate(vals):
                if vp <= 0 or vq >= 0:
                    continue
                z = masks[p] & masks[q]
                if (z.bit_count() < n - 2
                        or sum(m & z == z for m in masks) > 2):
                    continue
                r = [vp * y - vq * x for x, y in zip(rays[p][0], rays[q][0])]
                g = math.gcd(*r)
                out.append((tuple(x // g for x in r), z | 1 << i))
        rays = out
    return rays


def _ref_hrep(points, n):
    """(halfspaces, equalities, vertex flags, local facet rows) of the hull
    of sorted distinct points."""
    v0 = points[0]
    basis, coords = _ref_frame(points)
    normals = [linalg.primitive(x) for x in linalg.nullspace(basis, n)]
    eqs = [(x, dot(x, v0)) for x in normals]
    if not basis:
        return [], eqs, [True], None
    rows = [_ref_int_row((F(1),) + tuple(-x for x in y)) for y in coords]
    facets = _ref_dd(rows)
    on = [sum(1 << f for f, (_, m) in enumerate(facets) if m >> k & 1)
          for k in range(len(points))]
    flags = [not any(o != mine and o & mine == mine for o in on)
             for mine in on]
    d = len(basis)
    red, _ = linalg.rref([[dot(a, b) for b in basis] + list(a)
                          for a in basis])
    L = [row[d:] for row in red]
    halfs = set()
    for (c, *h), _ in facets:
        w = tuple(sum((hk * row[t] for hk, row in zip(h, L)), F(0))
                  for t in range(n))
        normal = linalg.primitive(w)
        k = next(t for t, x in enumerate(w) if x)
        halfs.add((normal, (c + dot(w, v0)) * normal[k] / w[k]))
    return sorted(halfs), eqs, flags, rows


def _ref_volume(vertices, halfs):
    basis, coords = _ref_frame(vertices)
    d = len(basis)
    if d == 0:
        return RadVal.rational(0)
    homog = [_ref_int_row(v + (F(1),)) for v in vertices]
    masks = [sum(1 << j for j, v in enumerate(homog)
                 if not sum(x * y for x, y in zip(row, v)))
             for row in (_ref_int_row(n + (-c,)) for n, c in halfs)]

    def pull(face, apexes):
        low = face & -face
        v0 = coords[low.bit_length() - 1]
        if len(apexes) == d:
            return abs(F(_cofactor_det([_ref_sub(a, v0) for a in apexes])))
        subs = {face & m for m in masks} - {0, face}
        return sum((pull(f, apexes + [v0]) for f in subs
                    if not f & low
                    and not any(f != g and f & g == f for g in subs)), F(0))

    gram = [[dot(a, b) for b in basis] for a in basis]
    return (RadVal.sqrt(_cofactor_det(gram))
            * (pull((1 << len(coords)) - 1, []) / math.factorial(d)))


@st.composite
def core_clouds(draw, full=None):
    """Clouds in R^n, n = 1..4, with denominators up to 6: full-dimensional
    draws, or points on a random rational affine k-plane, k < n; full=True
    or False draws only the first or only the second kind."""
    n = draw(st.integers(1, 4))
    k = n if full else draw(st.integers(0, n - (full is False)))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    vec = st.tuples(*[coord] * n)
    if k == n:
        return n, draw(st.lists(vec, min_size=1, max_size=7))
    x0 = draw(vec)
    dirs = draw(st.lists(vec, min_size=k, max_size=k))
    cs = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=7))
    return n, [tuple(x0[i] + sum(c * u[i] for c, u in zip(cc, dirs))
                     for i in range(n)) for cc in cs]


@settings(max_examples=120, deadline=None)
@given(core_clouds())
def test_integer_core_matches_fraction_reference(case):
    n, pts = case
    P = hull(pts, n)
    distinct = sorted({tuple(F(x) for x in p) for p in pts})
    halfs, eqs, flags, rows = _ref_hrep(distinct, n)
    assert list(P.vertices) == [p for p, keep in zip(distinct, flags) if keep]
    assert P.halfspaces() == (halfs, eqs)
    if rows is not None:
        # Same rays, masks and order from the integer start.
        assert polytope._dd(rows) == _ref_dd(rows)
    vol = _ref_volume(P.vertices, halfs)
    assert volume(P) == vol
    fresh = polytope.Polytope(n, P.vertices)
    assert fresh.halfspaces() == (halfs, eqs) and volume(fresh) == vol
    back = polytope._vertices_from_constraints(halfs, eqs, n)
    assert sorted(back) == list(P.vertices)


@pytest.mark.parametrize("full", [True, False])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_direct_polytope_matches_hull(full, data):
    # A body built directly from shuffled points, with repeats and with
    # points that are not vertices, is hull's body: same vertices, facets
    # and volume.
    n, pts = data.draw(core_clouds(full))
    mids = [tuple((x + y) / 2 for x, y in zip(p, r))
            for p, r in zip(pts, pts[1:])]
    pts = data.draw(st.permutations(pts + mids + pts[:2]))
    P = hull(pts, n)
    assume(full is (P.dim() == n))
    direct = polytope.Polytope(n, tuple(tuple(map(F, p)) for p in pts))
    assert direct == P and direct.vertices == P.vertices
    halfs, eqs = P.halfspaces()
    assert direct.halfspaces() == (halfs, eqs)
    assert volume(direct) == volume(P) == _ref_volume(P.vertices, halfs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=4))))
def test_kernel_matches_nullspace(case):
    n, rows = case
    pivots, basis = polytope._kernel(rows, n)
    _, ref_pivots = linalg.rref(rows)
    ref = linalg.nullspace(rows, n)
    assert pivots == ref_pivots and len(basis) == len(ref)
    free = [c for c in range(n) if c not in pivots]
    for v, u, f in zip(basis, ref, free):
        # The reference vector is 1 at f and 0 at the other free columns,
        # so equal spans make v that vector times v[f] > 0.
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert v[f] > 0 and tuple(F(x, v[f]) for x in v) == u


def _ref_vertices_from_constraints(halfs, eqs, dim):
    """H->V by the Fraction path the kernel replaced: solve the equalities
    as x = x0 + sum y_k u_k, then take the rays (t, y), t > 0, of
    {t >= 0, t (c - n.x0) - sum y_k n.u_k >= 0}."""
    eq_rows = [list(n) for n, _ in eqs]
    x0 = (linalg.solve(eq_rows, [c for _, c in eqs]) if eqs
          else (F(0),) * dim)
    if x0 is None:
        return []
    dirs = linalg.nullspace(eq_rows, dim)
    rows = [(1,) + (0,) * len(dirs)]
    for n, c in halfs:
        rows.append(_ref_int_row((c - dot(n, x0),)
                                 + tuple(-dot(n, u) for u in dirs)))
    rays = _ref_dd(rows)
    if rays is None:
        return []
    return [tuple(x0[j] + sum(F(yk, t) * u[j] for yk, u in zip(y, dirs))
                  for j in range(dim))
            for (t, *y), _ in rays if t > 0]


@st.composite
def constrained_boxes(draw):
    """The box |x_i| <= 3 in R^dim with random halfspaces and equalities
    through a point p of it, plus one of: nothing, an inconsistent
    equality, equalities pinning p, zero rows, or rescaled copies."""
    dim = draw(st.integers(1, 3))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    row = st.tuples(*[coef] * dim)
    p = draw(row)
    unit = [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]
    halfs = [(u, F(3)) for u in unit] + [(tuple(-x for x in u), F(3))
                                          for u in unit]
    halfs += [(n, dot(n, p) + slack) for n, slack in draw(
        st.lists(st.tuples(row, st.fractions(0, 2)), max_size=3))]
    eqs = [(n, dot(n, p)) for n in draw(st.lists(row, max_size=dim))]
    kind = draw(st.sampled_from(
        ["plain", "inconsistent", "point", "zero", "redundant"]))
    zero = (F(0),) * dim
    if kind == "inconsistent":
        n, c = draw(st.tuples(row, coef))
        eqs += [(n, c), (tuple(2 * x for x in n), 2 * c + 1)]
    elif kind == "point":
        eqs += [(u, p[i]) for i, u in enumerate(unit)]
    elif kind == "zero":
        eqs.append((zero, F(0)))
        halfs.append((zero, draw(st.fractions(0, 2))))
    elif kind == "redundant":
        k = draw(st.fractions(min_value=F(1, 3), max_value=3))
        eqs += [(tuple(-k * x for x in n), -k * c) for n, c in eqs[:1]]
        halfs.append((tuple(k * x for x in halfs[-1][0]), k * halfs[-1][1]))
    return dim, draw(st.permutations(halfs)), draw(st.permutations(eqs))


@settings(max_examples=200, deadline=None)
@given(constrained_boxes())
def test_vertices_from_constraints_matches_fraction_path(case):
    dim, halfs, eqs = case
    got = polytope._vertices_from_constraints(halfs, eqs, dim)
    assert sorted(got) == sorted(_ref_vertices_from_constraints(
        halfs, eqs, dim))
    assert len(set(got)) == len(got)
    for v in got:
        assert all(dot(n, v) == c for n, c in eqs)
        assert all(dot(n, v) <= c for n, c in halfs)


# -- integer lattice scan against the Fraction box scan ----------------

def _ref_lattice_points(P, m):
    """The Fraction box scan of m P: the hull of m times P's vertices, each
    point of its bounding box tested against its own halfspaces."""
    mP = hull([tuple(m * x for x in v) for v in P.vertices], P.ambient_dim)
    ranges = [range(math.floor(min(v[t] for v in mP.vertices)),
                    math.ceil(max(v[t] for v in mP.vertices)) + 1)
              for t in range(P.ambient_dim)]
    halfs, eqs = mP.halfspaces()
    out = []
    for pt in itertools.product(*ranges):
        v = tuple(F(x) for x in pt)
        if all(dot(n, v) == c for n, c in eqs) and \
           all(dot(n, v) <= c for n, c in halfs):
            out.append(pt)
    return sorted(out)


@st.composite
def lattice_bodies(draw):
    """(P, m), m = 1..4, P with fractional vertices in R^n, n = 1..3:
    full-dimensional, or on a rational affine k-plane, k < n."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    coord = st.fractions(min_value=-1, max_value=1, max_denominator=3)
    vec = st.tuples(*[coord] * n)
    if k == n:
        pts = draw(st.lists(vec, min_size=1, max_size=6))
    else:
        x0 = draw(vec)
        dirs = draw(st.lists(vec, min_size=k, max_size=k))
        c = st.fractions(min_value=-1, max_value=1, max_denominator=2)
        cs = draw(st.lists(st.tuples(*[c] * k), min_size=1, max_size=5))
        pts = [tuple(x0[i] + sum(a * u[i] for a, u in zip(cc, dirs))
                     for i in range(n)) for cc in cs]
    return hull(pts, n), draw(st.integers(1, 4))


@settings(max_examples=120, deadline=None)
@given(lattice_bodies())
def test_lattice_points_match_fraction_box_scan(case):
    P, m = case
    assert toric.lattice_points(P, m) == _ref_lattice_points(P, m)


# -- psef verdict against the cone-membership oracle ------------------

@functools.cache
def _model(s):
    return SurfaceModel(s)


def _lp_psef(model, D):
    cols = [[g.d] + [-x for x in g.m] for g in model.psef_generators()]
    return lp.in_cone(cols, [D.d] + [-x for x in D.m])


@st.composite
def signed_classes(draw):
    """Signed classes on Bl_s, s = 1..7: wild ones, and nonnegative
    generator combinations pushed by a small step along -H or -E_i, which
    often leaves the cone just outside a face."""
    s = draw(st.integers(1, 7))
    model = _model(s)
    if draw(st.booleans()):
        return model, PicClass(draw(rationals),
                               tuple(draw(rationals) for _ in range(s)))
    gens = model.psef_generators()
    D = PicClass(0, (0,) * s)
    for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
        D = D + g.scale(draw(st.fractions(0, 3, max_denominator=3)))
    push = draw(st.sampled_from([H(s)] + [E(s, i) for i in range(s)]))
    step = draw(st.fractions(0, F(1, 2), max_denominator=12))
    return model, D - push.scale(step)


@settings(deadline=None, max_examples=60)
@given(signed_classes())
def test_is_psef_matches_cone_membership(case):
    model, D = case
    assert surface.is_psef(model, D) == _lp_psef(model, D)


def test_is_psef_matches_cone_membership_s8():
    s = 8
    model = _model(s)
    face = E(s, 0) + (H(s) - E(s, 1) - E(s, 2)).scale(2)  # psef, volume 0
    tiny = H(s).scale(F(1, 100))
    rng = random.Random(8)
    wild = [PicClass(F(rng.randint(-4, 9), rng.randint(1, 3)),
                     tuple(F(rng.randint(-4, 6), rng.randint(1, 3))
                           for _ in range(s)))
            for _ in range(2)]
    expected = [True, True, False, False, False]
    for D, want in zip([face, face + tiny, face - tiny] + wild, expected):
        assert surface.is_psef(model, D) == _lp_psef(model, D) == want, D


# -- integer curve kernel against Fraction intersections --------------

def _frac_dot(a, b):
    """The intersection form summed in Fractions: the references below do
    not read surface.intersect, which runs on the classes' integer rows."""
    assert a.s == b.s
    return a.d * b.d - sum((x * y for x, y in zip(a.m, b.m)), F(0))


fractional = st.fractions(-7, 7, max_denominator=12)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 8).flatmap(lambda s: st.tuples(*[st.builds(
    PicClass, fractional, st.tuples(*[fractional] * s))] * 2)))
def test_intersect_matches_fraction_form(pair):
    a, b = pair
    assert surface.intersect(a, b) == _frac_dot(a, b) == surface.intersect(b, a)
    assert surface.intersect(a, a) == _frac_dot(a, a)
    with pytest.raises(ValueError, match="different s"):
        surface.intersect(a, PicClass(b.d, b.m + (F(1, 2),)))


def _ref_is_nef(model, D):
    return all(_frac_dot(D, C) >= 0 for C in model.psef_generators())


def _ref_decompose(model, D):
    """Support growth with Fraction intersections: (P, support) or None."""
    if model.mode == "user" and not surface.is_psef(model, D):
        return None
    support, P, coeffs = [], D, ()
    while True:
        new = [C for C in model.neg_curves if _frac_dot(P, C) < 0
               and all(C != S for S in support)]
        if not new:
            if not _ref_is_nef(model, P):
                return None
            return P, tuple((c, a) for c, a in zip(support, coeffs) if a != 0)
        support.extend(new)
        if len(support) > model.s:
            return None
        proj = _ref_project(support, D)
        if proj is None:
            return None
        [(P, coeffs)] = proj
        if any(a < 0 for a in coeffs):
            return None


def _ref_seshadri(model, L, w):
    best = None
    for C in model.psef_generators():
        den = sum((wi * mi for wi, mi in zip(w, C.m)), F(0))
        if den > 0:
            cand = _frac_dot(L, C) / den
            best = cand if best is None else min(best, cand)
    return RadVal.rational(max(best, F(0)))


# A complete list of Bl_2 rescaled: E_1 doubled and the line 1/2 (H-E_1-E_2).
_USER_BL2 = SurfaceModel(2, mode="user", neg_curves=(
    E(2, 0).scale(2), E(2, 1), PicClass(F(1, 2), (F(1, 2), F(1, 2)))))

thirds = st.fractions(-4, 6, max_denominator=3)


@st.composite
def kernel_cases(draw):
    """A model (built-in s = 1..8, or the rescaled user list), a class with
    denominators up to 3 (wild, or a generator combination pushed slightly
    along -H or -E_i) and positive weights with denominators up to 3."""
    s = draw(st.integers(0, 8))
    model = _USER_BL2 if s == 0 else _model(s)
    s = model.s
    if draw(st.booleans()):
        D = PicClass(draw(thirds), tuple(draw(thirds) for _ in range(s)))
    else:
        D = PicClass(0, (0,) * s)
        for g in draw(st.lists(st.sampled_from(model.psef_generators()),
                               min_size=1, max_size=4)):
            D = D + g.scale(draw(st.fractions(0, 3, max_denominator=3)))
        push = draw(st.sampled_from([H(s)] + [E(s, i) for i in range(s)]))
        D = D - push.scale(draw(st.sampled_from([0, 0, F(1, 3), F(1, 2)])))
    w = [draw(st.fractions(F(1, 3), 3, max_denominator=3)) for _ in range(s)]
    return model, D, w


@settings(deadline=None, max_examples=60)
@given(kernel_cases())
def test_integer_kernel_matches_fraction_reference(case):
    model, D, w = case
    assert surface.is_nef(model, D) == _ref_is_nef(model, D)
    want = _ref_decompose(model, D)
    # is_psef, vol and is_big read the support loop's integer state, and
    # check_zariski audits zariski's Fractions on integer rows.
    assert surface.is_psef(model, D) == (want is not None)
    v = surface.vol(model, D)
    assert v == (0 if want is None else _frac_dot(want[0], want[0]))
    assert surface.is_big(model, D) == (v > 0)
    if want is None:
        with pytest.raises(ValueError, match="pseudoeffective"):
            surface.zariski(model, D)
        return
    P, support = want
    Z = surface.zariski(model, D)
    assert (Z.positive, Z.negative_support) == (P, support)
    assert surface.check_zariski(model, D, Z) == []
    assert invariants.seshadri_eps(model, P, w) == _ref_seshadri(model, P, w)
    if _frac_dot(P, P) > 0:
        bminus = [c for c, _ in support]
        bplus = bminus + [C for C in model.neg_curves
                          if _frac_dot(P, C) == 0
                          and all(C != b for b in bminus)]
        assert surface.base_loci(model, D) == {"bminus": bminus,
                                               "bplus": bplus}
    else:
        with pytest.raises(ValueError, match="big classes only"):
            surface.base_loci(model, D)



# -- packed curve scans against the row loop ---------------------------

_LANE_HALF = 2 ** 63
_SCALES = (1, 2, F(1, 2), F(2, 3))


@functools.cache
def _user_rescaled(s, k):
    """The built-in curves of Bl_s as a user list, curve i scaled by
    _SCALES[(i + k) % 4]."""
    return SurfaceModel(s, mode="user", neg_curves=tuple(
        C.scale(_SCALES[(i + k) % 4])
        for i, C in enumerate(_model(s).neg_curves)))


def _check_scan(model, x):
    """The packed scan of x agrees with the row loop in every reading;
    returns whether it was packed."""
    rows = model._rows
    want = surface._row_dots(rows, x)
    assert want == [surface._dot(r, x) for r in rows]
    scan = surface._dots(rows, x)
    packed = sum(abs(v) * m for v, m in zip(x, rows.maxes)) < _LANE_HALF
    assert isinstance(scan, int) == packed
    assert rows.values(scan) == want
    assert rows.negative(scan) == [k for k in range(len(model.neg_curves))
                                   if want[k] < 0]
    assert rows.nef(scan) == (min(want) >= 0)
    return packed


@st.composite
def scan_cases(draw):
    """A built-in model, s = 1..8, or its curves rescaled by 1, 2, 1/2 and
    2/3 as a user list, and an integer row x: small entries, or one entry
    set so that the guard sum_j |x_j| maxes_j lands within two maxes of
    2^63, on either side."""
    s = draw(st.integers(1, 8))
    model = _model(s) if draw(st.booleans()) else \
        _user_rescaled(s, draw(st.integers(0, 3)))
    maxes = model._rows.maxes
    x = [draw(st.integers(-60, 60)) for _ in range(s + 1)]
    if draw(st.booleans()):
        j = draw(st.integers(0, s))
        rest = sum(abs(v) * m for i, (v, m) in enumerate(zip(x, maxes))
                   if i != j)
        target = _LANE_HALF + draw(st.integers(-2 * maxes[j], 2 * maxes[j]))
        x[j] = draw(st.sampled_from([1, -1])) * ((target - rest) // maxes[j])
    return model, x


@settings(deadline=None, max_examples=150)
@given(scan_cases())
def test_packed_scan_matches_row_loop(case):
    _check_scan(*case)


@pytest.mark.parametrize("s", range(1, 9))
def test_packed_scan_at_the_guard(s):
    # x = +-c e_j with c the largest multiple count under the guard is
    # packed, and c + 1 is the row loop.  On Bl_s, s <= 6, every |m_i| <= 1,
    # so for j >= 1 that c is 2^63 - 1, the dot with E_j: a full lane.
    for model in (_model(s), _user_rescaled(s, 0)):
        maxes = model._rows.maxes
        for j in range(s + 1):
            c = (_LANE_HALF - 1) // maxes[j]
            for sign in (1, -1):
                for k, packed in ((c, True), (c + 1, False)):
                    x = [0] * (s + 1)
                    x[j] = sign * k
                    assert _check_scan(model, x) == packed
            if s <= 6 and j and model is _model(s):
                x = [0] * (s + 1)
                x[j] = c
                dots = surface._row_dots(model._rows, x)
                assert max(map(abs, dots)) == c == _LANE_HALF - 1
    assert _check_scan(_model(s), [0] * (s + 1))
    # A curve entry past a lane packs its column as 0, and only rows with
    # a 0 there pass the guard.
    big = SurfaceModel(s, mode="user", neg_curves=(
        E(s, 0).scale(2 ** 70),) + _model(s).neg_curves[1:])
    assert _check_scan(big, [5, 0] + [-3] * (s - 1))
    assert not _check_scan(big, [0, 1] + [0] * (s - 1))


@pytest.mark.parametrize("s", [2, 5, 8])
def test_zariski_past_the_lanes_matches_fraction_reference(s, monkeypatch):
    # ~30-digit entries fail the guard: the support loop, check_zariski,
    # is_nef and base_loci run on the row loop, exactly.
    loops = []
    real = surface._row_dots
    monkeypatch.setattr(surface, "_row_dots",
                        lambda rows, x: loops.append(x) or real(rows, x))
    rng = random.Random(s)
    model = _model(s)
    gens = model.psef_generators()
    D = PicClass(0, (0,) * s)
    for g in rng.sample(gens, min(4, len(gens))) + [H(s)]:
        D = D + g.scale(F(rng.randrange(10 ** 29, 10 ** 30),
                          rng.randrange(1, 4)))
    P, support = _ref_decompose(model, D)
    Z = surface.zariski(model, D)
    assert (Z.positive, Z.negative_support) == (P, support)
    assert surface.check_zariski(model, D, Z) == []
    assert surface.vol(model, D) == _frac_dot(P, P) > 0
    assert surface.is_nef(model, P)
    assert surface.base_loci(model, D)["bminus"] == [c for c, _ in support]
    assert loops
    # Pushed out of the cone along -H it is rejected by the same loop.
    out = D - H(s).scale(10 ** 31)
    assert _ref_decompose(model, out) is None
    assert not surface.is_psef(model, out)


# -- fraction-free support solver and chamber walk --------------------

def _ref_project(support, *classes):
    """(X - sum a_c c, a) per class X with Gram(support) a = (X.c)_c, by
    Fraction intersections and linalg.rref; None unless Gram is negative
    definite, read off its leading minors (Sylvester's criterion)."""
    k = len(support)
    gram = [[_frac_dot(a, b) for b in support] for a in support]
    if any(linalg.det([row[:j] for row in gram[:j]]) * (-1) ** j <= 0
           for j in range(1, k + 1)):
        return None
    red, _ = linalg.rref([row + [_frac_dot(X, a) for X in classes]
                          for row, a in zip(gram, support)])
    out = []
    for j, X in enumerate(classes):
        a = tuple(row[k + j] for row in red)
        P = X
        for x, c in zip(a, support):
            P = P - c.scale(x)
        out.append((P, a))
    return out


@st.composite
def projection_cases(draw):
    """Supports of 1..s+2 curves from a built-in list (s = 1..8) or the
    rescaled user list, repeats allowed and each curve possibly rescaled
    by 2, 1/2 or 2/3 (so singular Gram matrices occur), and one or two
    classes with denominators up to 3."""
    s = draw(st.integers(0, 8))
    model = _USER_BL2 if s == 0 else _model(s)
    s = model.s
    support = [C.scale(draw(st.sampled_from([1, 1, 2, F(1, 2), F(2, 3)])))
               for C in draw(st.lists(st.sampled_from(model.neg_curves),
                                      min_size=1, max_size=s + 2))]
    classes = [PicClass(draw(thirds), tuple(draw(thirds) for _ in range(s)))
               for _ in range(draw(st.integers(1, 2)))]
    return support, classes


def _read_back(support, *classes):
    """surface._solve on the rows of the support and the classes, read
    back with Fractions as (X - sum a_c c, a) per class X: with rows
    r_c = q_c c and r_X = q_X X, a_c = q_c n_c / (det q_X) and the positive
    part is p / (det q_X)."""
    rows = [c._row for c in support]
    xs = [X._row for X in classes]
    sol = surface._solve([r for r, _ in rows], *(r for r, _ in xs))
    if sol is None:
        return None
    det, parts = sol
    out = []
    for (p, n), (_, qX) in zip(parts, xs):
        den = det * qX
        out.append((PicClass(F(p[0], den), tuple(F(x, den) for x in p[1:])),
                    tuple(F(q * x, den) for (_, q), x in zip(rows, n))))
    return out


@settings(deadline=None, max_examples=80)
@given(projection_cases())
def test_project_matches_fraction_reference(case):
    support, classes = case
    assert _read_back(support, *classes) == _ref_project(support, *classes)


def test_project_singular_gram_gives_none():
    s = 8
    L12 = H(s) - E(s, 0) - E(s, 1)
    # A repeated curve, and s + 2 curves in the rank s + 1 lattice.
    for support in ([E(s, 0), E(s, 0).scale(2)],
                    _model(s).neg_curves[:s + 2]):
        assert _ref_project(support, L12) is None
        assert _read_back(support, L12) is None
    assert _read_back([E(s, 0), L12.scale(F(1, 3))], H(s)) == \
        _ref_project([E(s, 0), L12.scale(F(1, 3))], H(s))


def _ref_first_root_after(A, B, C2, t):
    """Smallest root > t of A + B x + C2 x^2 by the quadratic formula in
    RadVal arithmetic, or None."""
    if C2 == 0:
        if B == 0:
            return None
        root = Fraction(-A, 1) / B
        return RadVal.rational(root) if root > t else None
    disc = B * B - 4 * A * C2
    if disc < 0:
        return None
    sq = RadVal.sqrt(disc)
    cands = [
        (RadVal.rational(-B) - sq) / (2 * C2),
        (RadVal.rational(-B) + sq) / (2 * C2),
    ]
    return min((c for c in cands if c > t), default=None)


coefficients = st.one_of(st.integers(-30, 30),
                         st.fractions(-10, 10, max_denominator=9))


@settings(deadline=None, max_examples=300)
@given(coefficients, coefficients, coefficients,
       st.fractions(-6, 6, max_denominator=7))
@example(1, 0, -4, F(0))          # C2 < 0, B = 0, a square discriminant
@example(-2, 0, 1, F(0))          # the root sqrt(2)
@example(3, -2, 0, F(0))          # C2 = 0: the linear root 3/2
@example(1, 0, 0, F(0))           # C2 = B = 0: no root
@example(1, 0, 1, F(0))           # a negative discriminant
@example(1, -2, 1, F(0))          # a zero discriminant: the double root 1
@example(1, -2, 1, F(1))          # ... and t at it
@example(2, -3, 1, F(1))          # t at the smaller of the roots 1, 2
@example(2, -3, 1, F(2))          # t at the larger
@example(F(4, 3), F(-10, 3), 2, F(0))  # rational terms, discriminant 4/9
@example(F(1, 2), F(-3, 5), F(-7, 4), F(-1, 3))
def test_first_root_after_matches_surd_formula(A, B, C2, t):
    got = invariants._first_root_after(A, B, C2, t)
    want = _ref_first_root_after(A, B, C2, t)
    if want is None:
        assert got is None
    else:
        assert got == want and got.to_json() == want.to_json()


def _ref_nakayama(model, L, points):
    """The chamber walk on Fraction crossings and intersections; at the
    nearest wall it rescans the same chamber to find the walls reached."""
    want = _ref_decompose(model, L)
    if want is None or _frac_dot(want[0], want[0]) <= 0:
        return "not big"
    T = PicClass(0, (0,) * model.s)
    for i in range(model.s) if points is None else points:
        T = T + E(model.s, i)
    t, supp = F(0), [c for c, _ in want[1]]
    while True:
        proj = _ref_project(supp, L, T.scale(-1))
        if proj is None:
            return "singular"
        (P0, a0), (P1, a1) = proj
        t_next, add_now, drop_now = None, [], []
        crossings = [(-a0[k] / a1[k], k, None)
                     for k in range(len(supp)) if a1[k] < 0]
        crossings += [(-_frac_dot(P0, C) / _frac_dot(P1, C),
                       None, C) for C in model.neg_curves
                      if _frac_dot(P1, C) < 0]
        for cross, k, C in crossings:
            if cross <= t:
                (drop_now.append(k) if C is None else add_now.append(C))
            elif t_next is None or cross < t_next:
                t_next = cross
        if add_now or drop_now:
            supp = [C for k, C in enumerate(supp) if k not in drop_now]
            supp += add_now
            continue
        root = _ref_first_root_after(
            _frac_dot(P0, P0), 2 * _frac_dot(P0, P1),
            _frac_dot(P1, P1), t)
        if root is not None and (t_next is None or root <= t_next):
            return root
        if t_next is None:
            return "no root"
        t = t_next


# An incomplete Bl_3 list, rescaled: without the lines through p_3 the
# walk of H along E_1 + E_2 + E_3 ends at the surd root 2 - sqrt(2).
_USER_BL3 = SurfaceModel(3, mode="user", neg_curves=(
    E(3, 0).scale(2), E(3, 1), E(3, 2),
    (H(3) - E(3, 0) - E(3, 1)).scale(F(1, 2))))


@st.composite
def walk_cases(draw):
    """d H - sum m_i E_i with d in [1, 6] and m_i in [-1, 2], denominators
    up to 3, on Bl_s, s = 5..8, or on the rescaled user list, walked along
    every E_i or along a subset."""
    s = draw(st.sampled_from([0, 5, 6, 7, 8]))
    model = draw(st.sampled_from([_USER_BL2, _USER_BL3])) if s == 0 \
        else _model(s)
    s = model.s
    D = PicClass(draw(st.fractions(1, 6, max_denominator=3)),
                 tuple(draw(st.fractions(-1, 2, max_denominator=3))
                       for _ in range(s)))
    points = draw(st.one_of(st.none(), st.lists(st.integers(0, s - 1),
                                                min_size=1, max_size=s,
                                                unique=True)))
    return model, D, points


@settings(deadline=None, max_examples=60)
@given(walk_cases())
def test_nakayama_matches_fraction_walk(case):
    model, D, points = case
    want = _ref_nakayama(model, D, points)
    if want == "not big":
        with pytest.raises(ValueError, match="big classes"):
            invariants.nakayama_mu(model, D, points)
    elif want == "no root":
        with pytest.raises(ValueError, match="no volume root"):
            invariants.nakayama_mu(model, D, points)
    elif want == "singular":
        with pytest.raises(RuntimeError, match="singular support"):
            invariants.nakayama_mu(model, D, points)
    else:
        mu = invariants.nakayama_mu(model, D, points)
        assert mu == want and mu.to_json() == want.to_json()


# -- the nef-boundary criterion against its Fraction form ---------------

def _ref_nef_boundary_check(d, m):
    d = Fraction(d)
    ms = [Fraction(x) for x in m]
    if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
        raise ValueError("multiplicities must be sorted descending")
    while len(ms) < 8:
        ms.append(Fraction(0))
    s = len(ms)
    c1 = d >= ms[1] + ms[2]
    c2 = 2 * d >= sum(ms[1:6])
    sum_sq = sum(x * x for x in ms)
    rhs = 2 * ms[1] + sum(ms[2:8])
    c3 = rhs < 0 or 9 * sum_sq > rhs * rhs
    c4 = all(
        d * d - Fraction(t + 3, t + 2) * sum(x * x for x in ms[1:t + 1]) > 0
        for t in range(2, s)
    )
    L2 = d * d - sum_sq
    verdict = c1 and c2 and c3 and c4
    out = {
        "conditions": [bool(c1), bool(c2), bool(c3), bool(c4)],
        "nef": bool(verdict),
        "self_intersection": L2,
        "on_boundary": L2 == 0,
    }
    if verdict and L2 != 0:
        out["note"] = "criterion passes but not on the L^2 = 0 boundary"
    return out


@settings(deadline=None, max_examples=300)
@given(st.fractions(-2, 12, max_denominator=6),
       st.lists(st.fractions(-2, 5, max_denominator=6), min_size=1,
                max_size=11),
       st.booleans())
@example(3, [1] * 9, True)        # -K on Bl_9: on the boundary
@example(F(17, 4), [F(3, 2)] * 8, True)
@example(5, [1, 2], False)        # unsorted
def test_nef_boundary_check_matches_fraction_form(d, m, ordered):
    if ordered:
        m = sorted(m, reverse=True)
    if any(a < b for a, b in zip(m, m[1:])):
        with pytest.raises(ValueError, match="sorted descending"):
            invariants.nef_boundary_check(d, m)
        return
    got = invariants.nef_boundary_check(d, m)
    want = _ref_nef_boundary_check(d, m)
    assert got == want
    assert type(got["self_intersection"]) is Fraction


# -- integer producers against the hull of the same Fraction points ----

def _same_body(P, ref):
    assert P == ref and P.vertices == ref.vertices
    assert P.halfspaces() == ref.halfspaces()
    assert volume(P) == volume(ref)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_affine_image_matches_fraction_hull(data):
    n, pts = data.draw(core_clouds())
    k = data.draw(st.integers(1, 4))
    M = data.draw(st.lists(st.tuples(*[rationals] * n), min_size=k,
                           max_size=k))
    t = data.draw(st.none() | st.tuples(*[rationals] * k))
    P = hull(pts, n)
    ref = [tuple(dot(row, v) + (t[i] if t else 0)
                 for i, row in enumerate(M)) for v in P.vertices]
    _same_body(affine_image(P, M, t), hull(ref, k))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(
    st.tuples(*[rationals] * n), st.integers(1, 6)), min_size=1,
    max_size=7)))
def test_cone_base_matches_fraction_hull(graded):
    n = len(graded[0][0])
    ref = [tuple(x / level for x in p) for p, level in graded]
    _same_body(polytope.cone_base(graded), hull(ref, n))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minkowski_sum_matches_fraction_hull(data):
    n, pts = data.draw(core_clouds())
    qts = data.draw(st.lists(st.tuples(*[rationals] * n), min_size=1,
                             max_size=5))
    P, Q = hull(pts, n), hull(qts, n)
    ref = [tuple(x + y for x, y in zip(p, q))
           for p in P.vertices for q in Q.vertices]
    _same_body(minkowski_sum(P, Q), hull(ref, n))


@pytest.mark.parametrize("name", toric.fixture_names())
def test_divisor_polytope_matches_fraction_hull(name):
    f = toric.load_fixture(name)
    fan = f["fan"]
    for D in f["divisors"].values():
        for k in (1, 3, F(1, 2), F(-2, 3)):
            Dk = D.scale(k)
            halfs = [(tuple(-F(x) for x in ray), a)
                     for ray, a in zip(fan.rays, Dk.coeffs)]
            ref = polytope._vertices_from_constraints(halfs, [], fan.dim)
            _same_body(toric.divisor_polytope(fan, Dk), hull(ref, fan.dim))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_intersect_subspace_matches_fraction_substitution(data):
    # The old route: each Fraction halfspace of P with x = sum_j y_j b_j
    # substituted, then the vertices of the result and their hull.
    n, r = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pts = data.draw(st.lists(st.tuples(*[coord] * (n * r)), min_size=1,
                             max_size=8))
    w = data.draw(st.lists(st.fractions(min_value=F(1, 3), max_value=3,
                                        max_denominator=3),
                           min_size=r, max_size=r))
    P, S = hull(pts, n * r), polytope.SliceSpec(n, r, tuple(w))
    basis = S.basis()

    def sub(cons):
        return [(tuple(dot(a, b) for b in basis), c) for a, c in cons]

    halfs, eqs = P.halfspaces()
    ref = polytope._vertices_from_constraints(sub(halfs), sub(eqs), n)
    sl, scale = polytope.intersect_subspace(P, S)
    _same_body(sl, hull(ref, n))
    assert scale == S.gram_scale()
