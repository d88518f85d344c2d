import itertools
from fractions import Fraction

import pytest

from okounkov import linalg, polytope, surface, toric
from okounkov.numbers import RadVal
from okounkov.polytope import (
    Polytope,
    SliceSpec,
    affine_image,
    cone_base,
    contains,
    hull,
    intersect_subspace,
    inverted_slice_simplex,
    minkowski_sum,
    volume,
)
from reference import dot

F = Fraction


def verts(P):
    return set(P.vertices)


def test_hull_removes_interior_point():
    P = hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))], 2)
    assert verts(P) == {(0, 0), (1, 0), (0, 1)}


def test_hull_single_point():
    P = hull([(0, 0)], 2)
    assert verts(P) == {(0, 0)}
    assert P.dim() == 0


def test_hull_degree_three_curve_simplex():
    P = hull([(0, 0), (3, 0), (0, 3)], 2)
    assert verts(P) == {(0, 0), (3, 0), (0, 3)}


def test_hull_dimension_mismatch():
    with pytest.raises(ValueError):
        hull([(0, 0, 0)], 2)


def test_hull_refuses_float_coordinates():
    # 0.1 is a binary fraction, not 1/10: the body would silently differ.
    with pytest.raises(ValueError, match="float coordinate 0.1"):
        Polytope(1, [(0.1,), (0,)])
    assert Polytope(1, [(F(1, 10),), (0,)]).vertices == ((0,), (F(1, 10),))


def test_hull_refuses_bool_coordinates():
    # A bool is no coordinate: True is not read as 1.
    with pytest.raises(ValueError, match="bool coordinate True"):
        Polytope(1, [(True,), (0,)])


def test_cone_maps_rays_back_from_the_equalities_basis():
    # {x >= 0, y >= 0, z = x + y}: the rays (1, 0, 1) and (0, 1, 1), tight
    # at y >= 0 and at x >= 0; without the equality the cone is not pointed.
    le = [(1, 0, 0), (0, 1, 0)]
    assert sorted(polytope._cone(le, [(1, 1, -1)], 3)) == [
        ((0, 1, 1), 0b01), ((1, 0, 1), 0b10)]
    assert polytope._cone(le, [], 3) is None
    # On the basis (-1, 2, 0), (-1, 0, 2) of 2x + y + z = 0 the ray (1, 1)
    # is (-2, 2, 2): it maps back primitive.
    assert sorted(polytope._cone([(-1, 0, 0), (0, 1, -1)], [(2, 1, 1)],
                                 3)) == [((-1, 1, 1), 0b10), ((0, 1, -1), 0b01)]


def test_cone_base_rescaling():
    P = cone_base([((1, 0), 1), ((0, 2), 2)])
    assert verts(P) == {(1, 0), (0, 1)}
    Q = cone_base([((2, 2), 2)])
    assert verts(Q) == {(1, 1)}
    with pytest.raises(ValueError):
        cone_base([])


def test_affine_image_identity_and_flag_map():
    P = hull([(0, 0), (1, 0), (0, 1)], 2)
    same = affine_image(P, [[1, 0], [0, 1]])
    assert verts(same) == verts(P)
    mapped = affine_image(P, [[1, 1], [1, 0]])
    assert verts(mapped) == {(0, 0), (1, 1), (1, 0)}
    shifted = affine_image(P, [[1, 0], [0, 1]], (2, 0))
    assert verts(shifted) == {(2, 0), (3, 0), (2, 1)}


def test_minkowski_sum():
    P = hull([(0, 0), (1, 0), (0, 1)], 2)
    origin = hull([(0, 0)], 2)
    assert verts(minkowski_sum(P, origin)) == verts(P)
    doubled = minkowski_sum(P, P)
    assert verts(doubled) == {(0, 0), (2, 0), (0, 2)}
    assert verts(minkowski_sum(P, doubled)) == verts(minkowski_sum(doubled, P))


def test_contains():
    P = hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    assert contains(P, P)
    assert contains(P, (F(1, 2), F(1, 2)))
    assert not contains(P, (2, 0))
    tri = hull([(0, 0), (1, 0), (1, 1)], 2)
    assert contains(tri, inverted_slice_simplex([1], 2))
    eps = F(1, 100)
    assert not contains(tri, inverted_slice_simplex([1 + eps], 2))


def test_volume_basics():
    assert volume(hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)) == RadVal.rational(1)
    assert volume(hull([(0, 0), (1, 0), (1, 1)], 2)) == RadVal.rational(F(1, 2))
    assert volume(hull([(0, 0), (1, 1)], 2)) == RadVal.sqrt(2)
    assert volume(hull([(5, 5)], 2)) == RadVal.rational(0)
    # Built directly, with the midpoint of a base edge listed first: the
    # constructor drops the midpoint, so the body is hull's.
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
    direct = Polytope(3, tuple(tuple(map(F, p))
                               for p in [(1, 0, 0)] + pyramid))
    assert direct == hull(pyramid, 3) and len(direct.vertices) == 5
    assert volume(direct) == volume(hull(pyramid, 3)) == RadVal.rational(F(4, 3))
    assert direct.dim() == 3


def test_volume_translation_and_scaling():
    P = hull([(0, 0), (2, 0), (0, 1), (1, 1)], 2)
    v = volume(P)
    assert volume(affine_image(P, [[1, 0], [0, 1]], (7, -3))) == v
    scaled = affine_image(P, [[3, 0], [0, 3]])
    assert volume(scaled) == v * 9


def test_volume_3d_simplex():
    S = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert volume(S) == RadVal.rational(F(1, 6))
    # 2-dimensional face volume inside 3-space uses the induced metric
    T = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert volume(T).squared() == F(3, 4)
    # Non-simple bodies: octahedron, 4-D cross-polytope, square pyramid.
    for d, expected in [(3, F(4, 3)), (4, F(2, 3))]:
        cross = [tuple(s * (i == k) for k in range(d))
                 for i in range(d) for s in (1, -1)]
        assert volume(hull(cross, d)) == RadVal.rational(expected)
    pyramid = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)], 3)
    assert volume(pyramid) == RadVal.rational(F(4, 3))
    # The unit 3-cube mapped into R^5 by M has volume sqrt(det M^T M).
    M = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [2, 0, -1], [0, 3, 1]]
    image = affine_image(hull(itertools.product((0, 1), repeat=3), 3), M)
    MtM = [[sum(row[i] * row[j] for row in M) for j in range(3)]
           for i in range(3)]
    assert image.dim() == 3
    assert volume(image) == RadVal.sqrt(linalg.det(MtM)) == RadVal.sqrt(145)


def test_inverted_slice_simplex():
    P = inverted_slice_simplex([1], 2)
    assert verts(P) == {(0, 0), (1, 0), (1, 1)}
    Z = inverted_slice_simplex([0, 0], 2)
    assert verts(Z) == {(0, 0, 0, 0)}
    Q = inverted_slice_simplex([1, 2], 2)
    assert verts(Q) == {(0, 0, 0, 0), (1, 0, 2, 0), (1, 1, 2, 2)}
    with pytest.raises(ValueError):
        inverted_slice_simplex([-1], 2)


def test_intersect_subspace_full_space():
    P = hull([(0, 0), (1, 0), (1, 1)], 2)
    S = SliceSpec(2, 1, (F(1),))
    Q, scale = intersect_subspace(P, S)
    assert scale == RadVal.rational(1)
    assert verts(Q) == verts(P)


def test_intersect_subspace_gram_scale():
    S = SliceSpec(2, 2, (F(1), F(1)))
    assert S.gram_scale() == RadVal.rational(2)
    S2 = SliceSpec(2, 2, (F(2), F(1)))
    assert S2.gram_scale() == RadVal.rational(5)


def test_intersect_subspace_diagonal_simplex():
    body = inverted_slice_simplex([1, 1], 2)
    S = SliceSpec(2, 2, (F(1), F(1)))
    Q, scale = intersect_subspace(body, S)
    assert verts(Q) == {(0, 0), (1, 0), (1, 1)}
    assert volume(Q) == RadVal.rational(F(1, 2))
    assert volume(Q) * scale == RadVal.rational(1)


def test_intersect_subspace_empty():
    P = hull([(2, 0, 2, 0), (3, 0, 3, 0)], 4)  # off-diagonal? on diagonal
    S = SliceSpec(2, 2, (F(1), F(1)))
    Q, _ = intersect_subspace(P, S)
    assert verts(Q) == {(2, 0), (3, 0)}
    # genuinely empty intersection
    P2 = hull([(5, 0, 0, 0)], 4)
    Q2, _ = intersect_subspace(P2, S)
    assert Q2.is_empty


def test_empty_bodies_take_the_general_path():
    # The empty record, 0 <= -1 with no vertices, answers every operation.
    empty = Polytope(3, ())
    assert empty == hull([], 3) and empty.dim() == -1
    assert empty.halfspaces() == ([((F(0),) * 3, F(-1))], [])
    assert volume(empty) == RadVal.rational(0)
    assert not contains(empty, (0, 0, 0))
    assert contains(hull([(0, 0, 0)], 3), empty)
    image = affine_image(empty, [[1, 0, 0], [0, 1, 1]], (1, 2))
    assert image == Polytope(2, ()) and image.is_empty
    with pytest.raises(ValueError, match="shape mismatch"):
        affine_image(empty, [[1, 0], [0, 1]])
    cube = hull(itertools.product((0, 1), repeat=3), 3)
    assert minkowski_sum(empty, cube).is_empty
    assert minkowski_sum(cube, empty) == empty
    for r, body in ((1, Polytope(2, ())), (2, Polytope(4, ()))):
        S = SliceSpec(2, r, (F(1),) * r)
        cut, scale = intersect_subspace(body, S)
        assert cut == Polytope(2, ()) and scale == S.gram_scale()


def test_hrep_vrep_round_trip():
    bodies = [
        hull([(0, 0), (1, 0), (0, 1)], 2),
        hull([(0, 0), (1, 0), (1, 1)], 2),
        hull([(0, 0), (1, 1)], 2),
        inverted_slice_simplex([1, 2], 2),
        hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3),
        hull(itertools.product((0, 1), repeat=4), 4),
        hull([(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0),
              (0, 0, 0, 1), (1, 1, 1, 1)], 4),
        # a square and a segment in R^3
        hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3),
        hull([(0, 0, 0), (1, 2, 3)], 3),
        inverted_slice_simplex([1, 2, 3], 2),
    ]
    for P in bodies:
        back = polytope._vertices_from_constraints(*P.halfspaces(),
                                                   P.ambient_dim)
        assert sorted(back) == list(P.vertices)


def test_volume_squared_rational():
    for P in [hull([(0, 0), (1, 1)], 2),
              hull([(0, 0, 0), (1, 1, 0), (1, 1, 1)], 3),
              inverted_slice_simplex([1, 1], 2)]:
        v = volume(P)
        sq = v.squared()
        assert sq >= 0


def test_polytope_json_round_trip():
    P = hull([(F(1, 2), F(-3, 4)), (1, 0), (0, 1)], 2)
    assert verts(Polytope.from_json(P.to_json())) == verts(P)


def test_five_cube():
    P = hull(itertools.product((0, 1), repeat=5), 5)
    halfs, eqs = P.halfspaces()
    assert len(P.vertices) == 32 and len(halfs) == 10 and not eqs
    # No face above an edge is a simplex, so the pull runs down to edges.
    assert volume(P) == RadVal.rational(1)


def test_volume_runs_no_double_description(monkeypatch):
    # volume reads the facets hull cached; it runs no _dd of its own.
    moment = [tuple(5 * t ** e for e in range(1, 5))
              for t in (-5, -3, -2, -1, 0, 1, 2, 4, 5)]
    centroid = tuple(sum(p[j] for p in moment[:5]) // 5 for j in range(4))
    bodies = [hull(itertools.product((0, 1), repeat=4), 4),
              hull(moment + [centroid], 4)]
    assert len(bodies[1].vertices) == 9
    calls = []
    real_dd = polytope._dd
    monkeypatch.setattr(polytope, "_dd",
                        lambda rows: calls.append(rows) or real_dd(rows))
    assert [volume(P) for P in bodies] == [RadVal.rational(1),
                                           RadVal.rational(164820000)]
    assert calls == []


def test_volume_reuses_hull_record(monkeypatch):
    # After hull, volume reads the coordinates and facet masks hull kept.  The
    # body is simplicial, so each facet that misses the first vertex is a
    # simplex leaf: one determinant each.
    moment = [tuple(5 * t ** e for e in range(1, 5))
              for t in (-5, -3, -2, -1, 0, 1, 2, 4, 5)]
    centroid = tuple(sum(p[j] for p in moment[:5]) // 5 for j in range(4))
    P = hull(moment + [centroid], 4)
    halfs, _ = P.halfspaces()
    on = [[dot(n, v) == c for v in P.vertices] for n, c in halfs]
    assert all(sum(row) == 4 for row in on)
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(
            name) or real(*args, **kw))

    for owner, name in ((polytope, "_kernel"), (Polytope, "halfspaces"),
                        (linalg, "bareiss")):
        count(owner, name)
    assert volume(P) == RadVal.rational(164820000)
    assert calls == ["bareiss"] * sum(not row[0] for row in on)
    # Built directly, the body makes its record once for all three calls.
    calls.clear()
    count(polytope, "_hrep_from_vertices")
    fresh = Polytope(4, P.vertices)
    assert (fresh.halfspaces(), fresh.dim(), volume(fresh)) == (
        P.halfspaces(), 4, volume(P))
    assert calls.count("_hrep_from_vertices") == 1


def test_kernel_of_full_rank_rows_runs_no_elimination_pass(monkeypatch):
    # Rank n leaves no free column: _independent's pivots are the answer.
    calls = []
    real = linalg.bareiss
    monkeypatch.setattr(linalg, "bareiss",
                        lambda *args, **kw: calls.append(args) or real(*args,
                                                                       **kw))
    rows = [[1, 2, 0], [0, 1, 3], [2, 0, 1], [1, 1, 1]]
    assert polytope._kernel(rows, 3) == ([0, 1, 2], [])
    assert calls == []
    assert polytope._kernel(rows[:2], 3) == ([0, 1], [[6, -3, 1]])
    assert len(calls) == 1


def test_program_runs_no_fraction_elimination(monkeypatch):
    # One integer elimination kernel: the frame, the double-description
    # start, H->V with or without equalities, the volume leaves and the
    # Zariski support solves never reach the Fraction RREF routines.
    def fail(*args):
        raise AssertionError("Fraction elimination reached")

    for name in ("rref", "solve", "nullspace"):
        monkeypatch.setattr(linalg, name, fail)
    moment = [tuple(5 * t ** e for e in range(1, 5))
              for t in (-5, -3, -2, -1, 0, 1, 2, 4, 5)]
    P = hull(moment, 4)
    halfs, eqs = P.halfspaces()
    assert len(halfs) == 27 and not eqs
    assert volume(P) == volume(Polytope(4, P.vertices))
    fx = toric.load_fixture("bl1p2")
    square = toric.divisor_polytope(fx["fan"], fx["divisors"]["O1"])
    assert len(square.vertices) == 3
    # A 3-cube in the hyperplane x4 = 0 of R^4: its slice is x4 = y2 = 0,
    # 0 <= y1 <= 1.
    flat = hull([p + (0,) for p in itertools.product((0, 1), repeat=3)], 4)
    assert flat.dim() == 3
    sl, _ = intersect_subspace(flat, SliceSpec(2, 2, (1, 1)))
    assert sl.vertices == ((0, 0), (1, 0))
    model = surface.SurfaceModel(3)
    Z = surface.zariski(model, surface.PicClass(1, (-2, 0, 0)))
    assert Z.negative_support[0][1] == 2
    assert len(list(surface.chambers(model, surface.H(3), [1, 1, 1]))) == 2
