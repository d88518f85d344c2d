import itertools
from fractions import Fraction

import pytest

from okounkov import polytope
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
    assert volume(P) == RadVal.rational(1)
