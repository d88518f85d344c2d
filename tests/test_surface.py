import itertools
import random
from fractions import Fraction

import pytest

from okounkov import surface
from okounkov.polytope import contains, volume
from okounkov.surface import (
    E,
    H,
    PicClass,
    SurfaceModel,
    ZariskiDecomp,
    base_loci,
    check_zariski,
    intersect,
    is_big,
    is_nef,
    is_psef,
    neg_curve_classes,
    surface_body_outer,
    vol,
    zariski,
)

F = Fraction

CLASSICAL_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def cls(d, *m):
    return PicClass(F(d), tuple(F(x) for x in m))


def test_intersection_form():
    assert intersect(H(3), H(3)) == 1
    for i in range(3):
        assert intersect(E(3, i), E(3, i)) == -1
        assert intersect(H(3), E(3, i)) == 0
    assert intersect(cls(3, *[1] * 9), cls(3, *[1] * 9)) == 0
    assert intersect(cls(1, 1, 1), cls(1, 1, 1)) == -1


def test_neg_curve_classes_small():
    assert {c for c in map(repr, neg_curve_classes(1))} == {repr(E(1, 0))}
    s2 = neg_curve_classes(2)
    assert len(s2) == 3
    assert any(c == cls(1, 1, 1) for c in s2)


@pytest.mark.parametrize("s", list(range(1, 9)))
def test_neg_curve_counts(s):
    curves = neg_curve_classes(s)
    assert len(curves) == CLASSICAL_COUNTS[s]
    K = PicClass(-3, (-1,) * s)
    for c in curves:
        assert intersect(c, c) == -1
        assert intersect(c, K) == -1


@pytest.mark.parametrize("s", list(range(1, 9)))
def test_neg_curve_classes_match_brute_force(s):
    # The integral solutions of C^2 = -1, C.K = -1 with d >= 0, found by
    # trying every d <= 6 and every m in {0..3}^s: the E_i first, then by
    # d, then m in lexicographic order.
    oracle = [E(s, i) for i in range(s)]
    for d in range(1, 7):
        for m in itertools.product(range(4), repeat=s):
            if sum(m) == 3 * d - 1 and sum(x * x for x in m) == d * d + 1:
                oracle.append(cls(d, *m))
    assert neg_curve_classes(s) == oracle


def test_unsupported_generality():
    with pytest.raises(ValueError, match="unsupported generality"):
        neg_curve_classes(9)
    with pytest.raises(ValueError, match="unsupported generality"):
        SurfaceModel(9)


def test_user_mode_model():
    m = SurfaceModel(9, mode="user",
                     neg_curves=tuple(E(9, i) for i in range(9)))
    assert len(m.neg_curves) == 9


def test_user_mode_psef_is_cone_membership():
    # -K = 3H - sum E_i is nef against every generator of the list {E_i},
    # yet lies outside their cone: only cone membership gets this right.
    m = SurfaceModel(9, mode="user",
                     neg_curves=tuple(E(9, i) for i in range(9)))
    minus_k = cls(3, *[1] * 9)
    assert is_nef(m, minus_k)
    assert not is_psef(m, minus_k)
    with pytest.raises(ValueError, match="pseudoeffective"):
        zariski(m, minus_k)


def test_user_mode_inconsistent_curve_list():
    # E_1 and 2E_1 give a singular support system for H + 3E_1, a class
    # inside the cone of the list.
    m = SurfaceModel(2, mode="user",
                     neg_curves=(E(2, 0), E(2, 0).scale(2)))
    D = cls(1, -3, 0)
    assert is_psef(m, D)
    with pytest.raises(ValueError, match="curve list is inconsistent"):
        zariski(m, D)


def test_nef_examples():
    m2 = SurfaceModel(2)
    assert is_nef(m2, cls(1, F(1, 2), F(1, 2)))
    assert not is_nef(m2, cls(1, F(3, 5), F(3, 5)))


def test_psef_big_nef_h_plus_2e():
    m1 = SurfaceModel(1)
    D = cls(1, -2)  # H + 2E
    assert is_psef(m1, D)
    assert is_big(m1, D)
    assert not is_nef(m1, D)
    assert not is_psef(m1, cls(1, 2))  # H - 2E


def test_zariski_nef_class():
    m2 = SurfaceModel(2)
    D = cls(1, F(1, 2), F(1, 2))
    Z = zariski(m2, D)
    assert Z.positive == D
    assert Z.negative_support == ()


def test_zariski_h_plus_2e():
    m1 = SurfaceModel(1)
    Z = zariski(m1, cls(1, -2))
    assert Z.positive == H(1)
    assert Z.negative_support == ((E(1, 0), F(2)),)
    assert check_zariski(m1, cls(1, -2), Z) == []


def test_check_zariski_on_rescaled_user_list():
    # The audit reads P.C and the Gram minors off integer rows, where each
    # curve carries its own scale: 2 E_1 and half the line through p_1, p_2.
    line = cls(1, 1, 1).scale(F(1, 2))
    model = SurfaceModel(2, mode="user",
                         neg_curves=(E(2, 0).scale(2), E(2, 1), line))
    D = cls(3, 2, 2)
    Z = zariski(model, D)
    assert Z == ZariskiDecomp(cls(2, 1, 1), ((line, F(2)),))
    assert check_zariski(model, D, Z) == []
    # E_1 moved from P into N: P + N still gives D.
    moved = ZariskiDecomp(Z.positive - E(2, 0), Z.negative_support
                          + ((E(2, 0).scale(2), F(1, 2)),))
    assert check_zariski(model, D, moved) == [
        "positive part not nef",
        "positive part meets a support curve",
        "positive part meets a support curve",
        "support intersection matrix not negative definite",
    ]
    zero = ZariskiDecomp(Z.positive, Z.negative_support + ((E(2, 1), F(0)),))
    assert check_zariski(model, D, zero) == [
        "nonpositive multiplicity in negative part",
        "positive part meets a support curve",
        "support intersection matrix not negative definite",
    ]
    assert check_zariski(model, D, ZariskiDecomp(Z.positive, (
        (line, F(3)),))) == ["P + N does not reconstruct the input"]


def test_surface_body_grid_bound_refused_before_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the grid guard ran after the support loop")

    monkeypatch.setattr(surface, "_decompose", no_work)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS = 10000"):
        surface_body_outer(SurfaceModel(2), H(2), [0, 1], F(1, 2), 10**9)
    steps = surface.MAX_GRID_POINTS - 1  # (steps + 1)^1 is just allowed
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        surface_body_outer(SurfaceModel(1), H(1), [0], F(1), steps + 1)
    with pytest.raises(AssertionError, match="after the support loop"):
        surface_body_outer(SurfaceModel(1), H(1), [0], F(1), steps)


def test_zariski_one_wall():
    m2 = SurfaceModel(2)
    t = F(3, 5)
    Z = zariski(m2, cls(1, t, t))
    assert Z.positive == cls(F(4, 5), F(2, 5), F(2, 5))
    assert Z.negative_support == ((cls(1, 1, 1), F(1, 5)),)


def test_zariski_rejects_non_psef():
    m1 = SurfaceModel(1)
    with pytest.raises(ValueError, match="pseudoeffective"):
        zariski(m1, cls(1, 2))


def test_vol():
    m1 = SurfaceModel(1)
    assert vol(m1, cls(2, 1)) == 3  # nef => self-intersection
    assert vol(m1, cls(1, -2)) == 1
    assert vol(m1, cls(1, 2)) == 0


def test_base_loci():
    m2 = SurfaceModel(2)
    ample = cls(3, 1, 1)
    bl = base_loci(m2, ample)
    assert bl["bminus"] == [] and bl["bplus"] == []
    m1 = SurfaceModel(1)
    bl1 = base_loci(m1, cls(1, -2))
    assert bl1["bminus"] == [E(1, 0)]
    assert bl1["bplus"] == [E(1, 0)]
    bl2 = base_loci(m2, cls(1, F(3, 5), F(3, 5)))
    assert bl2["bminus"] == [cls(1, 1, 1)]
    with pytest.raises(ValueError, match="big"):
        base_loci(m2, cls(1, 1, 1))


def test_nef_iff_trivial_negative_part():
    m3 = SurfaceModel(3)
    rng = random.Random(7)
    gens = m3.psef_generators()
    for _ in range(25):
        D = PicClass(0, (0, 0, 0))
        for g in gens:
            D = D + g.scale(F(rng.randrange(0, 3), 2))
        assert is_psef(m3, D)
        Z = zariski(m3, D)
        assert is_nef(m3, D) == (Z.negative_support == ())


def test_vol_nonincreasing_along_exceptional_rays():
    m2 = SurfaceModel(2)
    D = cls(2, 0, 0)
    vals = [vol(m2, D - E(2, 0).scale(F(k, 4))) for k in range(9)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_surface_body_single_point_line_class():
    m1 = SurfaceModel(1)
    body = surface_body_outer(m1, H(1), [0], F(1, 2), F(1))
    assert set(body.vertices) == {(0, 0), (1, 0), (1, 1)}
    assert body.meta["outer_approx"] is True
    assert body.meta["grid_step"] == "1/2"


def test_surface_body_two_point_line_class():
    m2 = SurfaceModel(2)
    body = surface_body_outer(m2, H(2), [0, 1], F(1, 2), F(1))
    assert set(body.vertices) == {
        (0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0),
        (0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0),
    }


def test_surface_body_grid_refinement_stable():
    # The 1/2 grid already hits every chamber vertex here, so refining
    # the grid must not change the hull; and the grid hull contains the
    # exact toric body.
    from okounkov import toric

    m1 = SurfaceModel(1)
    coarse = surface_body_outer(m1, H(1), [0], F(1, 2), F(1))
    fine = surface_body_outer(m1, H(1), [0], F(1, 4), F(1))
    assert set(coarse.vertices) == set(fine.vertices)
    f = toric.load_fixture("bl1p2")
    exact = toric.extended_body_toric(f["fan"], f["divisors"]["O1"],
                                      f["flags"]["inf"])
    assert contains(coarse, exact)


def test_surface_body_shifted_class():
    m1 = SurfaceModel(1)
    body = surface_body_outer(m1, cls(1, -2), [0], F(1, 2), F(1))
    assert set(body.vertices) == {(2, 0), (3, 0), (3, 1)}


def test_surface_body_shift_uses_own_exceptional_multiplicity():
    # N(L) = (H-E1-E2) + (H-E1-E3) meets the flag curve E3 but does not
    # contain it, so the body starts at nu_1 = 0.
    m3 = SurfaceModel(3)
    L = cls(6, 5, 2, 2)
    body = surface_body_outer(m3, L, [2], F(1, 2), F(4))
    assert set(body.vertices) == {(0, 0), (0, 1), (2, 1), (3, 0)}
    assert 2 * volume(body) == vol(m3, L) == 5


def test_surface_body_projections():
    m1, m2 = SurfaceModel(1), SurfaceModel(2)
    from okounkov import polytope

    b2 = surface_body_outer(m2, H(2), [0, 1], F(1, 2), F(1))
    b1 = surface_body_outer(m1, H(1), [0], F(1, 2), F(1))
    pr1 = polytope.affine_image(b2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    pr2 = polytope.affine_image(b2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert set(pr1.vertices) == set(b1.vertices)
    assert set(pr2.vertices) == set(b1.vertices)


def test_surface_json_round_trip():
    m = SurfaceModel(2)
    assert SurfaceModel.from_json(m.to_json()).neg_curves == m.neg_curves
    c = cls(F(7, 2), 1, -3)
    assert PicClass.from_json(c.to_json()) == c
