import copy as copy_module
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from okounkov import invariants, linalg, lp, polytope, surface
from okounkov.numbers import format_rat
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


def test_class_refuses_a_float_coefficient():
    # 0.5 and 0.1 are binary fractions; 0.1 is not 1/10.
    with pytest.raises(ValueError, match="float value 0.5"):
        PicClass(0.5, (0.1,))
    with pytest.raises(ValueError, match="float value 0.1"):
        PicClass(F(1, 2), (0.1,))
    with pytest.raises(ValueError, match="bool value True"):
        PicClass(1, (True,))
    assert PicClass(F(1, 2), (F(1, 10),)).m == (F(1, 10),)


@pytest.mark.parametrize("i", [-1, 3])
def test_exceptional_index_outside_range_is_refused(i):
    # -1 used to wrap round to E_3, and 3 raised a bare IndexError.
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        E(3, i)


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


@pytest.mark.parametrize("s", list(range(1, 9)))
def test_builtin_model_rows_match_its_classes(s):
    # A built-in model takes its integer rows straight from the curve types;
    # they are the rows of its classes, and its curves are the classical ones.
    model = SurfaceModel(s)
    assert model._rows == tuple(g._row[0]
                                for g in model.psef_generators())
    assert model.neg_curves == tuple(neg_curve_classes(s))


def test_unsupported_generality():
    with pytest.raises(ValueError, match="unsupported generality"):
        neg_curve_classes(9)
    with pytest.raises(ValueError, match="unsupported generality"):
        SurfaceModel(9)


def test_user_mode_model():
    m = SurfaceModel(9, mode="user",
                     neg_curves=tuple(E(9, i) for i in range(9)))
    assert len(m.neg_curves) == 9


_L12 = cls(1, 1, 1)  # the line through p_1 and p_2 on Bl_2


@pytest.mark.parametrize("args, message", [
    ((2, "user", (E(3, 0),)), "user curve list has wrong s"),
    ((2, "delpezzo"), "unknown surface mode 'delpezzo'"),
    ((2, "delpezzo-general", (E(2, 0),)),
     "neg_curves are read only with mode 'user'"),
    ((-1, "user"), "s -1 is not an integer >= 0"),
    ((2, "user", (E(2, 0), E(2, 1), _L12, _L12)),
     "user curve list names one curve twice: entries 2 and 3"),
    ((2, "user", (E(2, 0).scale(2), E(2, 1), E(2, 0))),
     "user curve list names one curve twice: entries 0 and 2"),
], ids=["user-wrong-s", "unknown-mode", "builtin-with-curves",
        "user-negative-s", "user-repeated-curve", "user-rescaled-curve"])
def test_model_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        SurfaceModel(*args)


def test_repeated_user_curve_gives_no_body():
    # With L12 named twice the walk skipped every support holding both
    # copies, as singular, and the body came out with 5 vertices and
    # volume 2/3, printed as exact; without the copy it has 6 and 4/3.
    curves = (E(2, 0), E(2, 1), _L12)
    body = surface_body_outer(SurfaceModel(2, "user", curves), H(2).scale(2),
                              [0, 1], F(1, 2), F(1))
    assert len(body.vertices) == 6 and volume(body) == F(4, 3)
    with pytest.raises(ValueError, match="names one curve twice"):
        SurfaceModel(2, "user", curves + (_L12.scale(2),))


def test_flag_curves_are_found_by_row_on_user_lists():
    # A user list holding the built-in curves in another order names E_i at
    # another index.  The body walk finds each flag curve by its row, so
    # the shift of a flag E_i in N(D) and the start support come out as on
    # the built-in model; a wrong index shows only where some E_i is in N(D).
    rng = random.Random(35)
    bodies = shifted = 0
    for s in range(2, 6):
        builtin = SurfaceModel(s)
        curves = list(builtin.neg_curves)
        while any(curves[i] == E(s, i) for i in range(s)):  # every E_i moves
            rng.shuffle(curves)
        user = SurfaceModel(s, "user", tuple(curves))
        while bodies < 6 * (s - 1):
            D = cls(rng.randint(1, 4), *(rng.randint(-2, 2) for _ in range(s)))
            if not is_big(builtin, D):
                continue
            points = sorted(rng.sample(range(s), rng.randint(1, 2)))
            w = [int(i in points) for i in range(s)]
            N = dict(zariski(builtin, D).negative_support)
            shifted += any(E(s, i) in N for i in points)
            bodies += 1
            assert surface_body_outer(user, D, points, F(1, 2), F(1)) == \
                surface_body_outer(builtin, D, points, F(1, 2), F(1))
            assert invariants.nakayama_mu(user, D, points) == \
                invariants.nakayama_mu(builtin, D, points)
            assert list(surface.chambers(user, D, w)) == \
                list(surface.chambers(builtin, D, w))
    assert bodies == 24 and shifted > 0
    # E_1 named as E_1 / 2 has the row of E_1: 2H + E_1 shifts block 1 by
    # the multiplicity 1 of E_1 in N, which a lookup by class missed.
    curves = (E(2, 0).scale(F(1, 2)), *SurfaceModel(2).neg_curves[1:])
    D = cls(2, -1, 0)
    body = surface_body_outer(SurfaceModel(2, "user", curves), D, [0, 1],
                              F(1, 2), F(1))
    assert body == surface_body_outer(SurfaceModel(2), D, [0, 1], F(1, 2),
                                      F(1))
    assert min(v[0] for v in body.vertices) == 1


def test_user_model_size_is_checked_before_its_rows(monkeypatch):
    # (curves + s + 1) (s + 1) row entries, the product lp.in_cone refuses
    # past MAX_CONE_CELLS, read when the model is built.
    def no_rows(s):
        raise AssertionError("rows built")

    with monkeypatch.context() as m:
        m.setattr(surface, "_generator_rows", no_rows)
        with pytest.raises(ValueError, match="^user model of 251001 row "
                           "entries exceeds MAX_CONE_CELLS = 100000$"):
            SurfaceModel(500, "user")
        with pytest.raises(ValueError, match="s -1 is not an integer"):
            SurfaceModel(-1, "user")
    monkeypatch.setattr(lp, "MAX_CONE_CELLS", 9)
    assert len(SurfaceModel(2, "user")._rows) == 3
    with pytest.raises(ValueError, match="^user model of 12 row entries "
                       "exceeds MAX_CONE_CELLS = 9$"):
        SurfaceModel(2, "user", (E(2, 0),))


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
    # E_1 + E_2 is no curve: H + E_1 + E_2, a class inside the cone of the
    # list, meets all three negatively, and three curves on Bl_2 are never
    # a negative definite support.
    m = SurfaceModel(2, mode="user",
                     neg_curves=(E(2, 0), E(2, 1), E(2, 0) + E(2, 1)))
    D = cls(1, -1, -1)
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


def test_check_zariski_on_builtin_two_curve_support():
    # Bl3 7/2 H - 3 E_1 - 3 E_2 + 1/2 E_3: N = 1/2 E_3 + 5/2 (H - E_1 - E_2),
    # so P + N is compared with D over a common denominator of 2.
    model, L12 = SurfaceModel(3), cls(1, 1, 1, 0)
    D = cls(F(7, 2), 3, 3, F(-1, 2))
    Z = zariski(model, D)
    assert Z == ZariskiDecomp(cls(1, F(1, 2), F(1, 2), 0),
                              ((E(3, 2), F(1, 2)), (L12, F(5, 2))))
    assert check_zariski(model, D, Z) == []
    # Half the line's multiple moved from N into P: P + N still gives D.
    moved = ZariskiDecomp(Z.positive + L12.scale(F(5, 4)),
                          ((E(3, 2), F(1, 2)), (L12, F(5, 4))))
    assert check_zariski(model, D, moved) == [
        "positive part not nef",
        "positive part meets a support curve",
    ]
    zero = ZariskiDecomp(Z.positive, ((E(3, 2), F(0)), (L12, F(5, 2))))
    assert check_zariski(model, D, zero) == [
        "nonpositive multiplicity in negative part",
        "P + N does not reconstruct the input",
    ]
    dropped = ZariskiDecomp(Z.positive, ((L12, F(5, 2)),))
    assert check_zariski(model, D, dropped) == [
        "P + N does not reconstruct the input"]
    # H - E_1 meets the line, so the three Gram rows are not negative definite.
    extra = ZariskiDecomp(Z.positive, Z.negative_support
                          + ((cls(1, 1, 0, 0), F(0)),))
    assert check_zariski(model, D, extra) == [
        "nonpositive multiplicity in negative part",
        "positive part meets a support curve",
        "support intersection matrix not negative definite",
    ]


def test_psef_and_vol_build_no_decomposition(monkeypatch):
    # On a built-in model is_psef, vol and is_big read the support loop's
    # integer rows: no ZariskiDecomp and no PicClass is built.
    model, built = SurfaceModel(5), []
    D, X = cls(F(7, 2), 3, 3, F(-1, 2), 0, 0), cls(1, 2, 0, 0, 0, 0)
    for name in ("ZariskiDecomp", "PicClass"):
        real = getattr(surface, name)
        monkeypatch.setattr(surface, name, lambda *a, real=real, name=name:
                            built.append(name) or real(*a))
    assert is_psef(model, D) and not is_psef(model, X)
    assert vol(model, D) == F(1, 2) and is_big(model, D) and vol(model, X) == 0
    assert built == []
    zariski(model, D)
    assert built.count("ZariskiDecomp") == 1


def test_surface_body_chamber_cap_refused(monkeypatch):
    # Bl2 H at both points: the walk solves 4 supports (the empty one and
    # H-E1-E2, then two singular pairs).  Past MAX_CHAMBERS it refuses,
    # having solved exactly that many.
    solved = []
    real = surface._solve
    monkeypatch.setattr(surface, "_solve",
                        lambda *rows: solved.append(rows[0]) or real(*rows))
    monkeypatch.setattr(surface, "MAX_CHAMBERS", 3)
    with pytest.raises(ValueError, match="MAX_CHAMBERS = 3"):
        surface_body_outer(SurfaceModel(2), H(2), [0, 1], F(1, 2), F(1))
    assert len(solved) == 3
    solved.clear()
    monkeypatch.setattr(surface, "MAX_CHAMBERS", 4)
    body = surface_body_outer(SurfaceModel(2), H(2), [0, 1], F(1, 2), F(1))
    assert len(solved) == 4 and len(body.vertices) == 6


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


def test_support_holds_exactly_the_curves_of_n():
    # The support loop answers N's curves only, each with multiplicity > 0:
    # zariski lists them in its order, and base_loci matches an oracle built
    # from zariski and intersect alone.
    rng = random.Random(1)
    supports = extras = 0
    for s in range(1, 9):
        model = SurfaceModel(s)
        for _ in range(40):
            D = cls(rng.randint(0, 5), *(rng.randint(-2, 3) for _ in range(s)))
            if (sup := surface._support(model, D)) is None:
                continue
            support, _, n, _ = sup
            assert len(n) == len(support) and all(nb > 0 for nb in n)
            Z = zariski(model, D)
            N = [c for c, _ in Z.negative_support]
            assert N == [model.neg_curves[k] for k in support]
            supports += bool(support)
            if not is_big(model, D):
                continue
            extra = [C for C in model.neg_curves
                     if intersect(Z.positive, C) == 0 and C not in N]
            extras += bool(extra)
            assert base_loci(model, D) == {"bminus": N, "bplus": N + extra}
    assert supports > 20 and extras > 5


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


def test_surface_body_setup_rows_match_the_fraction_construction(
        monkeypatch):
    # surface_body_outer sets up q D_t = x + sum t_i us_i in integers from
    # D._row.  It must give the rows of D' = D - sum shift_i E_i, shift_i
    # the multiplicity of E_i in N(D), on the lcm of D''s denominators, and
    # us_i the row of -q E_i, as Fractions build them.
    class Seen(Exception):
        pass

    def first_chamber(model, supp, x, *us):
        raise Seen(x, us)

    monkeypatch.setattr(surface, "_chamber", first_chamber)
    rng = random.Random(5)
    big = shifted = scaled = 0
    for _ in range(60):
        s = rng.randint(1, 5)
        model = SurfaceModel(s)
        D = PicClass(F(rng.randint(1, 12), rng.choice((1, 2, 3))), tuple(
            F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(s)))
        if not is_big(model, D):
            continue
        points = rng.sample(range(s), rng.randint(1, min(s, 2)))
        N = dict(zariski(model, D).negative_support)
        shifts = [N.get(E(s, i), 0) for i in points]
        shifted += any(shifts)
        x, q = sum((E(s, i).scale(-a) for i, a in zip(points, shifts)), D)._row
        us = tuple(E(s, i).scale(-q)._row[0] for i in points)
        with pytest.raises(Seen) as exc:
            surface_body_outer(model, D, points, F(1, 2), F(1))
        assert exc.value.args == (x, us)
        big += 1
        scaled += q > 1
    assert big >= 30 and shifted >= 5 and scaled >= 10


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
    user = SurfaceModel(2, "user", (E(2, 0), cls(1, 1, 1)))
    assert user.to_json() == {"s": 2, "mode": "user", "neg_curves": [
        {"d": "0", "m": ["-1", "0"]}, {"d": "1", "m": ["1", "1"]}]}
    assert SurfaceModel.from_json(user.to_json()) == user
    c = cls(F(7, 2), 1, -3)
    assert PicClass.from_json(c.to_json()) == c


# -- the chamber walk against an exact oracle ----------------------------

def _frac_intersect(a, b):
    """The intersection form summed in Fractions, apart from
    surface.intersect, which runs on the classes' integer rows."""
    return a.d * b.d - sum((x * y for x, y in zip(a.m, b.m, strict=True)),
                           F(0))


def _oracle_body(model, D, points):
    """The body as the hull of the pieces over every candidate support S of
    at most s curves with a negative definite Gram matrix.  On S, P(t) =
    D' - sum t_i E_i - sum a_C(t) C with P.C = 0 for C in S, in Fraction
    class arithmetic; the piece lies over {t >= 0 : a(t) >= 0, P(t).g >= 0
    for every other generator g}, with fibre ends 0 and P(t).E_i."""
    r, flags = len(points), [E(model.s, i) for i in points]
    Z = zariski(model, D)
    shift = [sum((a for c, a in Z.negative_support if c == f), F(0))
             for f in flags]
    base = D
    for f, a in zip(flags, shift):
        base = base - f.scale(a)
    pts = set()
    for k in range(model.s + 1):
        for S in itertools.combinations(model.neg_curves, k):
            gram = [[_frac_intersect(a, b) for b in S] for a in S]
            if any((-1) ** j * linalg.det([row[:j] for row in gram[:j]]) <= 0
                   for j in range(1, k + 1)):
                continue  # not negative definite
            # Ps[0] is P at t = 0 and Ps[1 + i] its slope in t_i; As holds
            # the same for the multiplicities.
            Ps, As = [], []
            for X in [base] + [f.scale(-1) for f in flags]:
                a = linalg.solve(gram, [_frac_intersect(X, c) for c in S])
                for c, x in zip(S, a):
                    X = X - c.scale(x)
                Ps.append(X)
                As.append(a)
            halfs = [(tuple(-As[1 + i][j] for i in range(r)), As[0][j])
                     for j in range(k)]
            halfs += [(tuple(-_frac_intersect(Ps[1 + i], g)
                             for i in range(r)), _frac_intersect(Ps[0], g))
                      for g in model.psef_generators() if g not in S]
            halfs += [(tuple(F(-(i == j)) for i in range(r)), F(0))
                      for j in range(r)]
            for t in polytope._vertices_from_constraints(halfs, [], r):
                P = Ps[0]
                for ti, Pi in zip(t, Ps[1:]):
                    P = P + Pi.scale(ti)
                ends = [((sh + ti, F(0)), (sh + ti, P.m[i]))
                        for sh, ti, i in zip(shift, t, points)]
                pts.update(sum(e, ()) for e in itertools.product(*ends))
    return polytope.hull(pts, 2 * r)


def _random_big(rng, s):
    model = SurfaceModel(s)
    nefs = [H(s)] + [H(s) - E(s, j) for j in range(s)]
    while True:
        D = H(s).scale(rng.randrange(0, 3))
        for g in rng.sample(nefs, min(2, len(nefs))):
            D = D + g.scale(rng.randrange(0, 3))
        for C in rng.sample(model.neg_curves, min(3, len(model.neg_curves))):
            D = D + C.scale(rng.randrange(0, 3))
        if is_big(model, D):
            return model, D


def test_surface_body_matches_subset_oracle():
    rng = random.Random(2024)
    for _ in range(24):
        s = rng.randrange(2, 5)  # Bl1 is covered by the fixed cases
        model, D = _random_big(rng, s)
        points = sorted(rng.sample(range(s), rng.randrange(1, min(3, s) + 1)))
        body = surface_body_outer(model, D, points, F(1, 2), F(1))
        assert body == _oracle_body(model, D, points), (D, points)


def test_surface_body_one_point_has_half_the_volume():
    # r = 1: the body is {(nu + t, y) : 0 <= y <= P(t).E}, of area vol(D)/2.
    rng = random.Random(8)
    for s in range(1, 9):
        for _ in range(2):
            model, D = _random_big(rng, s)
            i = rng.randrange(s)
            body = surface_body_outer(model, D, [i], F(1, 2), F(1))
            assert 2 * volume(body) == vol(model, D), (D, i)


def test_surface_body_anticanonical_bl8():
    # A grid of step 1/4 misses the chamber vertex (1/3, 4/3): it gave
    # (1/4, 5/4) and volume 7/16.
    m8 = SurfaceModel(8)
    K = cls(3, *[1] * 8)
    body = surface_body_outer(m8, K, [0], F(1, 4), F(1))
    assert set(body.vertices) == {(0, 0), (0, 1), (F(1, 3), F(4, 3)),
                                  (F(1, 2), 0)}
    assert volume(body) == F(1, 2) == vol(m8, K) / 2


def test_surface_body_eliminates_no_impossible_support(monkeypatch):
    # Where P(t) reaches 0 every curve is tight, and the walk meets supports
    # of up to 240 curves on Bl_8.  Pic has signature (1, s), so none of
    # more than s curves is negative definite: the solver refuses them
    # before building their Gram matrix, with the same vertices.
    rows = []
    real = surface._negative_definite

    def counted(m, k, **kw):
        rows.append(len(m))
        return real(m, k, **kw)

    monkeypatch.setattr(surface, "_negative_definite", counted)
    m8 = SurfaceModel(8)
    K = cls(3, *[1] * 8)
    body = surface_body_outer(m8, K, [0], F(1, 2), F(1))
    assert body.vertices == ((0, 0), (0, 1), (F(1, 3), F(4, 3)), (F(1, 2), 0))
    body = surface_body_outer(m8, K, [0, 1], F(1, 2), F(1))
    third, fifth = F(1, 3), F(1, 5)
    assert body.vertices == (
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, third, 4 * third),
        (0, 0, F(1, 2), 0), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, third, 0),
        (0, 1, third, 4 * third), (fifth, 0, fifth, 6 * fifth),
        (fifth, 6 * fifth, fifth, 0), (fifth, 6 * fifth, fifth, 6 * fifth),
        (third, 0, 0, 1), (third, 4 * third, 0, 0), (third, 4 * third, 0, 1),
        (F(1, 2), 0, 0, 0))
    assert rows and max(rows) <= 8
    rows.clear()
    surface_body_outer(SurfaceModel(5), cls(3, *[1] * 5), [0, 1, 2, 3],
                       F(1, 2), F(1))
    assert rows and max(rows) <= 5


def test_chambers_bounded_by_max_chambers(monkeypatch):
    # H on Bl_3 along E_1 + E_2 + E_3 has two chambers; with room for one
    # step the walk refuses instead of ending.
    model = SurfaceModel(3)
    assert len(list(surface.chambers(model, H(3), [1, 1, 1]))) == 2
    monkeypatch.setattr(surface, "MAX_CHAMBERS", 1)
    with pytest.raises(ValueError, match="MAX_CHAMBERS = 1"):
        list(surface.chambers(model, H(3), [1, 1, 1]))
    # The nef test of a class that is not nef is no chamber: 2H + E_1 along
    # E_2 + E_3 starts from the support E_1 and fits in two.
    L = cls(2, -1, 0, 0)
    monkeypatch.setattr(surface, "MAX_CHAMBERS", 2)
    assert [c[:3] for c in surface.chambers(model, L, [0, 1, 1])] == [
        (0, 1, 1), (1, 2, 2)]


def test_surface_body_degenerate_start(monkeypatch):
    # 2H - E1 - E2 - E3 is nef, but every t != 0 brings in the three lines
    # at once: the first chamber is the point t = 0, and the walk crosses it
    # to the support {L12, L13, L23}.
    solved = []
    real = surface._solve
    monkeypatch.setattr(surface, "_solve",
                        lambda *rows: solved.append(rows[0]) or real(*rows))
    m3 = SurfaceModel(3)
    D = cls(2, 1, 1, 1)
    body = surface_body_outer(m3, D, [0, 1], F(1, 2), F(1))
    lines = sorted(c._row[0] for c in m3.neg_curves[3:])
    assert solved[:2] == [(), tuple(lines)]
    assert body == _oracle_body(m3, D, [0, 1])
    assert len(body.vertices) == 6 and volume(body) == F(1, 12)


def test_surface_body_grid_keys_shape_nothing():
    # Bl1 2H: the CLI defaults (step 1/2, t_max 1) used to cut the body at
    # t = 1, volume 1/2; the body is whole at any step and t_max.
    m1 = SurfaceModel(1)
    for step, t_max in [(F(1, 2), F(1)), (F(1, 7), F(0)), (F(3), F(10**9))]:
        body = surface_body_outer(m1, cls(2, 0), [0], step, t_max)
        assert set(body.vertices) == {(0, 0), (2, 0), (2, 2)}
        assert body.meta["t_max"] == format_rat(t_max)
    with pytest.raises(ValueError, match="grid_step must be positive"):
        surface_body_outer(m1, cls(2, 0), [0], F(0), F(1))


def test_chambers_refuses_bad_weights():
    # A w of the wrong length used to be zipped short or padded, and a
    # negative weight walked L + t W.
    model = SurfaceModel(3)
    L = H(3).scale(3)
    for w in ([1], [1, 0, 0, 0], [-1, 0, 0], [1, F(-1, 2), 1]):
        with pytest.raises(ValueError, match="3 nonnegative rationals"):
            surface.chambers(model, L, w)
    assert next(surface.chambers(model, L, [1, 0, 0]))[:2] == (0, 3)


def test_packed_scans_cover_the_benchmark_classes(monkeypatch):
    # The scans of Bl_8 -K multiples, a class with a negative part and the
    # sandwich degrees d H, d = 1..6, all fit the 64-bit lanes: none falls
    # back to the row loop.
    loops = []
    real = surface._row_dots
    monkeypatch.setattr(surface, "_row_dots",
                        lambda rows, x: loops.append(x) or real(rows, x))
    m8 = SurfaceModel(8)
    K = cls(3, *[1] * 8)
    for D in [K.scale(k) for k in (F(1, 2), 1, 2, 5)] + [
            K + E(8, 0) + cls(1, 1, 1, 0, 0, 0, 0, 0, 0).scale(2)]:
        assert is_psef(m8, D)
        Z = zariski(m8, D)
        assert check_zariski(m8, D, Z) == []
        assert vol(m8, D) > 0 and is_nef(m8, Z.positive)
        base_loci(m8, D)
        invariants.seshadri_eps(m8, Z.positive, [1] * 8)
    assert not is_psef(m8, K - E(8, 0).scale(3))
    for d in range(1, 7):
        invariants.bounds_sandwich(m8, H(8).scale(d))
    assert loops == []
    # A class past the guard does take it.
    assert not is_nef(m8, cls(10 ** 30, 10 ** 30 + 1, *[0] * 7))
    assert loops


# -- the support loop's state, kept with the class ---------------------

def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("model, D", [
    (SurfaceModel(5), cls(F(7, 2), 3, 3, F(-1, 2), 0, 0)),
    (SurfaceModel(8), cls(F(7, 2), 3, 3, F(-1, 2), 0, 0, 0, 0, 0)),
])
def test_one_support_loop_per_class(monkeypatch, model, D):
    # Every reader of the support loop's state on one class runs the loop
    # once, and that run solves as many supports as a lone loop does.
    lone = _count(monkeypatch, surface, "_solve")
    assert surface._support(model, PicClass(D.d, D.m)) is not None
    lone = len(lone)
    loops = _count(monkeypatch, surface, "_grow")
    solved = _count(monkeypatch, surface, "_solve")
    assert is_psef(model, D)
    Z = zariski(model, D)
    assert check_zariski(model, D, Z) == []
    assert vol(model, D) > 0 and is_big(model, D)
    assert base_loci(model, D)["bminus"] == [c for c, _ in Z.negative_support]
    assert len(loops) == 1 and solved and len(solved) == lone
    # A model of the same s shares the built-in rows, and so the state.
    assert vol(SurfaceModel(model.s), D) == vol(model, D)
    assert len(loops) == 1


def test_one_support_loop_per_surface_body_op(monkeypatch):
    # nakayama_mu of a class that is not nef, its surface body and its
    # volume: the walk's support loop serves the body and vol.
    model, D = SurfaceModel(3), cls(2, -1, 0, 0)  # 2H + E_1
    assert not is_nef(model, D)
    loops = _count(monkeypatch, surface, "_grow")
    invariants.nakayama_mu(model, D, [1])
    body = surface_body_outer(model, D, [1], F(1, 4), F(1))
    assert vol(model, D) == 4  # P = 2H
    assert volume(body).as_rational() == 2
    assert len(loops) == 1


def test_user_model_pays_its_cone_test_once(monkeypatch):
    line = cls(1, 1, 1).scale(F(1, 2))
    model = SurfaceModel(2, mode="user",
                         neg_curves=(E(2, 0).scale(2), E(2, 1), line))
    D = cls(3, 2, 2)
    lps = _count(monkeypatch, surface.lp, "in_cone")
    Z = zariski(model, D)
    assert check_zariski(model, D, Z) == []
    assert vol(model, D) == 2 and is_big(model, D)
    assert base_loci(model, D)["bminus"] == [line]
    assert len(lps) == 1
    # is_psef keeps its own cone test on user models.
    assert is_psef(model, D) and len(lps) == 2


def test_support_state_belongs_to_one_model(monkeypatch):
    # Bl2 without its line H - E_1 - E_2: the user cone misses 3H - 2E_1 -
    # 2E_2, which the built-in model splits as (2H - E_1 - E_2) + line.
    builtin = SurfaceModel(2)
    user = SurfaceModel(2, mode="user", neg_curves=(E(2, 0), E(2, 1)))
    D = cls(3, 2, 2)
    loops = _count(monkeypatch, surface, "_grow")
    for _ in range(2):
        assert is_psef(builtin, D) and vol(builtin, D) == 2
        assert zariski(builtin, D) == ZariskiDecomp(
            cls(2, 1, 1), ((cls(1, 1, 1), F(1)),))
        assert not is_psef(user, D) and vol(user, D) == 0
        with pytest.raises(ValueError, match="pseudoeffective"):
            zariski(user, D)
    # Each switch of model runs the loop again; the user cone test refuses
    # D before any loop.
    assert len(loops) == 2
    # An equal user model has rows of its own, so it does not read the
    # state kept for the first.
    twin = SurfaceModel(2, mode="user", neg_curves=(E(2, 0), E(2, 1)))
    lps = _count(monkeypatch, surface.lp, "in_cone")
    assert vol(twin, D) == 0 and len(lps) == 1


def test_inconsistent_user_list_raises_on_every_call():
    m = SurfaceModel(2, mode="user",
                     neg_curves=(E(2, 0), E(2, 1), E(2, 0) + E(2, 1)))
    D = cls(1, -1, -1)
    for call in (zariski, vol, zariski, is_big):
        with pytest.raises(ValueError, match="curve list is inconsistent"):
            call(m, D)
    assert "_support" not in D.__dict__


def test_check_zariski_never_reads_the_kept_state(monkeypatch):
    # Bl3 7/2 H - 3 E_1 - 3 E_2 + 1/2 E_3 = P + 1/2 E_3 + 5/2 L12.  With D's
    # state kept, a tampered Z is still audited on its own fields.
    model, L12 = SurfaceModel(3), cls(1, 1, 1, 0)
    D = cls(F(7, 2), 3, 3, F(-1, 2))
    Z = zariski(model, D)
    assert "_support" in D.__dict__

    def no_loop(*args):
        raise AssertionError("check_zariski read the support loop")

    monkeypatch.setattr(surface, "_support", no_loop)
    moved = ZariskiDecomp(  # L12 moved from N into P
        Z.positive + L12, ((E(3, 2), F(1, 2)), (L12, F(3, 2))))
    assert check_zariski(model, D, moved) == [
        "positive part not nef",
        "positive part meets a support curve",
    ]
    changed = ZariskiDecomp(Z.positive, ((E(3, 2), F(1)), (L12, F(5, 2))))
    assert check_zariski(model, D, changed) == [
        "P + N does not reconstruct the input"]
    assert check_zariski(model, D, Z) == []
    monkeypatch.undo()
    assert zariski(model, D) == Z != moved


def test_kept_state_leaves_the_class_as_it_was():
    model = SurfaceModel(5)
    D = cls(F(7, 2), 3, 3, F(-1, 2), 0, 0)
    before = (repr(D), hash(D), D.to_json())
    zariski(model, D)
    base_loci(model, D)
    assert "_support" in D.__dict__
    fresh = cls(F(7, 2), 3, 3, F(-1, 2), 0, 0)
    assert (repr(D), hash(D), D.to_json()) == before
    assert D == fresh and hash(D) == hash(fresh) and {D, fresh} == {D}
    assert [f.name for f in dataclasses.fields(D)] == ["d", "m"]
    assert dataclasses.astuple(D) == dataclasses.astuple(fresh)


def test_models_and_classes_survive_pickle_and_deepcopy():
    # A model's packed rows and a class's kept state (which holds them)
    # are rebuilt from the rows; the copy of a class does not share the
    # original model's rows object, so it runs its own loop there.
    model = SurfaceModel(5)
    user = SurfaceModel(2, mode="user", neg_curves=(E(2, 0), E(2, 1)))
    D = cls(F(7, 2), 3, 3, F(-1, 2), 0, 0)
    assert vol(model, D) == F(1, 2)
    for copy in (lambda x: pickle.loads(pickle.dumps(x)), copy_module.deepcopy):
        m2, u2, D2 = map(copy, (model, user, D))
        assert (m2, u2, D2) == (model, user, D)
        assert m2._rows.cols == model._rows.cols
        assert m2._rows.curves == len(model.neg_curves)
        assert vol(m2, D2) == vol(model, D2) == F(1, 2)
        assert zariski(m2, D) == zariski(model, D)
        assert not is_psef(u2, cls(1, 1, 1))


# -- a class of the wrong s --------------------------------------------

_M3 = SurfaceModel(3)
_USER3 = SurfaceModel(3, mode="user", neg_curves=tuple(_M3.neg_curves))


@pytest.mark.parametrize("call", [
    lambda D: is_psef(_M3, D),
    lambda D: is_psef(_USER3, D),
    lambda D: zariski(_M3, D),
    lambda D: zariski(_USER3, D),
    lambda D: vol(_M3, D),
    lambda D: is_big(_M3, D),
    lambda D: base_loci(_M3, D),
    lambda D: is_nef(_M3, D),
    lambda D: surface.chambers(_M3, D, [1, 1, 1]),
    lambda D: invariants.nakayama_mu(_M3, D),
    lambda D: check_zariski(_M3, D, ZariskiDecomp(H(3), ())),
    lambda D: check_zariski(_M3, H(3), ZariskiDecomp(D, ())),
    lambda D: check_zariski(_M3, H(3), ZariskiDecomp(H(3), ((D, F(1)),))),
    lambda D: surface_body_outer(_M3, D, [0], F(1, 2), F(1)),
])
@pytest.mark.parametrize("D", [cls(2, 1, 1, 1, 1), cls(1, 0)])
def test_class_of_wrong_s_refused(call, D):
    # The scans zip a class's row with the model's: a row of four or of
    # one multiplicity on Bl3 used to read as that of another class.
    with pytest.raises(ValueError, match="on a model of s = 3"):
        call(D)
    assert "_support" not in D.__dict__


def test_shifted_bodies_match_fraction_oracle():
    # The walk hands the body its fibre points as integers on one scale;
    # the oracle builds them in Fraction class arithmetic.  The shifts are
    # 2, 2, (1, 1/2) and (1, 0, 1/2).
    cases = ((1, cls(1, -2), [0]), (2, cls(1, -2, 0), [0, 1]),
             (3, cls(2, -1, 1, F(-1, 2)), [0, 2]),
             (3, cls(2, -1, 1, F(-1, 2)), [0, 1, 2]))
    for s, D, points in cases:
        model = SurfaceModel(s)
        body = surface_body_outer(model, D, points, F(1, 2), F(1))
        ref = _oracle_body(model, D, points)
        assert min(v[0] for v in body.vertices) > 0
        assert body.vertices == ref.vertices
        assert body.halfspaces() == ref.halfspaces()
        assert volume(body) == volume(ref)


def test_anticanonical_bodies_keep_their_vertices():
    # The slowest bodies the chamber walk builds here; the pins (vertex
    # count, coordinate sum, facet count) were read off the Fraction path.
    for s, r, count, total, facets in ((4, 3, 57, F(369, 2), 22),
                                       (5, 4, 133, 444, 49),
                                       (4, 4, 217, 882, 41)):
        body = surface_body_outer(SurfaceModel(s), cls(3, *[1] * s),
                                  list(range(r)), F(1, 2), F(1))
        assert len(body.vertices) == count
        assert sum(map(sum, body.vertices)) == total
        assert len(body.halfspaces()[0]) == facets


# -- the one-pass wall scan of the chamber walk against three passes -----

def _ref_walk(model, L, w):
    """surface.chambers with each chamber's walls read in three passes: the
    rows that have a wall, the nearest wall, then the rows on it."""
    n = len(L.m) + 1
    row, _ = linalg.scaled((L.d, *L.m, 0, *map(F, w)))  # u = q (-W)
    x, u, supp, tn, td = row[:n], row[n:], [], 0, 1
    ch = surface._chamber(model, supp, x, u)
    if ch and min(ch[2][0]) < 0:
        sup = surface._support(model, L)
        if sup is None:
            return
        supp = list(sup[0])
        ch = surface._chamber(model, supp, x, u)
    while True:
        _, (p0, p1), cols = ch
        k = len(supp)
        ts = [(a, -b, j) for j, (a, b) in enumerate(zip(*cols)) if b < 0]
        quad = (surface._dot(p0, p0), 2 * surface._dot(p0, p1),
                surface._dot(p1, p1))
        g = math.gcd(*quad) or 1
        t1 = None
        for a, b, _ in ts:
            if t1 is None or F(a, b) < F(*t1):
                t1 = (a, b)
        if t1 is not None and F(*t1) <= F(tn, td):
            t1 = (tn, td)
        A, B, C = (v // g for v in quad)
        yield (F(tn, td), None if t1 is None else F(*t1), k, (A, B, C))
        if t1 is None:
            return
        tn, td = t1
        if A * td * td + B * tn * td + C * tn * tn <= 0:
            return
        now = {j for a, b, j in ts if F(a, b) <= F(tn, td)}
        supp = ([c for j, c in enumerate(supp) if j not in now]
                + [j - k for j in sorted(now) if j >= k])
        ch = surface._chamber(model, supp, x, u)


def test_one_pass_wall_scan_matches_three_passes():
    rng = random.Random(24)
    cases = [(SurfaceModel(3), cls(2, 1, 1, 1), [1, 1, 1]),
             (SurfaceModel(3), cls(2, -1, 0, 0), [0, 1, 1])]
    cases += [(SurfaceModel(s), H(s).scale(d), [1] * s)
              for s in range(5, 9) for d in (1, 2, 3)]
    for s in range(2, 9):
        model = SurfaceModel(s)
        for _ in range(15):
            D = cls(rng.randrange(1, 7), *(rng.randrange(-1, 4)
                                           for _ in range(s)))
            w = [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(s)]
            cases.append((model, D, w))
    kinds, points = set(), 0
    for model, D, w in cases:
        walk = list(surface.chambers(model, D, w))
        assert walk == list(_ref_walk(model, D, w)), (model.s, D, w)
        kinds.add((model.s, is_nef(model, D), 0 in w))
        points += sum(t1 == t0 for t0, t1, _, _ in walk)
    # nef and non-nef classes at every s, weights with and without zeros,
    # and chambers that are a single point
    assert {(s, nef) for s, nef, _ in kinds} == {
        (s, nef) for s in range(2, 9) for nef in (True, False)}
    assert {zero for _, _, zero in kinds} == {True, False}
    assert points > 0


def test_support_gram_matrix_is_computed_once_per_pair(monkeypatch):
    # The Gram matrix is symmetric: 8 support rows and 2 columns cost
    # 8 * 9 / 2 + 8 * 2 = 52 dot products, not 8 * 8 + 8 * 2 = 80.
    model = SurfaceModel(8)
    support = [model._rows[i] for i in range(8)]  # E_1, ..., E_8
    x, u = (3, *[1] * 8), (0, *[-1] * 8)
    dots = _count(monkeypatch, surface, "_dot")
    det, out = surface._solve(support, x, u)
    assert len(dots) == 52 and det == 1
    assert out == [([3, *[0] * 8], [-1] * 8), ([0] * 9, [1] * 8)]
    # An A_3 chain of (-2)-classes, where the Gram entries off the diagonal
    # differ: n solves G n = det (x.b)_b.
    chain = [(0, 1, -1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)]
    x = (3, 2, 1, 0, -1)
    det, [(p, n)] = surface._solve(chain, x)
    assert det == 4
    for c in chain:
        assert sum(nb * surface._dot(b, c) for nb, b in zip(n, chain)) == \
            det * surface._dot(x, c)
    assert p == [det * v - sum(nb * b[i] for nb, b in zip(n, chain))
                 for i, v in enumerate(x)]
