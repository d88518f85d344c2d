from fractions import Fraction

import pytest

from okounkov import invariants, polytope, registry, surface, toric
from okounkov.invariants import (
    bounds_sandwich,
    check_eps_eq_xi,
    conditional_non_effectivity,
    containment_bound,
    homogeneous_eps,
    irrationality_certificate,
    is_standard_form,
    nagata_check,
    nakayama_mu,
    nef_boundary_check,
    origin_criterion,
    positive_xi_criterion,
    seshadri_eps,
    slice_volume_check,
    xi_constant,
)
from okounkov.numbers import RadVal
from okounkov.polytope import contains, hull, inverted_slice_simplex
from okounkov.surface import E, H, PicClass, SurfaceModel

F = Fraction


@pytest.fixture(scope="module")
def setups():
    return {name: registry.invariant_setup(name)
            for name in registry.INVARIANT_FIXTURES}


# -- Seshadri thresholds ---------------------------------------------

def test_seshadri_values():
    assert seshadri_eps(SurfaceModel(1), H(1), [1]) == RadVal.rational(1)
    assert seshadri_eps(SurfaceModel(2), H(2), [1, 1]) == \
        RadVal.rational(F(1, 2))
    assert seshadri_eps(SurfaceModel(2), H(2), [2, 1]) == \
        RadVal.rational(F(1, 3))
    assert seshadri_eps(SurfaceModel(4), H(4), [1] * 4) == \
        RadVal.rational(F(1, 2))


def test_seshadri_rational_weights_scale():
    m2 = SurfaceModel(2)
    L = PicClass(3, (1, 1))
    for w in ([1, 1], [2, 1]):
        half = [F(x, 2) for x in w]
        assert seshadri_eps(m2, L, half) == seshadri_eps(m2, L, w) * 2
    for bad in ([1, 0], [1, -1], [1]):
        with pytest.raises(ValueError, match="positive rationals"):
            seshadri_eps(m2, L, bad)


def test_seshadri_rejects_non_nef():
    with pytest.raises(ValueError, match="nef"):
        seshadri_eps(SurfaceModel(1), PicClass(1, (-2,)), [1])


# -- Nakayama thresholds ---------------------------------------------

def test_nakayama_values():
    assert nakayama_mu(SurfaceModel(1), H(1)) == RadVal.rational(1)
    assert nakayama_mu(SurfaceModel(2), H(2)) == RadVal.rational(1)
    assert nakayama_mu(SurfaceModel(4), H(4)) == RadVal.rational(F(1, 2))
    # Shifted class: the walk starts inside the negative cone region.
    assert nakayama_mu(SurfaceModel(1), PicClass(1, (-2,))) == \
        RadVal.rational(3)


def test_nakayama_wall_crossing():
    # 3H on three points crosses the wall at t = 3/2 where the three lines
    # through point pairs enter the support; the walk continues to t = 2.
    model = SurfaceModel(3)
    mu = nakayama_mu(model, PicClass(3, (0, 0, 0)))
    assert mu == RadVal.rational(2)
    # independent bisection bracket on the same threshold
    from okounkov import surface

    lo, hi = F(0), F(3)
    T = PicClass(0, (-1, -1, -1))  # E1 + E2 + E3
    for _ in range(40):
        mid = (lo + hi) / 2
        if surface.vol(model, PicClass(3, (0, 0, 0)) - T.scale(mid)) > 0:
            lo = mid
        else:
            hi = mid
    assert RadVal.rational(lo) <= mu <= RadVal.rational(hi)
    # Against fewer points: 3H - t E_1 is big until t = 3, and so is
    # 3H - t (E_2 + E_3), which reaches 3 times the line through them.
    assert nakayama_mu(model, PicClass(3, (0, 0, 0)), [0]) == \
        RadVal.rational(3)
    assert nakayama_mu(model, PicClass(3, (0, 0, 0)), [1, 2]) == \
        RadVal.rational(3)


def test_nakayama_rejects_non_big():
    with pytest.raises(ValueError, match="big"):
        nakayama_mu(SurfaceModel(2), PicClass(1, (1, 1)))


def test_one_support_loop_per_nakayama_and_xi_criterion(monkeypatch, setups):
    from okounkov import surface

    calls = []
    real = surface._decompose

    def counted(model, D):
        calls.append(D)
        return real(model, D)

    monkeypatch.setattr(surface, "_decompose", counted)
    # The walk decides a nef class off its first scan, with no loop.
    nakayama_mu(SurfaceModel(3), PicClass(3, (0, 0, 0)))
    assert len(calls) == 0
    nakayama_mu(SurfaceModel(3), PicClass(3, (2, 2, 0)))
    assert len(calls) == 1
    calls.clear()
    s = setups["bl2p2"]
    positive_xi_criterion(SurfaceModel(s.s), s.L, list(range(s.r)))
    assert len(calls) == 1
    calls.clear()
    # One loop for D, then one support solve per chamber the walk reaches:
    # the empty support, H-E1-E2 and two singular pairs.
    solved = []
    real_solve = surface._solve
    monkeypatch.setattr(surface, "_solve",
                        lambda *rows: solved.append(rows[0]) or real_solve(*rows))
    surface.surface_body_outer(SurfaceModel(2), H(2), [0, 1], F(1, 2), 1)
    assert len(calls) == 1 and len(solved) == 4


def test_eps_equals_xi_on_three_point_surface_body():
    # Bl3 2H at all three points: the exact body has 14 vertices and volume
    # 4/5 in R^6, and its xi equals the curve-side Seshadri constant.
    model, L = SurfaceModel(3), PicClass(2, (0, 0, 0))
    body = surface.surface_body_outer(model, L, [0, 1, 2], F(1, 2), F(2))
    assert len(body.vertices) == 14
    assert polytope.volume(body) == RadVal.rational(F(4, 5))
    for w in ([1, 1, 1], [2, 1, 1], [3, 2, 1]):
        assert check_eps_eq_xi(model, L, w, body).all_pass(), w


def test_curve_scans_make_no_fraction_intersections(monkeypatch):
    # The support solver, the support loop and the chamber walk over the
    # 240 curves of Bl_8 all run on integer rows: no Fraction intersection.
    calls, solved = [], []
    real_intersect, real_solve = surface.intersect, surface._solve

    def counted(a, b):
        calls.append(1)
        return real_intersect(a, b)

    def solve(support, *rows):
        solved.append(len(support))
        return real_solve(support, *rows)

    monkeypatch.setattr(surface, "intersect", counted)
    monkeypatch.setattr(invariants, "intersect", counted)
    monkeypatch.setattr(surface, "_solve", solve)
    model = SurfaceModel(8)
    assert surface._decompose(model, PicClass(3, (1,) * 8)) is not None
    assert solved == []
    # 3H - 2E_1 - 2E_2 has the line through the two points as support.
    Z = surface._decompose(model, PicClass(3, (2, 2) + (0,) * 6))
    assert [a for _, a in Z.negative_support] == [1] and solved == [1]

    mu = nakayama_mu(model, H(8).scale(3))
    assert calls == []
    assert len(solved) > 2 and max(solved) <= 8
    assert mu == RadVal.rational(F(17, 16))


def test_sandwich_rejects_classes_not_pulled_back():
    # bounds_sandwich assumes L = d*H; anything else is an input error,
    # not a failed check (Bl_2) or an unrepresentable radical (Bl_8).
    with pytest.raises(ValueError, match="pulled back from P\\^2"):
        bounds_sandwich(SurfaceModel(2), PicClass(3, (1, 0)))
    with pytest.raises(ValueError, match="pulled back from P\\^2"):
        bounds_sandwich(SurfaceModel(8), PicClass(6, (2,) * 7 + (1,)))


# -- xi ---------------------------------------------------------------

def test_xi_values(setups):
    assert xi_constant(setups["bl1p2"].body, [1], 2, 1) == 1
    assert xi_constant(setups["bl2p2"].body, [1, 1], 2, 2) == F(1, 2)
    assert xi_constant(setups["bl2p2"].body, [2, 1], 2, 2) == F(1, 3)
    assert xi_constant(setups["bl2p2"].body, [1, 2], 2, 2) == F(1, 3)


def test_xi_needs_r_positive_weights(setups):
    body = setups["bl2p2"].body
    for bad in ([0, 0], [1, 0], [1, -1], [1], [1, 1, 1]):
        with pytest.raises(ValueError, match="r positive rationals"):
            xi_constant(body, bad, 2, 2)


def test_xi_makes_no_hull(setups, monkeypatch):
    # The simplex generators are the block steps themselves; xi hulls
    # nothing to get them back.
    calls = []
    real = polytope.hull
    monkeypatch.setattr(polytope, "hull",
                        lambda *args: calls.append(args) or real(*args))
    assert xi_constant(setups["bl2p2"].body, [2, 1], 2, 2) == F(1, 3)
    assert calls == []


def _ref_steps(sizes, n, r):
    # The index loops the simplex and the containment bound were first
    # written with: the k-th step puts sizes[i] on coordinates
    # i n + 1 .. i n + k of the blocks i it spans.
    pts = []
    for k in range(1, n + 1):
        p = [F(0)] * (n * r)
        for i, x in sizes:
            for j in range(k):
                p[i * n + j] = x
        pts.append(tuple(p))
    return pts


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_steps_match_index_loops(n, r):
    origin = (F(0),) * (n * r)
    for xs in ([F(i + 1, 2) for i in range(r)], [F(0)] * (r - 1) + [F(3)]):
        ref = hull([origin] + _ref_steps(list(enumerate(xs)), n, r), n * r)
        assert inverted_slice_simplex(xs, n).vertices == ref.vertices
    mus = [F(1, 3), F(2), F(5, 4)][:r]
    size = r * max(mus)
    pts = [origin]
    for i in range(r):
        pts += _ref_steps([(i, size)], n, r)
    ref = hull(pts, n * r)
    assert containment_bound(mus, n, r).vertices == ref.vertices
    assert len(ref.vertices) == n * r + 1


def test_xi_without_origin_is_zero(setups):
    assert xi_constant(setups["bl1p2-shifted"].body, [1], 2, 1) == 0
    shifted = hull([(1, 0), (2, 0), (2, 1)], 2)
    assert xi_constant(shifted, [1], 2, 1) == 0


def test_xi_monotone_under_body_inclusion(setups):
    body = setups["bl1p2"].body
    bigger = polytope.minkowski_sum(body, body)
    assert contains(bigger, body)
    assert xi_constant(bigger, [1], 2, 1) >= xi_constant(body, [1], 2, 1)


def test_eps_eq_xi(setups):
    m1, m2 = SurfaceModel(1), SurfaceModel(2)
    combos = [
        (m1, H(1), [1], setups["bl1p2"].body),
        (m2, H(2), [1, 1], setups["bl2p2"].body),
        (m2, H(2), [2, 1], setups["bl2p2"].body),
        (m2, H(2), [1, 2], setups["bl2p2"].body),
    ]
    for model, L, w, body in combos:
        rep = check_eps_eq_xi(model, L, w, body)
        assert rep.all_pass(), rep.checks


# -- slice volumes ----------------------------------------------------

def test_slice_volume_identity(setups):
    for name in ("bl1p2", "bl2p2"):
        s = setups[name]
        rep = slice_volume_check(s.body, [1] * s.r, s.n, s.r, s.vol_x)
        assert rep.all_pass(), rep.checks
        assert rep.checks[0]["name"] == "slice-volume-identity"


def test_slice_volume_bound_nonuniform(setups):
    s = setups["bl2p2"]
    for w in ([2, 1], [1, 2], [3, 2]):
        rep = slice_volume_check(s.body, w, s.n, s.r, s.vol_x)
        assert rep.all_pass(), (w, rep.checks)
        assert rep.checks[0]["name"] == "slice-volume-upper-bound"


# -- sandwich ---------------------------------------------------------

def test_sandwich_one_point():
    rep = bounds_sandwich(SurfaceModel(1), H(1))
    assert rep.epsilon == RadVal.rational(1)
    assert rep.mu == RadVal.rational(1)
    assert rep.all_pass(), rep.checks
    # both bounds tight: L^2 = r = 1
    assert rep.lower_bound == rep.epsilon == rep.upper_bound


def test_sandwich_two_points():
    rep = bounds_sandwich(SurfaceModel(2), H(2))
    assert rep.epsilon == RadVal.rational(F(1, 2))
    assert rep.mu == RadVal.rational(1)
    assert rep.upper_bound == RadVal.rational(F(1, 2))  # tight
    assert rep.all_pass(), rep.checks


def test_sandwich_four_points():
    rep = bounds_sandwich(SurfaceModel(4), H(4))
    assert rep.epsilon == RadVal.rational(F(1, 2))
    assert rep.mu == RadVal.rational(F(1, 2))
    assert rep.all_pass(), rep.checks


def test_sandwich_conic_class_two_points():
    rep = bounds_sandwich(SurfaceModel(2), PicClass(2, (0, 0)))
    assert rep.epsilon == RadVal.rational(1)
    assert rep.mu == RadVal.rational(2)
    assert rep.upper_bound == RadVal.rational(1)  # tight
    assert rep.lower_bound == RadVal(F(-1), 2, F(2))  # 2 - sqrt(2)
    assert rep.all_pass(), rep.checks


def test_sandwich_anticanonical_degree_three_points():
    rep = bounds_sandwich(SurfaceModel(3), PicClass(3, (0, 0, 0)))
    assert rep.epsilon == RadVal.rational(F(3, 2))
    assert rep.mu == RadVal.rational(2)
    assert rep.upper_bound == RadVal.rational(F(3, 2))  # tight
    assert rep.all_pass(), rep.checks


@pytest.mark.parametrize("s", range(1, 9))
@pytest.mark.parametrize("d", range(1, 7))
def test_sandwich_reads_seshadri_and_nakayama_off_one_walk(s, d):
    model, L = SurfaceModel(s), H(s).scale(d)
    rep = bounds_sandwich(model, L)
    eps, mu = seshadri_eps(model, L, [1] * s), nakayama_mu(model, L)
    assert (rep.epsilon, rep.mu) == (eps, mu)
    assert (rep.epsilon.to_json(), rep.mu.to_json()) == \
        (eps.to_json(), mu.to_json())


@pytest.mark.parametrize("s", [1, 3, 8])
def test_sandwich_rejects_zero_and_negative_degree(s):
    # 0*H is nef with eps = 0 but not big; -H is not even psef.
    with pytest.raises(ValueError,
                       match="^Nakayama constant defined for big classes$"):
        bounds_sandwich(SurfaceModel(s), H(s).scale(0))
    with pytest.raises(ValueError, match="^Seshadri constant defined here "
                                         "for nef classes$"):
        bounds_sandwich(SurfaceModel(s), H(s).scale(-1))


def test_chambers_of_the_cubic_on_three_points():
    # 3H - t(E_1 + E_2 + E_3): vol = 9 - 3t^2 until the three lines through
    # two of the points enter at t = 3/2, then 9 (2 - t)^2; the walk ends at
    # t = 2, where the ray leaves the big cone.
    model, w = SurfaceModel(3), [1, 1, 1]
    assert list(surface.chambers(model, H(3).scale(3), w)) == [
        (0, F(3, 2), 0, (3, 0, -1)), (F(3, 2), 2, 3, (4, -4, 1))]
    assert list(surface.chambers(model, H(3).scale(-1), w)) == []
    # H - E_1 meets the line through p_1, p_2 in 0: the only chamber of
    # Bl_2 along E_1 + E_2 is the point t = 0, with P(t)^2 = -2t - 2t^2.
    assert list(surface.chambers(SurfaceModel(2), H(2) - E(2, 0), [1, 1])) \
        == [(0, 0, 0, (0, -1, -1))]


def test_user_list_nef_class_outside_its_cone():
    # -K on Bl_9 and 4H - sum E_i on Bl_10 are nef against the list {E_i}
    # but outside its cone: the Seshadri constant is still the nef
    # threshold, min L.C / W.C over the rows H - E_i, while the Nakayama
    # constant, like zariski, takes the cone's psef verdict.
    for s, d, eps in [(9, 3, 2), (10, 4, 3)]:
        model = SurfaceModel(s, mode="user",
                             neg_curves=tuple(E(s, i) for i in range(s)))
        L = PicClass(d, (1,) * s)
        assert surface.is_nef(model, L) and not surface.is_psef(model, L)
        assert seshadri_eps(model, L, [1] * s) == RadVal.rational(eps)
        with pytest.raises(ValueError, match="^Nakayama constant defined "
                                             "for big classes$"):
            nakayama_mu(model, L)


def test_one_exact_root_per_walk(monkeypatch):
    # The walk ends with the chamber where the volume is <= 0 at its end, a
    # rational test; only that chamber builds a RadVal root.
    calls = []
    real = invariants._first_root_after

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, "_first_root_after", counted)
    assert nakayama_mu(SurfaceModel(8), H(8).scale(3)) == \
        RadVal.rational(F(17, 16))
    assert len(calls) == 1


def test_seshadri_scans_nef_class_once(monkeypatch):
    # A nef class decides nef-ness and its first chamber off one scan of L,
    # plus the scan of W; the support loop does not scan L again.
    calls = []
    real = surface._dots
    monkeypatch.setattr(surface, "_dots",
                        lambda rows, x: calls.append(x) or real(rows, x))
    L = PicClass(3, (1,) * 8)  # -K, nef on Bl_8
    assert seshadri_eps(SurfaceModel(8), L, [1] * 8) == \
        RadVal.rational(F(1, 17))
    assert len(calls) == 2


# -- containment upper bound -----------------------------------------

def test_containment_bound(setups):
    for name in registry.INVARIANT_FIXTURES:
        s = setups[name]
        model = SurfaceModel(s.s)
        mus = [nakayama_mu(model, s.L, points=[i]).as_rational()
               for i in range(s.r)]
        bound = containment_bound(mus, s.n, s.r)
        assert contains(bound, s.body), name


# -- base-locus criteria ---------------------------------------------

def test_origin_and_xi_criteria_agree(setups):
    weight_sets = {1: ([1], [2]), 2: ([1, 1], [2, 1], [1, 2], [3, 2])}
    for name in registry.INVARIANT_FIXTURES:
        s = setups[name]
        model = SurfaceModel(s.s)
        points = list(range(s.r))
        origin = (F(0),) * (s.n * s.r)
        has_origin = contains(s.body, origin)
        assert origin_criterion(model, s.L, points) == has_origin, name
        for w in weight_sets[s.r]:
            xi = xi_constant(s.body, w, s.n, s.r)
            assert positive_xi_criterion(model, s.L, points) == (xi > 0), \
                (name, w)


# -- vertex valuativity ----------------------------------------------

def test_simplex_vertices_realized_by_monomial_valuations():
    # For rational a below the threshold, every vertex of the size-a
    # inverted simplex appears as valuation/level for a sampled monomial.
    f = toric.load_fixture("bl1p2")
    fan, D, flags = f["fan"], f["divisors"]["O1"], f["flags"]["inf"]
    for a, m_max in [(F(1, 2), 2), (F(1, 3), 3), (1, 1)]:
        simplex = inverted_slice_simplex([a], 2)
        realized = set()
        for m in range(1, m_max + 1):
            Dm = D.scale(m)
            for u in toric.lattice_points(toric.divisor_polytope(fan, Dm)):
                val = toric.monomial_valuation(fan, Dm, flags, u, level=m)
                realized.add(tuple(x / m for x in val.entries))
        for v in simplex.vertices:
            assert v in realized, (a, v)


# -- arithmetic certificates -----------------------------------------

def test_nagata():
    assert nagata_check(9, 3, [1] * 9)
    assert not nagata_check(10, 3, [1] * 10)
    assert nagata_check(5, 1, [0] * 5)


def test_nagata_homogeneous():
    for k in (1, 2, 5):
        assert nagata_check(9, 3 * k, [k] * 9)
        assert not nagata_check(10, 3 * k, [k] * 10)


def test_standard_form():
    assert is_standard_form(3, [1, 1, 1])
    assert not is_standard_form(2, [1, 1, 1])
    assert is_standard_form(5, [2, 2, 1, 1])
    assert not is_standard_form(5, [1, 2, 2])  # not sorted descending


def test_conditional_non_effectivity():
    out = conditional_non_effectivity(3, [1] * 10)
    assert out["verdict"] == "not-effective"
    assert out["assumption"].startswith("conditional")
    assert conditional_non_effectivity(2, [1, 1, 1])["verdict"] == "unknown"
    assert conditional_non_effectivity(5, [1, 1, 1])["verdict"] == "unknown"


def test_irrationality_certificate():
    out = irrationality_certificate(10, 13, [4] * 10)
    assert out["ok"] and out["eps"] == RadVal.rational(3)
    assert out["irrational"] is False
    out = irrationality_certificate(10, 10, [3] * 10)
    assert out["ok"] and out["eps"] == RadVal.sqrt(10)
    assert out["irrational"] is True
    out = irrationality_certificate(9, 13, [4] * 9)
    assert not out["ok"]
    with pytest.raises(ValueError):
        irrationality_certificate(5, 4, [1] * 5)


def test_certificates_carry_assumption_tags():
    for out in [irrationality_certificate(10, 13, [4] * 10),
                homogeneous_eps(12, 4, 1), homogeneous_eps(12, 5, 1)]:
        assert "assumption" in out and out["assumption"].startswith(
            "conditional"
        )


def test_homogeneous_eps():
    out = homogeneous_eps(12, 4, 1)
    assert out["branch"] == 1 and out["eps"] == RadVal.rational(2)
    out = homogeneous_eps(12, 5, 1)
    assert out["branch"] == 2 and out["eps_lower"] == 3
    # boundary c/d = 4/(s+4): sqrt(d^2 - s c^2) must equal d - 2c
    s, d, c = 12, 4, 1
    assert F(c, d) == F(4, s + 4)
    assert RadVal.sqrt(d * d - s * c * c) == RadVal.rational(d - 2 * c)
    with pytest.raises(ValueError):
        homogeneous_eps(5, 4, 1)


def test_nef_boundary():
    out = nef_boundary_check(3, [1] * 9)
    assert out["nef"] and out["on_boundary"]
    assert out["conditions"] == [True, True, True, True]
    out = nef_boundary_check(4, [2, 2, 2])
    assert out["nef"] and not out["on_boundary"]
    assert "note" in out
    with pytest.raises(ValueError, match="sorted"):
        nef_boundary_check(5, [1, 2])


def test_report_json():
    rep = bounds_sandwich(SurfaceModel(2), H(2))
    doc = rep.to_json()
    assert doc["assumption"] == "unconditional"
    assert doc["epsilon"] == {"coeff": "1/2", "radicand": "1"}
    assert len(doc["bounds"]) == 2


@pytest.mark.parametrize("points", [[3], [-1], [0, 0], [], 3, ["0"], [0.5],
                                    [True]])
def test_bad_flag_points_refused_before_work(monkeypatch, points):
    # Input errors, raised before any support loop: an index past s, a
    # negative index (list indexing would wrap it to the last point), a
    # repeated point (E_i shifted twice), no point, a non-list, and a bool
    # (index() would read True as point 1).
    def no_work(*args):
        raise AssertionError("the flag check ran after the support loop")

    monkeypatch.setattr(surface, "_decompose", no_work)
    model = SurfaceModel(3)
    D = PicClass(3, (-1, 0, 0))  # 3H + E_1 is not nef: every call needs a loop
    calls = [
        lambda pts: surface.surface_body_outer(model, D, pts, F(1, 2), F(1)),
        lambda pts: nakayama_mu(model, D, pts),
        lambda pts: origin_criterion(model, D, pts),
        lambda pts: positive_xi_criterion(model, D, pts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="flag points must be"):
            call(points)
        with pytest.raises(AssertionError, match="after the support loop"):
            call([0, 2])
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        surface.surface_body_outer(model, D, [0], F(1, 2), F(-1))

