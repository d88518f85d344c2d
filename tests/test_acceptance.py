"""End-to-end acceptance gate.

For each numbered criterion below, the summary hook in ``conftest.py``
prints exactly one ``CRITERION k: PASS`` / ``FAIL`` line at the end of the
run, so the suite output doubles as a checklist.  Every comparison is
exact; there are no tolerances anywhere.
"""
import random
from fractions import Fraction

from okounkov import invariants, linalg, polytope, registry, surface, toric
from okounkov.invariants import (
    bounds_sandwich,
    check_eps_eq_xi,
    homogeneous_eps,
    irrationality_certificate,
    nagata_check,
    nef_boundary_check,
    origin_criterion,
    positive_xi_criterion,
    seshadri_eps,
    slice_volume_check,
    xi_constant,
)
from okounkov.numbers import RadVal
from okounkov.polytope import contains, hull
from okounkov.surface import H, PicClass, SurfaceModel
from okounkov.toric import extended_body_toric, semigroup_body_approx
from reference import dot

F = Fraction


def test_criterion_1_toric_bodies_exact():
    p2 = toric.load_fixture("p2")
    body = extended_body_toric(p2["fan"], p2["divisors"]["O1"],
                               p2["flags"]["pt"])
    assert set(body.vertices) == {(0, 0), (1, 0), (0, 1)}
    approx = semigroup_body_approx(p2["fan"], p2["divisors"]["O1"],
                                   p2["flags"]["pt"], 1)
    assert set(approx.vertices) == set(body.vertices)

    bl1 = toric.load_fixture("bl1p2")
    body1 = extended_body_toric(bl1["fan"], bl1["divisors"]["O1"],
                                bl1["flags"]["inf"])
    assert set(body1.vertices) == {(0, 0), (1, 0), (1, 1)}
    approx1 = semigroup_body_approx(bl1["fan"], bl1["divisors"]["O1"],
                                    bl1["flags"]["inf"], 3)
    assert set(approx1.vertices) == set(body1.vertices)


def test_criterion_2_seshadri_equals_simplex_constant():
    s1 = registry.invariant_setup("bl1p2")
    s2 = registry.invariant_setup("bl2p2")
    combos = [
        (SurfaceModel(1), H(1), [1], s1.body, F(1)),
        (SurfaceModel(2), H(2), [1, 1], s2.body, F(1, 2)),
        (SurfaceModel(2), H(2), [2, 1], s2.body, F(1, 3)),
        (SurfaceModel(2), H(2), [1, 2], s2.body, F(1, 3)),
    ]
    assert len(combos) >= 4
    for model, L, w, body, expect in combos:
        eps = seshadri_eps(model, L, w)
        xi = xi_constant(body, w, 2, len(w))
        assert eps == RadVal.rational(expect)
        assert xi == expect
        rep = check_eps_eq_xi(model, L, w, body)
        assert rep.all_pass(), rep.checks


def test_criterion_3_slice_volume_identity_and_bound():
    for name, expect in (("bl1p2", F(1, 2)), ("bl2p2", F(1, 2))):
        s = registry.invariant_setup(name)
        spec = polytope.SliceSpec(s.n, s.r, (F(1),) * s.r)
        sl, scale = polytope.intersect_subspace(s.body, spec)
        v = polytope.volume(sl) * scale
        assert v == RadVal.rational(expect)
        rep = slice_volume_check(s.body, [1] * s.r, s.n, s.r, s.vol_x)
        assert rep.all_pass(), rep.checks
    s2 = registry.invariant_setup("bl2p2")
    nonuniform = ([2, 1], [1, 2], [3, 2])
    assert len(nonuniform) >= 3
    for w in nonuniform:
        rep = slice_volume_check(s2.body, w, s2.n, s2.r, s2.vol_x)
        assert rep.checks[0]["name"] == "slice-volume-upper-bound"
        assert rep.all_pass(), (w, rep.checks)


def test_criterion_4_threshold_sandwich():
    rep1 = bounds_sandwich(SurfaceModel(1), H(1))
    assert (rep1.mu, rep1.epsilon) == \
        (RadVal.rational(1), RadVal.rational(1))
    assert rep1.all_pass(), rep1.checks
    # equivalence clause at one point: both thresholds sit exactly at
    # sqrt(L^2 / r), so tightness on one side forces it on the other.
    target = RadVal.sqrt(F(1, 1))
    assert (rep1.epsilon == target) == (rep1.mu == target)
    assert rep1.epsilon == target

    rep2 = bounds_sandwich(SurfaceModel(2), H(2))
    assert (rep2.mu, rep2.epsilon) == \
        (RadVal.rational(1), RadVal.rational(F(1, 2)))
    assert rep2.all_pass(), rep2.checks
    assert rep2.upper_bound == rep2.epsilon  # upper bound tight


def test_criterion_5_zariski_invariants_on_random_classes():
    for s in range(1, 9):
        model = SurfaceModel(s)
        gens = model.psef_generators()
        rng = random.Random(2026 + s)
        for _ in range(50):
            D = PicClass(0, (0,) * s)
            for g in rng.sample(gens, min(5, len(gens))):
                D = D + g.scale(F(rng.randrange(0, 5), 2))
            assert surface.is_psef(model, D)
            Z = surface.zariski(model, D)
            assert surface.check_zariski(model, D, Z) == [], (s, D)


def test_criterion_6_slice_lemma_and_projections():
    # The cut-and-twist identity concerns the first flag, so the two-point
    # fixture enters through each of its single-flag specs; its two-flag
    # body is covered by the projection identity below.
    cases = [
        ("p2", "O1", "pt"),
        ("bl1p2", "O1", "inf"),
        ("bl2p2", "H-E2", "inf1"),
        ("bl2p2", "H-E2", "inf1b"),
        ("bl3p2", "O1", "inf"),
        ("p1xp1", "O11", "pt"),
    ]
    for name, divname, flagname in cases:
        for a in (F(0), F(1, 4), F(1, 2)):
            _assert_slice_cut_matches_twist(name, divname, flagname, a)

    # coordinate projections of the two-flag body recover the single-flag
    # bodies
    f = toric.load_fixture("bl2p2")
    D = f["divisors"]["H-E2"]
    both = extended_body_toric(f["fan"], D, f["flags"]["inf2"])
    pr1 = polytope.affine_image(both, [[1, 0, 0, 0], [0, 1, 0, 0]])
    pr2 = polytope.affine_image(both, [[0, 0, 1, 0], [0, 0, 0, 1]])
    one = extended_body_toric(f["fan"], D, f["flags"]["inf1"])
    two = extended_body_toric(f["fan"], D, f["flags"]["inf1b"])
    assert set(pr1.vertices) == set(one.vertices)
    assert set(pr2.vertices) == set(two.vertices)


def _assert_slice_cut_matches_twist(fixture, divname, flagname, a):
    """Cutting the body at first coordinate >= a must equal the rescaled,
    translated body of the class twisted down along the first flag divisor."""
    f = toric.load_fixture(fixture)
    fan = f["fan"]
    D = f["divisors"][divname]
    flags = f["flags"][flagname]
    body = extended_body_toric(fan, D, flags)
    dim = body.ambient_dim

    k = a.denominator
    flag = flags.flags[0]
    base = [k * F(c) for c in D.coeffs]
    base[flag[0]] -= k * a
    rows = [list(map(F, fan.rays[i])) for i in flag]
    rhs = [-base[i] for i in flag]
    u = linalg.solve(rows, rhs)
    twisted = tuple(c + dot(u, tuple(map(F, ray)))
                    for c, ray in zip(base, fan.rays))
    big = extended_body_toric(fan, toric.ToricDivisor(twisted), flags)

    halfs, eqs = body.halfspaces()
    cut_normal = tuple([F(-1)] + [F(0)] * (dim - 1))
    cut_pts = polytope._vertices_from_constraints(
        halfs + [(cut_normal, -a)], eqs, dim
    )
    lhs = hull(cut_pts, dim)
    scale = [[F(1, k) if i == j else F(0) for j in range(dim)]
             for i in range(dim)]
    shift = tuple([a] + [F(0)] * (dim - 1))
    rhs_body = polytope.affine_image(big, scale, shift)
    assert set(lhs.vertices) == set(rhs_body.vertices), (fixture, a)


def test_criterion_7_arithmetic_certificates():
    out = irrationality_certificate(10, 13, [4] * 10)
    assert out["ok"] and out["eps"] == RadVal.rational(3)
    assert out["irrational"] is False
    out = irrationality_certificate(10, 10, [3] * 10)
    assert out["ok"] and out["eps"] == RadVal.sqrt(10)
    assert out["irrational"] is True
    out = irrationality_certificate(9, 13, [4] * 9)
    assert out["ok"] is False

    nb = nef_boundary_check(3, [1] * 9)
    assert nb["nef"] and nb["on_boundary"]
    assert nb["conditions"] == [True, True, True, True]

    # equality case of the multi-point degree bound
    assert nagata_check(9, 3, [1] * 9)
    assert 9 * 3 * 3 == sum([1] * 9) ** 2


def test_criterion_8_base_locus_criteria_agree():
    weight_sets = {1: ([1], [2]), 2: ([1, 1], [2, 1], [1, 2], [3, 2])}
    for name in registry.INVARIANT_FIXTURES:
        s = registry.invariant_setup(name)
        model = SurfaceModel(s.s)
        points = list(range(s.r))
        origin = (F(0),) * (s.n * s.r)
        assert origin_criterion(model, s.L, points) == \
            contains(s.body, origin), name
        for w in weight_sets[s.r]:
            xi = xi_constant(s.body, w, s.n, s.r)
            assert positive_xi_criterion(model, s.L, points) == (xi > 0), \
                (name, w)


def test_many_point_paths_emit_conditional_tags():
    # Values at >= 9 general points are never claimed unconditionally:
    # every such code path must carry an explicit assumption tag.
    outs = [
        irrationality_certificate(10, 13, [4] * 10),
        irrationality_certificate(10, 10, [3] * 10),
        homogeneous_eps(12, 4, 1),
        homogeneous_eps(12, 5, 1),
        invariants.conditional_non_effectivity(3, [1] * 10),
    ]
    for out in outs:
        assert out["assumption"].startswith("conditional"), out
