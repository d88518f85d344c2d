import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from okounkov import invariants, polytope, toric
from okounkov.polytope import Polytope, contains, minkowski_sum
from okounkov.surface import PicClass, SurfaceModel
from okounkov.toric import (
    Fan,
    ToricDivisor,
    ToricFlagSpec,
    divisor_polytope,
    extended_body_toric,
    flag_matrix,
    lattice_points,
    monomial_valuation,
    semigroup_body_approx,
)
from reference import dot

F = Fraction

FIXTURE_NAMES = ("p2", "bl1p2", "bl2p2", "bl3p2", "p1xp1")


def fx(name):
    return toric.load_fixture(name)


def verts(P):
    return set(P.vertices)


# -- fan validation ---------------------------------------------------

def test_all_fixture_fans_load():
    for name in FIXTURE_NAMES:
        fan = fx(name)["fan"]
        assert fan.dim == 2


def test_non_smooth_fan_rejected():
    with pytest.raises(ValueError, match="non-smooth"):
        Fan(2, ((1, 0), (1, 2), (-1, -1)),
            ((0, 1), (1, 2), (2, 0)))


def test_incomplete_fan_rejected():
    with pytest.raises(ValueError, match="not complete"):
        Fan(2, ((1, 0), (0, 1)), ((0, 1),))


def test_same_side_cones_rejected():
    # Every facet is paired, but cone(e1, e1+e2) and cone(e2, e1) both lie
    # above the ray e1.
    with pytest.raises(ValueError, match="same side"):
        Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 2), (2, 1), (1, 0)))


def test_doubly_wound_fan_rejected():
    # Unimodular consecutive cones with paired facets on opposite sides,
    # winding twice around the origin (total angle 4 pi).
    rays = ((1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (0, 1),
            (-1, 1), (1, -2), (-1, 3), (0, -1))
    cones = tuple((k, (k + 1) % 12) for k in range(12))
    with pytest.raises(ValueError, match="cover a point 2 times"):
        Fan(2, rays, cones)


def test_unused_ray_rejected():
    with pytest.raises(ValueError, match="appear in some max cone"):
        Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
            ((0, 1), (1, 2), (2, 0)))


def test_cone_index_outside_rays_rejected():
    # A negative index would wrap round to the last ray, 9 names no ray.
    rays = ((1, 0), (0, 1), (1, 1), (-1, -1))
    for cones in (((0, 2), (2, 1), (1, -1), (-1, 0)),
                  ((0, 9), (2, 1), (1, 3), (3, 0))):
        with pytest.raises(ValueError, match=r"names a ray outside 0\.\.3"):
            Fan(2, rays, cones)


@pytest.mark.parametrize("rays, cones, message", [
    (((1.5, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)),
     "ray entry 1.5 is not an integer"),
    (((True, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)),
     "ray entry True is not an integer"),
    (((1, 0), (0, 1), (-1, -1)), ((0, 1.0), (1, 2), (2, 0)),
     "cone index 1.0 is not an integer"),
])
def test_fan_refuses_a_non_integer_entry(rays, cones, message):
    # Read as 1, the ray entry 1.5 would give the plane's fan.
    with pytest.raises(ValueError, match=message):
        Fan(2, rays, cones)


@pytest.mark.parametrize("flags, message", [
    (((0.9, True),), "flag index 0.9 is not an integer"),
    (((0, True),), "flag index True is not an integer"),
])
def test_flags_refuse_a_non_integer_index(flags, message):
    # Read as integers, (0.9, True) would be the cone (0, 1).
    with pytest.raises(ValueError, match=message):
        ToricFlagSpec(flags)


_BL1P2_FAN = {"dim": 2, "rays": [[1, 0], [0, 1], [1, 1], [-1, -1]],
              "max_cones": [[0, 2], [2, 1], [1, 3], [3, 0]]}


@pytest.mark.parametrize("cls, obj, message", [
    (Fan, {**_BL1P2_FAN, "rays": 5},
     "fan key 'rays' must be a list of integer lists, got 5"),
    (Fan, {**_BL1P2_FAN, "dim": 2.5}, "fan key 'dim' must be an integer, "
     "got 2.5"),
    (Fan, {**_BL1P2_FAN, "dim": True}, "fan key 'dim' must be an integer, "
     "got True"),
    (Fan, {**_BL1P2_FAN, "max_cones": [[0, 2.0]]},
     "fan key 'max_cones' must be a list of integer lists, got [[0, 2.0]]"),
    (Fan, {"dim": 2, "rays": []}, "fan key 'max_cones' must be a list of "
     "integer lists, got no such key"),
    (Fan, [2], "fan must be an object, got [2]"),
    (ToricDivisor, {"coeffs": 3}, "divisor key 'coeffs' must be a list of "
     "rationals, got 3"),
    (ToricDivisor, {"coeffs": ["0", "x"]}, "divisor key 'coeffs' must be a "
     "list of rationals, got ['0', 'x']"),
    (ToricDivisor, {"coeffs": [True]}, "divisor key 'coeffs' must be a list "
     "of rationals, got [True]"),
    (ToricFlagSpec, {"flags": []}, "flags key 'flags' must be a nonempty "
     "list of integer lists, got []"),
    (ToricFlagSpec, {"flags": [[2, "0"]]}, "flags key 'flags' must be a "
     "nonempty list of integer lists, got [[2, '0']]"),
    # the other readers: H on two points, Bl2, a dimension of 2 and a
    # TypeError were built from these
    (PicClass, {"d": True, "m": ["0", "0"]}, "class key 'd' must be a "
     "rational, got True"),
    (PicClass, {"d": "1", "m": "00"}, "class key 'm' must be a list of "
     "rationals, got '00'"),
    (PicClass, [1], "class must be an object, got [1]"),
    (SurfaceModel, {"s": 2.7}, "surface key 's' must be an integer, got 2.7"),
    (SurfaceModel, {"s": "3"}, "surface key 's' must be an integer, got '3'"),
    (Polytope, {"ambient_dim": 2.9, "vertices": [["0", "0"]]},
     "polytope key 'ambient_dim' must be an integer, got 2.9"),
    (Polytope, {"ambient_dim": 2, "vertices": 5}, "polytope key 'vertices' "
     "must be a list of rational lists, got 5"),
    (ToricDivisor, {"coeffs": ["0"], "name": "O1"}, "divisor key 'name' is "
     "unknown; accepted: coeffs"),
])
def test_from_json_refuses_wrong_shapes(cls, obj, message):
    with pytest.raises(ValueError) as exc:
        cls.from_json(obj)
    assert str(exc.value) == message


def test_flag_sharing_ray_rejected():
    fan = fx("bl2p2")["fan"]
    flags = ToricFlagSpec(((2, 0), (2, 1)))
    with pytest.raises(ValueError, match="share a ray"):
        flags.validate(fan)


def test_flag_not_a_cone_rejected():
    fan = fx("bl1p2")["fan"]
    flags = ToricFlagSpec(((0, 1),))  # cone(e1, e2) was subdivided away
    with pytest.raises(ValueError, match="not a maximal cone"):
        flags.validate(fan)


# -- divisor polytopes ------------------------------------------------

def test_divisor_polytope_p2():
    f = fx("p2")
    P = divisor_polytope(f["fan"], f["divisors"]["O1"])
    assert verts(P) == {(0, 0), (1, 0), (0, 1)}


def test_divisor_polytope_trivial():
    f = fx("p2")
    P = divisor_polytope(f["fan"], f["divisors"]["trivial"])
    assert verts(P) == {(0, 0)}


def test_divisor_polytope_bl1_slack_inequality():
    f = fx("bl1p2")
    P = divisor_polytope(f["fan"], f["divisors"]["O1"])
    assert verts(P) == {(0, 0), (1, 0), (0, 1)}


# -- flag matrices ----------------------------------------------------

def test_flag_matrix_p2_identity():
    f = fx("p2")
    M = flag_matrix(f["fan"], f["flags"]["pt"])
    assert M == [[1, 0], [0, 1]]


def test_flag_matrix_bl1():
    f = fx("bl1p2")
    M = flag_matrix(f["fan"], f["flags"]["inf"])
    assert M == [[1, 1], [1, 0]]


def test_flag_matrix_bl2():
    f = fx("bl2p2")
    M = flag_matrix(f["fan"], f["flags"]["inf2"])
    assert M == [[1, 1], [1, 0], [-1, 0], [0, 1]]


# -- extended bodies --------------------------------------------------

def test_body_p2_o1():
    f = fx("p2")
    body = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["pt"])
    assert verts(body) == {(0, 0), (1, 0), (0, 1)}


def test_body_bl1_o1():
    f = fx("bl1p2")
    body = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["inf"])
    assert verts(body) == {(0, 0), (1, 1), (1, 0)}


def test_body_bl3_o1():
    f = fx("bl3p2")
    body = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["inf"])
    assert verts(body) == {(0, 0), (1, 1), (1, 0)}


def test_body_p1xp1():
    f = fx("p1xp1")
    body = extended_body_toric(f["fan"], f["divisors"]["O11"], f["flags"]["pt"])
    assert verts(body) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_body_rejects_nonzero_flag_ray_coefficient():
    f = fx("bl1p2")
    bad = ToricDivisor((1, 0, 0, 1))
    with pytest.raises(ValueError, match="unrepresented divisor"):
        extended_body_toric(f["fan"], bad, f["flags"]["inf"])


def test_homogeneity():
    for name, div in [("p2", "O1"), ("bl1p2", "O1"), ("bl3p2", "O1"),
                      ("p1xp1", "O11"), ("bl2p2", "H-E2")]:
        f = fx(name)
        flags = next(iter(f["flags"].values()))
        base = extended_body_toric(f["fan"], f["divisors"][div], flags)
        for m in (2, 3):
            scaled = extended_body_toric(
                f["fan"], f["divisors"][div].scale(m), flags
            )
            expect = polytope.affine_image(
                base, [[m if i == j else 0 for j in range(base.ambient_dim)]
                       for i in range(base.ambient_dim)]
            )
            assert verts(scaled) == verts(expect)


def test_superadditivity():
    f = fx("p2")
    b1 = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["pt"])
    b2 = extended_body_toric(f["fan"], f["divisors"]["O2"], f["flags"]["pt"])
    b3 = extended_body_toric(f["fan"], f["divisors"]["O3"], f["flags"]["pt"])
    assert contains(b2, minkowski_sum(b1, b1))
    assert contains(b3, minkowski_sum(b1, b2))
    assert verts(minkowski_sum(b1, b1)) == verts(b2)


def test_projection_identity():
    # Coordinate projection of the two-flag body onto each block equals
    # the single-flag body.
    f = fx("bl2p2")
    D = f["divisors"]["H-E2"]
    both = extended_body_toric(f["fan"], D, f["flags"]["inf2"])
    pr1 = polytope.affine_image(both, [[1, 0, 0, 0], [0, 1, 0, 0]])
    pr2 = polytope.affine_image(both, [[0, 0, 1, 0], [0, 0, 0, 1]])
    one = extended_body_toric(f["fan"], D, f["flags"]["inf1"])
    two = extended_body_toric(f["fan"], D, f["flags"]["inf1b"])
    assert verts(pr1) == verts(one)
    assert verts(pr2) == verts(two)


# -- monomial valuations and sampling ---------------------------------

def test_monomial_valuation_zero():
    f = fx("bl1p2")
    v = monomial_valuation(f["fan"], f["divisors"]["O1"], f["flags"]["inf"],
                           (0, 0))
    assert v.entries == (0, 0)


def test_monomial_valuation_examples():
    f = fx("bl1p2")
    D, flags = f["divisors"]["O1"], f["flags"]["inf"]
    assert monomial_valuation(f["fan"], D, flags, (1, 0)).entries == (1, 1)
    assert monomial_valuation(f["fan"], D, flags, (0, 1)).entries == (1, 0)
    with pytest.raises(ValueError, match="outside"):
        monomial_valuation(f["fan"], D, flags, (5, 5))


@pytest.mark.parametrize("u", [(Fraction(1, 2), 0), (0.5, 0), (1.0, 0),
                               (True, False)])
def test_monomial_valuation_refuses_a_non_lattice_point(u, monkeypatch):
    # Refused before any work: (1/2, 0) lies in P but is the exponent of no
    # section, a float is no exact entry at all, and a bool is no integer.
    f = fx("bl1p2")
    monkeypatch.setattr(toric, "divisor_polytope", None)
    message = re.escape(f"u = {u!r} is not a lattice point")
    with pytest.raises(ValueError, match=message):
        monomial_valuation(f["fan"], f["divisors"]["O1"], f["flags"]["inf"],
                           u)


def test_monomial_valuation_is_the_samplers_graded_point(monkeypatch):
    # Level m means a section of m D at a lattice point of m P: the sampler's
    # graded point, with a divisor nonzero on the flag rays so that m a_v
    # shows.  A point of 2 P outside P is refused at level 1 only.
    f = fx("bl1p2")
    D, flags = f["divisors"]["4H-E"], ToricFlagSpec(((1, 3),))
    graded = []
    monkeypatch.setattr(polytope, "cone_base",
                        lambda pts: graded.extend(pts) or Polytope(2, ()))
    semigroup_body_approx(f["fan"], D, flags, 3)
    P = divisor_polytope(f["fan"], D)
    want = [(monomial_valuation(f["fan"], D, flags, u, level=m).entries, m)
            for m in (1, 2, 3) for u in lattice_points(P, m)]
    assert graded == want and len(want) > 3
    u = max(lattice_points(P, 2))
    assert monomial_valuation(f["fan"], D, flags, u, level=2).level == 2
    with pytest.raises(ValueError, match="outside m P for m = 1"):
        monomial_valuation(f["fan"], D, flags, u)


def test_block_depends_only_on_own_flag():
    # Block i of the valuation vector is a function of (u, sigma_i) alone.
    f = fx("bl2p2")
    D = f["divisors"]["H-E2"]
    for u in lattice_points(divisor_polytope(f["fan"], D)):
        both = monomial_valuation(f["fan"], D, f["flags"]["inf2"], u)
        one = monomial_valuation(f["fan"], D, f["flags"]["inf1"], u)
        two = monomial_valuation(f["fan"], D, f["flags"]["inf1b"], u)
        assert both.entries[:2] == one.entries
        assert both.entries[2:] == two.entries


def test_lattice_points_box_bound_refused_before_scan(monkeypatch):
    big = polytope.hull([(0, 0), (10**9, 0), (0, 10**9)], 2)

    def no_scan(*ranges):
        raise AssertionError("the box guard let the scan start")

    monkeypatch.setattr(toric, "itertools", SimpleNamespace(product=no_scan))
    with pytest.raises(ValueError, match="MAX_LATTICE_BOX = 1000000"):
        lattice_points(big)
    n = toric.MAX_LATTICE_BOX - 1  # an n + 1 point box is just allowed
    with pytest.raises(ValueError, match="MAX_LATTICE_BOX"):
        lattice_points(polytope.hull([(0,), (n + 1,)], 1))
    with pytest.raises(AssertionError, match="let the scan start"):
        lattice_points(polytope.hull([(0,), (n,)], 1))


def test_semigroup_work_bound_refused_before_scan(monkeypatch):
    # Level m of bl1p2 O1 scans the box [0, m]^2, so m_max (m_max + 1)^2
    # bounds the work: 99 * 100^2 is allowed, 100 * 101^2 is not.
    f = fx("bl1p2")
    D, flags = f["divisors"]["O1"], f["flags"]["inf"]

    def no_scan(P, m=1):
        raise AssertionError("the work guard let the scan start")

    monkeypatch.setattr(toric, "lattice_points", no_scan)
    for m_max in (10**9, 100):
        with pytest.raises(ValueError, match="MAX_LATTICE_BOX = 1000000"):
            semigroup_body_approx(f["fan"], D, flags, m_max)
    with pytest.raises(AssertionError, match="let the scan start"):
        semigroup_body_approx(f["fan"], D, flags, 99)


def test_lattice_points_of_multiple_match_scaled_divisor():
    # The scan of m P reads P's own rows; the polytope of m D is m P.
    for name in FIXTURE_NAMES:
        f = fx(name)
        for D in f["divisors"].values():
            P = divisor_polytope(f["fan"], D)
            for m in range(1, 5):
                assert lattice_points(P, m) == lattice_points(
                    divisor_polytope(f["fan"], D.scale(m)))


def test_semigroup_builds_one_divisor_polytope(monkeypatch):
    # Every level reads the lattice points of m P from P itself.
    f = fx("bl1p2")
    D = f["divisors"]["O2"]
    calls = []
    real = toric.divisor_polytope
    monkeypatch.setattr(toric, "divisor_polytope",
                        lambda fan, E: calls.append(E) or real(fan, E))
    semigroup_body_approx(f["fan"], D, f["flags"]["inf"], 4)
    assert calls == [D]


def test_sampler_p2_saturates_at_level_one():
    f = fx("p2")
    body = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["pt"])
    approx = semigroup_body_approx(f["fan"], f["divisors"]["O1"],
                                   f["flags"]["pt"], 1)
    assert verts(approx) == verts(body)


def test_sampler_monotone_and_sandwiched():
    f = fx("bl1p2")
    D, flags = f["divisors"]["O1"], f["flags"]["inf"]
    body = extended_body_toric(f["fan"], D, flags)
    prev = None
    for m in (1, 2, 3):
        approx = semigroup_body_approx(f["fan"], D, flags, m)
        assert contains(body, approx)
        if prev is not None:
            assert contains(approx, prev)
        prev = approx
    assert verts(prev) == verts(body)


def test_sampler_trivial_divisor():
    f = fx("p2")
    approx = semigroup_body_approx(f["fan"], f["divisors"]["trivial"],
                                   f["flags"]["pt"], 3)
    assert verts(approx) == {(0, 0)}


def test_slice_lemma_bl1():
    # Cutting the infinitesimal body at nu_1 >= a equals the body of the
    # a-twisted class, translated by (a, 0), for a in the big range.
    f = fx("bl1p2")
    body = extended_body_toric(f["fan"], f["divisors"]["O1"], f["flags"]["inf"])
    cases = {
        F(0): ("O1", 1),
        F(1, 4): ("4H-E", 4),
        F(1, 2): ("2H-E", 2),
    }
    for a, (divname, k) in cases.items():
        halfs, eqs = body.halfspaces()
        cut_pts = polytope._vertices_from_constraints(
            halfs + [((F(-1), F(0)), -a)], eqs, 2
        )
        lhs = polytope.hull(cut_pts, 2)
        big = extended_body_toric(f["fan"], f["divisors"][divname],
                                  f["flags"]["inf"])
        scaled = polytope.affine_image(
            big, [[F(1, k), 0], [0, F(1, k)]], (a, 0)
        )
        assert verts(lhs) == verts(scaled)


def test_slice_lemma_bl3():
    from okounkov import linalg

    f = fx("bl3p2")
    fan = f["fan"]
    body = extended_body_toric(fan, f["divisors"]["O1"], f["flags"]["inf"])
    flag = f["flags"]["inf"].flags[0]
    for a, k in [(F(1, 4), 4), (F(1, 2), 2)]:
        # k(H - aE1) with zero coefficients on the flag rays, found by
        # twisting with a character.
        base = [k * c for c in f["divisors"]["O1"].coeffs]
        base[2] += -k * a  # subtract (k a) E1 = (k a) D_{e1+e2}
        rows = [list(map(F, fan.rays[i])) for i in flag]
        rhs = [-base[i] for i in flag]
        u = linalg.solve(rows, rhs)
        twisted = [c + dot(u, tuple(map(F, ray)))
                   for c, ray in zip(base, fan.rays)]
        D2 = toric.ToricDivisor(tuple(twisted))
        big = extended_body_toric(fan, D2, f["flags"]["inf"])
        halfs, eqs = body.halfspaces()
        cut_pts = polytope._vertices_from_constraints(
            halfs + [((F(-1), F(0)), -a)], eqs, 2
        )
        lhs = polytope.hull(cut_pts, 2)
        rhs_body = polytope.affine_image(
            big, [[F(1, k), 0], [0, F(1, k)]], (a, 0)
        )
        assert verts(lhs) == verts(rhs_body)


def test_fixture_dir_override(tmp_path, monkeypatch):
    import json
    src = toric.load_fixture("p2")
    custom = {
        "schema": 1,
        "name": "tiny",
        "fan": src["fan"].to_json(),
        "divisors": {"D": src["divisors"]["O1"].to_json()},
        "flags": {"f": src["flags"]["pt"].to_json()},
    }
    (tmp_path / "tiny.json").write_text(json.dumps(custom))
    monkeypatch.setenv("OKOUNKOV_FIXTURES", str(tmp_path))
    loaded = toric.load_fixture("tiny")
    assert loaded["fan"] == src["fan"]
    assert toric.fixture_names() == ["tiny"]


def test_integer_readers_build_no_fraction_facets(monkeypatch):
    # dim, contains, lattice_points, toric bodies, a slice and xi read the
    # integer facet rows; only halfspaces() builds Fractions.
    def no_facets(self):
        raise AssertionError("Fraction facets built")

    monkeypatch.setattr(polytope.Polytope, "halfspaces", no_facets)
    f1, f2 = fx("bl1p2"), fx("bl2p2")
    full = extended_body_toric(f1["fan"], f1["divisors"]["2H-E"],
                               f1["flags"]["inf"])
    seg = extended_body_toric(f2["fan"], f2["divisors"]["H-E2"],
                              f2["flags"]["inf2"])
    P = divisor_polytope(f1["fan"], f1["divisors"]["2H-E"])
    assert (full.dim(), seg.dim(), P.dim()) == (2, 1, 2)
    assert contains(seg, seg.vertices[-1]) and contains(seg, seg)
    assert not contains(seg, (1, 0, 0, 0)) and contains(full, (1, 2))
    assert lattice_points(P, 2) == [
        (0, 0), (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, -2), (2, -1),
        (2, 0), (3, -2), (3, -1), (4, -2)]
    sl, _ = polytope.intersect_subspace(seg, polytope.SliceSpec(2, 2, (1, 1)))
    assert sl.vertices == ((0, 0),)
    assert invariants.xi_constant(full, [F(2, 3)], 2, 1) == F(3, 2)
    assert invariants.xi_constant(seg, [1, 1], 2, 2) == 0
    assert all(B._halfs is None for B in (full, seg, P, sl))


def test_fan_checks_run_on_integer_determinants(monkeypatch):
    # Smoothness and completeness take Bareiss determinants of the integer
    # rays; no Fraction determinant is built.
    def no_det(rows):
        raise AssertionError("Fraction determinant")

    monkeypatch.setattr(toric.linalg, "det", no_det)
    for name in FIXTURE_NAMES:
        fan = fx(name)["fan"]
        assert Fan(fan.dim, fan.rays, fan.max_cones) == fan
    with pytest.raises(ValueError, match="ray determinant 2 "):
        Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
