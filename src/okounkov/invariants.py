"""Local-positivity invariants and arithmetic certificates.

Multi-weight Seshadri constants (nef thresholds on the blown-up model),
Nakayama constants (bigness thresholds via an exact chamber walk),
largest inverted-slice-simplex constants, slice-volume identities, the
bound sandwich, and the exact-arithmetic certificates for non-effectivity,
irrational Seshadri values, quasi-homogeneous classes, and nef boundary
classes.  All conditional outputs carry an explicit assumption tag.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from operator import mul

from . import linalg, polytope, surface
from .numbers import (RadVal, _integer, _surd, format_rat, parse_rat,
                      squarefree_split, surd_sign)
from .polytope import Polytope, SliceSpec
from .surface import PicClass, SurfaceModel, E, intersect

TAG_UNCONDITIONAL = "unconditional"
TAG_NONEFF = "conditional: standard-form non-effectivity hypothesis"
TAG_NONEFF_QH = (
    "conditional: standard-form non-effectivity hypothesis (quasi-homogeneous)"
)
# The tail of each quasi-homogeneous verdict.
_QH = {"assumption": TAG_NONEFF_QH, "note": "ampleness caller-asserted"}


@dataclass
class InvariantReport:
    epsilon: RadVal | None = None
    mu: RadVal | None = None
    xi: Fraction | None = None
    lower_bound: RadVal | None = None
    upper_bound: RadVal | None = None
    assumption: str = TAG_UNCONDITIONAL
    checks: list = field(default_factory=list)

    def check(self, name: str, ok, detail: str, **extra) -> None:
        """Record one check: its name, verdict, detail and any extra keys."""
        self.checks.append({"name": name, "pass": bool(ok), "detail": detail,
                            **extra})

    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> dict:
        out = {"assumption": self.assumption, "checks": self.checks}
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon.to_json()
        if self.mu is not None:
            out["mu"] = self.mu.to_json()
        if self.xi is not None:
            out["xi"] = format_rat(self.xi)
        if self.lower_bound is not None and self.upper_bound is not None:
            out["bounds"] = [self.lower_bound.to_json(),
                             self.upper_bound.to_json()]
        return out


def _class_numbers(d, m) -> list[Fraction]:
    """[d, *m]: the degree and multiplicities of d*H - sum(m_i E_i)."""
    return [parse_rat(d, "degree"), *(parse_rat(x, "multiplicity") for x in m)]


def seshadri_eps(model: SurfaceModel, L: PicClass, w) -> RadVal:
    """Weighted Seshadri constant of a nef class: the nef threshold of
    L - a * sum(w_i E_i) over the model curve list, where the first
    Zariski chamber of that ray ends.

    Model-exact, not variety-general: the value is the threshold over the
    built-in curve list of the blown-up model.
    """
    w = [parse_rat(x, "weight") for x in w]
    if len(w) != model.s or any(x <= 0 for x in w):
        raise ValueError("weights must be s positive rationals")
    surface._check_s(model, L)
    return _nef_threshold(next(surface._walk(model, L, w), None))


def _nef_threshold(first) -> RadVal:
    # The first chamber has empty support exactly when L is nef.
    if first is None or first[2] != 0:
        raise ValueError("Seshadri constant defined here for nef classes")
    if first[1] is None:
        raise ValueError("no curve constrains the threshold")
    return RadVal.rational(first[1])


def nakayama_mu(model: SurfaceModel, L: PicClass, points=None) -> RadVal:
    """Bigness threshold of L - t * sum(E_i), exactly (rational or
    quadratic surd): the first volume root of surface.chambers."""
    w = [0] * model.s
    for i in (range(model.s) if points is None
              else surface.flag_points(model, points)):
        w[i] = 1
    surface._check_s(model, L)
    walk = surface._walk(model, L, w)
    first = next(walk, None)
    if first is not None and first[2] == 0 and model.mode == "user" \
            and not surface.is_psef(model, L):
        first = None  # as zariski: a user list decides psef by its cone
    return _volume_root(first, walk)


def _volume_root(first, walk) -> RadVal:
    # The walk ends in the chamber where the volume reaches 0, so that
    # chamber, the last, holds the root: one exact root per walk.
    if first is None or first[3][0] <= 0:
        raise ValueError("Nakayama constant defined for big classes")
    t0, _, _, (A, B, C2) = [first, *walk][-1]
    root = _first_root_after(A, B, C2, t0)
    if root is None:
        raise ValueError(
            "chamber walk found no volume root; class may stay big")
    return root


def _first_root_after(A, B, C2, t) -> RadVal | None:
    """Smallest root > t of A + B x + C2 x^2, exactly, or None."""
    (a, b, c), _ = linalg.scaled((A, B, C2))  # same roots, integer terms
    tn, td = t.numerator, t.denominator
    if c == 0:
        if b < 0:
            a, b = -a, -b
        # the root -a / b is > t = tn / td iff -a td > tn b, for b > 0
        return _surd(-a, 0, 1, b) if b and -a * td > tn * b else None
    if c < 0:
        a, b, c = -a, -b, -c
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    # With disc = r^2 f, the roots (-b -+ r sqrt(f)) / (2c) ascend, and one
    # is > t = tn / td iff u -+ v sqrt(f) > 0: u = -b td - 2c tn, v = r td.
    r, f = squarefree_split(disc)
    u, v = -b * td - 2 * c * tn, r * td
    for sign in (-1, 1):
        if surd_sign(u, sign * v, f) > 0:
            return _surd(-b, sign * r, f, 2 * c)
    return None


def xi_constant(body: Polytope, w, n: int, r: int) -> Fraction:
    """Largest a with the inverted slice simplex of size (w_1 a, ..., w_r a)
    inside the body; 0 when the body misses the origin."""
    w = [parse_rat(x, "weight") for x in w]
    n, r = _integer(n, "n", 1), _integer(r, "r", 1)
    if len(w) != r or any(x <= 0 for x in w):
        raise ValueError("weights must be r positive rationals")
    if body.ambient_dim != n * r:
        raise ValueError("body must live in R^(n*r)")
    if not polytope.contains(body, (Fraction(0),) * (n * r)):
        return Fraction(0)
    ws, qw = linalg.scaled(w)
    gens = polytope._block_steps(ws, n)  # qw times the generators g
    le, eqs, q = body._core.facets, body._core.eqs, body._core.q
    if any(sum(map(mul, a, g)) for a, _ in eqs for g in gens):
        return Fraction(0)
    # a.(q x) <= b holds at x = a' g, a' >= 0, up to a' = qw b / (q a.(qw g)).
    # The body is bounded, so each g, in its span, has a facet with a.g > 0.
    best = min(Fraction(qw * b, q * p) for a, b in le for g in gens
               if (p := sum(map(mul, a, g))) > 0)
    return max(best, Fraction(0))


def check_eps_eq_xi(model: SurfaceModel, L: PicClass, w, body: Polytope,
                    n: int = 2) -> InvariantReport:
    """Cross-check that the curve-list Seshadri constant equals the
    body-side inverted-simplex constant, exactly."""
    eps = seshadri_eps(model, L, w)
    xi = xi_constant(body, w, n, len(w))
    ok = eps == RadVal.rational(xi)
    rep = InvariantReport(epsilon=eps, xi=xi)
    rep.check("eps-equals-xi", ok, f"eps={eps!r}, xi={format_rat(xi)}")
    return rep


def slice_volume_check(body: Polytope, w, n: int, r: int,
                       vol_x: Fraction) -> InvariantReport:
    """Induced volume of the weighted diagonal slice against the
    sqrt(r)^(n-2)/n! * vol identity (equal weights) or the 1/2 * vol
    upper bound (general weights, surfaces)."""
    w = [parse_rat(x, "weight") for x in w]
    vol_x = parse_rat(vol_x, "vol_x")
    spec = SliceSpec(n, r, tuple(w))
    sl, scale = polytope.intersect_subspace(body, spec)
    v = polytope.volume(sl) * scale
    rep = InvariantReport()
    if all(x == w[0] for x in w) and w[0] == 1:
        target = (RadVal.sqrt(Fraction(r) ** (n - 2))
                  * vol_x / factorial(n))
        rep.check("slice-volume-identity", v == target,
                  f"slice volume {v!r}, target {target!r}",
                  slice_volume=v.to_json())
    else:
        bound = RadVal.rational(vol_x / 2)
        rep.check("slice-volume-upper-bound", v <= bound,
                  f"slice volume {v!r} vs bound {bound!r}",
                  slice_volume=v.to_json())
    return rep


def bounds_sandwich(model: SurfaceModel, L: PicClass) -> InvariantReport:
    """mu - sqrt(mu^2 - L^2/r) <= eps <= L^2 / (r mu) at all r = s points
    with equal weights, with the equality clause eps = sqrt(L^2/r) iff
    mu = sqrt(L^2/r)."""
    r = model.s
    if any(x != 0 for x in L.m):
        raise ValueError("the sandwich needs a class pulled back from P^2 "
                         "(d*H with every m_i = 0)")
    surface._check_s(model, L)
    walk = surface._walk(model, L, [1] * r)  # eps and mu off one walk
    first = next(walk, None)
    eps, mu = _nef_threshold(first), _volume_root(first, walk)
    L2 = intersect(L, L)
    upper, arg = L2 / (mu * r), mu * mu - Fraction(L2, r)
    if not arg.is_rational:
        raise ValueError(
            "lower bound needs a nested radical; not representable exactly"
        )
    lower = mu - RadVal.sqrt(arg.as_rational())
    rep = InvariantReport(epsilon=eps, mu=mu,
                          lower_bound=lower, upper_bound=upper)
    rep.check("sandwich-lower", lower <= eps, f"{lower!r} <= {eps!r}")
    rep.check("sandwich-upper", eps <= upper, f"{eps!r} <= {upper!r}")
    target = RadVal.sqrt(Fraction(L2, r))
    rep.check("equality-clause", (eps == target) == (mu == target),
              f"eps tight: {eps == target}, mu tight: {mu == target}")
    return rep


def containment_bound(mu_values, n: int, r: int) -> Polytope:
    """Upper-bound body r * conv(union of per-block inverted simplices of
    size max_i mu_i); every extended body is contained in it."""
    n, r = _integer(n, "n", 1), _integer(r, "r", 1)
    size = r * max(parse_rat(x, "mu value") for x in mu_values)
    pts = [(Fraction(0),) * (n * r)]
    for i in range(r):
        pts += polytope._block_steps(
            [size if j == i else Fraction(0) for j in range(r)], n)
    return polytope.hull(pts, n * r)


def origin_criterion(model: SurfaceModel, D: PicClass, points) -> bool:
    """Predict origin membership in the extended body from the base loci:
    the origin lies in the body iff no flagged exceptional curve sits in
    the restricted base locus (the negative-part support)."""
    flagged = [E(model.s, i) for i in surface.flag_points(model, points)]
    bl = surface.base_loci(model, D)
    return not any(any(C == Ei for Ei in flagged) for C in bl["bminus"])


def positive_xi_criterion(model: SurfaceModel, D: PicClass, points) -> bool:
    """Predict positivity of the inverted-simplex constant from the base
    loci: xi > 0 iff no flagged exceptional curve is in the negative-part
    support and no augmented-base-locus curve passes through a flag point
    (the flag points are general on their exceptional curves, so only a
    curve actually meeting E_i positively can cover them)."""
    flagged = [E(model.s, i) for i in surface.flag_points(model, points)]
    bl = surface.base_loci(model, D)
    # origin_criterion, on the same base loci
    if any(any(C == Ei for Ei in flagged) for C in bl["bminus"]):
        return False
    exceptional = [E(model.s, j) for j in range(model.s)]
    for C in bl["bplus"]:
        if any(C == Ej for Ej in exceptional):
            # An exceptional curve meets the other flag curves (if at all)
            # only in special points, never a general flag point.
            continue
        if any(intersect(C, Ei) > 0 for Ei in flagged):
            return False
    return True


# -- exact arithmetic certificates -----------------------------------

def nagata_check(r: int, d, m) -> bool:
    """d >= (1/sqrt(r)) * sum(m), tested as r d^2 >= (sum m)^2, for r >= 1
    points and at most r multiplicities."""
    (d, *ms), r = _class_numbers(d, m), _integer(r, "r")
    if r < 1 or len(ms) > r:
        raise ValueError(f"the Nagata bound needs r >= 1 points and at most r "
                         f"multiplicities, got r = {r} and {len(ms)}")
    if any(x < 0 for x in ms):
        raise ValueError("multiplicities must be nonnegative")
    if d < 0:
        return False
    return r * d * d >= sum(ms) ** 2


def is_standard_form(d, m) -> bool:
    """m sorted descending, nonnegative, and d >= m1 + m2 + m3."""
    d, *ms = _class_numbers(d, m)
    while len(ms) < 3:
        ms.append(Fraction(0))
    if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
        return False
    if ms[-1] < 0:
        return False
    return d >= ms[0] + ms[1] + ms[2]


def conditional_non_effectivity(d, m) -> dict:
    """Conditional verdict: standard form plus negative self-intersection
    rules out effectivity under the non-effectivity hypothesis."""
    d, *ms = _class_numbers(d, m)
    ms.sort(reverse=True)
    self_int = d * d - sum(x * x for x in ms)
    if is_standard_form(d, ms) and self_int < 0:
        return {"verdict": "not-effective", "assumption": TAG_NONEFF,
                "self_intersection": self_int}
    return {"verdict": "unknown", "assumption": TAG_UNCONDITIONAL,
            "self_intersection": self_int}


def irrationality_certificate(s: int, d, m) -> dict:
    """Certified Seshadri value sqrt(d^2 - sum m_i^2) at a general point,
    conditional on the non-effectivity hypothesis for s+1 points; below
    d^2 = sum m_i^2 the class is not ample, and ok is False."""
    (d, *ms), s = _class_numbers(d, m), _integer(s, "s")
    if s < 9:
        raise ValueError("certificate applies to s >= 9 points")
    if len(ms) != s:
        raise ValueError("need exactly s multiplicities")
    if any(ms[i] < ms[i + 1] for i in range(s - 1)) or ms[-1] < 0:
        return {"ok": False, "failed": "multiplicities not sorted descending"}
    m1, m2, m3 = ms[0], ms[1], ms[2]
    if m1 + m2 + m3 > d:
        return {"ok": False,
                "failed": f"m1+m2+m3 = {m1+m2+m3} exceeds d = {d}"}
    if m1 + m2 == 0:
        return {"ok": False, "failed": "degenerate: m1 + m2 = 0"}
    upper = ((m1 + m2) ** 2 + sum(x * x for x in ms)) / (2 * (m1 + m2))
    if not d < upper:
        return {"ok": False,
                "failed": f"d = {d} not below the bound {upper}"}
    return _sqrt_certificate(d * d - sum(x * x for x in ms), {},
                             {"assumption": TAG_NONEFF})


def _sqrt_certificate(L2, head, tail) -> dict:
    """head, then the certified value sqrt(L^2) and tail; or head and a
    failure where L^2 < 0, the class not ample."""
    if L2 < 0:
        return {**head, "ok": False,
                "failed": "negative self-intersection; class not ample"}
    eps = RadVal.sqrt(L2)
    return {**head, "ok": True, "eps": eps, "irrational": not eps.is_rational,
            **tail}


def homogeneous_eps(s: int, d, c) -> dict:
    """Equal-multiplicity classes d*H - c*sum(E_i), s >= 9 points.

    When c/d is at least 4/(s+4) the Seshadri constant is sqrt(d^2 - s c^2)
    (conditional); below that threshold only the lower bound d - 2c is
    certified.  Ampleness of the class is caller-asserted.
    """
    (d, c), s = _class_numbers(d, [c]), _integer(s, "s")
    if s < 9:
        raise ValueError("quasi-homogeneous branch applies to s >= 9 points")
    if d <= 0:
        raise ValueError("degree must be positive")
    if c < 0:
        raise ValueError("multiplicity c must be nonnegative")
    if c * (s + 4) >= 4 * d:
        return _sqrt_certificate(d * d - s * c * c, {"branch": 1}, _QH)
    return {"branch": 2, "ok": True, "eps_lower": d - 2 * c, **_QH}


def nef_boundary_check(d, m) -> dict:
    """Four-condition nef criterion for classes on the zero-self-
    intersection boundary, with the radical condition tested by squaring.

    Requires multiplicities sorted descending; pads to at least 8 entries.
    """
    # Every condition is homogeneous in (d, m), so it holds of q (d, m).
    (d, *ms), q = linalg.scaled(_class_numbers(d, m))
    if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
        raise ValueError("multiplicities must be sorted descending")
    ms += [0] * (8 - len(ms))
    sq = [x * x for x in ms]
    dd, sum_sq = d * d, sum(sq)
    c1 = d >= ms[1] + ms[2]
    c2 = 2 * d >= sum(ms[1:6])
    rhs = 2 * ms[1] + sum(ms[2:8])
    c3 = rhs < 0 or 9 * sum_sq > rhs * rhs
    # d^2 > (t+3)/(t+2) * (m_1^2 + ... + m_t^2), times t + 2.
    c4 = all((t + 2) * dd > (t + 3) * sum(sq[1:t + 1])
             for t in range(2, len(ms)))
    verdict = c1 and c2 and c3 and c4
    out = {
        "conditions": [c1, c2, c3, c4],
        "nef": verdict,
        "self_intersection": Fraction(dd - sum_sq, q * q),
        "on_boundary": dd == sum_sq,
    }
    if verdict and dd != sum_sq:
        out["note"] = "criterion passes but not on the L^2 = 0 boundary"
    return out
