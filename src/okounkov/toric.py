"""Extended Okounkov bodies on smooth complete toric varieties.

The exact body of a torus-invariant divisor vanishing on all flag rays is
the linear image of its lattice polytope under the flag pairing map; a
brute-force graded-semigroup sampler provides independent inner
approximations for cross-checking.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path

from . import linalg, polytope
from .numbers import (_FLAGS, _INT, _INT_LISTS, _RATS, _SCHEMA, _STR,
                      _read_json, format_rat)
from .polytope import Polytope

# Largest bounding box lattice_points scans, in lattice points.
MAX_LATTICE_BOX = 10**6


def _int_rows(rows, what) -> tuple[tuple[int, ...], ...]:
    """rows as integer tuples; an entry that is no int (a float, a bool) is
    refused, not truncated."""
    rows = tuple(map(tuple, rows))
    for x in itertools.chain.from_iterable(rows):
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")
    return rows


@dataclass(frozen=True)
class Fan:
    """Smooth complete fan: primitive rays plus maximal cones (ray index sets).

    Smoothness (each max cone a unimodular basis) and completeness (each
    codimension-1 cone shared by exactly two max cones lying on opposite
    sides of it, every ray used, the cones covering space exactly once)
    are validated eagerly; invalid fans are rejected outright.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = _int_rows(self.rays, "ray entry")
        cones = _int_rows(self.max_cones, "cone index")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        n = self.dim
        if any(len(r) != n for r in rays):
            raise ValueError("ray dimension mismatch")
        dets = []
        for c in cones:
            if len(c) != n or len(set(c)) != n:
                raise ValueError(f"max cone {c} must list {n} distinct rays")
            # A negative index would wrap round to a ray from the end.
            if not all(0 <= i < len(rays) for i in c):
                raise ValueError(f"max cone {c} names a ray outside "
                                 f"0..{len(rays) - 1}")
            d = linalg.bareiss([list(rays[i]) for i in c], n)
            if abs(d) != 1:
                raise ValueError(
                    f"non-smooth cone {c}: ray determinant {d} (need +-1)"
                )
            dets.append(d)

        def coord(ci, j, x):
            # Coordinate j of x in the ray basis of cone ci (Cramer's rule).
            rows = [list(rays[i]) for i in cones[ci]]
            rows[j] = list(x)
            return linalg.bareiss(rows, n) * dets[ci]

        used = {i for c in cones for i in c}
        if used != set(range(len(rays))):
            raise ValueError("every ray must appear in some max cone")
        # Completeness: each facet of a max cone lies in exactly two of
        # them, on opposite sides of it, and the cones cover space once (a
        # doubly wound 2-D "fan" passes the first two tests).  sides[facet]
        # lists (cone, j) with ray j of the cone off the facet.
        sides: dict[frozenset, list] = {}
        for ci, c in enumerate(cones):
            for j in reversed(range(n)):
                sides.setdefault(frozenset(c[:j] + c[j + 1:]), []).append(
                    (ci, j))
        bad = {k: len(v) for k, v in sides.items() if len(v) != 2}
        if bad:
            raise ValueError(f"fan is not complete: unpaired cone facets {bad}")
        for (ca, ja), (cb, jb) in sides.values():
            if coord(ca, ja, rays[cones[cb][jb]]) >= 0:
                raise ValueError(
                    f"fan is not complete: max cones {cones[ca]} and "
                    f"{cones[cb]} lie on the same side of their shared facet")
        # With the facets paired this way the cones cover space a constant
        # number of times, and a point inside the first cone lies in no
        # other cone of a fan.
        p = [sum(x) for x in zip(*(rays[i] for c in cones[:1] for i in c))]
        cover = sum(all(coord(ci, j, p) >= 0 for j in range(n))
                    for ci in range(len(cones)))
        if cover != 1:
            raise ValueError(f"fan is not complete: the max cones cover a "
                             f"point {cover} times (need 1)")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }

    @staticmethod
    def from_json(obj: dict) -> "Fan":
        return Fan(*_read_json(obj, "fan", dim=_INT, rays=_INT_LISTS,
                               max_cones=_INT_LISTS))


@dataclass(frozen=True)
class ToricDivisor:
    """Torus-invariant divisor: one rational coefficient per ray."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    def scale(self, k) -> "ToricDivisor":
        k = Fraction(k)
        return ToricDivisor(tuple(k * c for c in self.coeffs))

    def to_json(self) -> dict:
        return {"coeffs": [format_rat(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "ToricDivisor":
        return ToricDivisor(*_read_json(obj, "divisor", coeffs=_RATS))


@dataclass(frozen=True)
class ToricFlagSpec:
    """Ordered flag cones: r max cones given as ordered ray-index lists.

    The cones must be pairwise disjoint as cones (checked: no shared ray,
    which in a fan means they meet only at the origin).
    """

    flags: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "flags", _int_rows(self.flags, "flag index"))

    @property
    def r(self) -> int:
        return len(self.flags)

    def validate(self, fan: Fan) -> None:
        cone_sets = {frozenset(c) for c in fan.max_cones}
        for f in self.flags:
            if frozenset(f) not in cone_sets:
                raise ValueError(f"flag {f} is not a maximal cone of the fan")
        for a, b in itertools.combinations(range(self.r), 2):
            fa, fb = self.flags[a], self.flags[b]
            # Max cones of a fan meet in a common face, so cones with no
            # shared ray meet only at the origin.
            if set(fa) & set(fb):
                raise ValueError(f"flag cones {fa} and {fb} share a ray")

    def to_json(self) -> dict:
        return {"flags": [list(f) for f in self.flags]}

    @staticmethod
    def from_json(obj: dict) -> "ToricFlagSpec":
        return ToricFlagSpec(*_read_json(obj, "flags", flags=_FLAGS))


@dataclass(frozen=True)
class ValuationVector:
    """Flag valuation of a section monomial: block-major entries, level m."""

    entries: tuple[Fraction, ...]
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("valuation level must be positive")
        object.__setattr__(
            self, "entries", tuple(Fraction(e) for e in self.entries)
        )


def divisor_polytope(fan: Fan, D: ToricDivisor) -> Polytope:
    """Lattice polytope {u : <u, ray> >= -a_ray for all rays}."""
    if len(D.coeffs) != len(fan.rays):
        raise ValueError("divisor coefficient count does not match ray count")
    # <u, ray> >= -a, a = c / q, is c + (q ray).u >= 0: the row (c, *q ray).
    le = [(a.numerator, *(a.denominator * x for x in ray))
          for ray, a in zip(fan.rays, D.coeffs)]
    return Polytope._of(fan.dim, polytope._vertex_points(le, [], fan.dim))


def flag_matrix(fan: Fan, flags: ToricFlagSpec) -> list[list[int]]:
    """(n*r) x n pairing matrix: row (i,j) is u -> <u, v_j^{(i)}>."""
    flags.validate(fan)
    return [list(fan.rays[i]) for f in flags.flags for i in f]


def extended_body_toric(fan: Fan, D: ToricDivisor,
                        flags: ToricFlagSpec) -> Polytope:
    """Exact extended body: flag-pairing image of the divisor polytope.

    Requires the divisor coefficient to vanish on every flag-cone ray
    (the divisor restricts to zero on each flag chart); otherwise the
    divisor is rejected and the caller must supply a linearly equivalent
    representative with that property.
    """
    M = flag_matrix(fan, flags)
    # divisor_polytope first checks the coefficient count against the rays.
    P = divisor_polytope(fan, D)
    for f in flags.flags:
        for i in f:
            if D.coeffs[i] != 0:
                raise ValueError(
                    f"unrepresented divisor: nonzero coefficient on flag ray "
                    f"{fan.rays[i]}; choose a linearly equivalent "
                    f"representative vanishing on all flag rays"
                )
    return polytope.affine_image(P, M)


def _lattice_box(P: Polytope, m: int = 1):
    """Integer ranges of the bounding box of m * P (P nonempty) and its
    size in lattice points."""
    q = P._core.q
    ranges = [range(m * min(c) // q, -(-m * max(c) // q) + 1)
              for c in zip(*P._core.points)]  # the vertices times q
    return ranges, math.prod(map(len, ranges))


def lattice_points(P: Polytope, m: int = 1) -> list[tuple[int, ...]]:
    """All lattice points of m P, P a bounded polytope and m a positive
    integer, sorted: a scan of the bounding box of m P."""
    if m < 1:
        raise ValueError("lattice_points needs a positive multiple m")
    if P.is_empty:
        return []
    ranges, size = _lattice_box(P, m)
    if size > MAX_LATTICE_BOX:
        raise ValueError(f"lattice-point scan of a {size}-point bounding box "
                         f"exceeds MAX_LATTICE_BOX = {MAX_LATTICE_BOX}")
    le, eq, q = P._core.facets, P._core.eqs, P._core.q
    # a.(q x) <= b on P is a.u <= m b / q on m P: a.u <= floor(m b / q) at a
    # lattice point u, and a.u = m b / q only if q divides m b.
    if any(m * b % q for _, b in eq):
        return []
    eq, le = ([(a, m * b // q) for a, b in rows] for rows in (eq, le))
    # product runs through the box in lexicographic order.
    return [u for u in itertools.product(*ranges)
            if all(sum(map(mul, a, u)) == b for a, b in eq)
            and all(sum(map(mul, a, u)) <= b for a, b in le)]


def monomial_valuation(fan: Fan, D: ToricDivisor, flags: ToricFlagSpec,
                       u, level: int = 1) -> ValuationVector:
    """Valuation vector of the section of level * D at the lattice point u
    of level * P, P the divisor polytope: the sampler's graded point.  A u
    with an entry that is no integer (a bool included) is refused first."""
    if not all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
               and x.denominator == 1 for x in u):
        raise ValueError(f"u = {u!r} is not a lattice point")
    flags.validate(fan)
    # divisor_polytope first checks the coefficient count against the rays.
    P = divisor_polytope(fan, D)
    val = ValuationVector(_valuations(fan, D, flags, level, [u])[0], level)
    if not polytope.contains(P, [Fraction(x, level) for x in u]):
        raise ValueError(f"lattice point {u} outside m P for m = {level}, "
                         f"P the divisor polytope")
    return val


def _valuations(fan: Fan, D: ToricDivisor, flags: ToricFlagSpec, m: int,
                points) -> list[tuple]:
    """The valuation vectors of the sections of m D at the lattice points
    u of m P: block (i, j) entry m a_v + <u, v> at the flag ray
    v = v_j^{(i)}, in integer dots."""
    rays = [i for f in flags.flags for i in f]
    a = [m * D.coeffs[i] for i in rays]
    vecs = [fan.rays[i] for i in rays]
    return [tuple(ai + sum(map(mul, u, v)) for ai, v in zip(a, vecs))
            for u in points]


def semigroup_body_approx(fan: Fan, D: ToricDivisor, flags: ToricFlagSpec,
                          m_max: int) -> Polytope:
    """Inner approximation from graded-semigroup sampling up to level m_max.

    Level m scans the bounding box of m P, so m_max times the box of
    m_max P estimates the work (with fractional vertices a lower level's
    box can be larger; lattice_points still caps each level); above
    MAX_LATTICE_BOX the call is refused first."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    flags.validate(fan)
    P = divisor_polytope(fan, D)
    size = 0 if P.is_empty else m_max * _lattice_box(P, m_max)[1]
    if size > MAX_LATTICE_BOX:
        raise ValueError(f"semigroup sampling up to level {m_max} scans up to "
                         f"{size} lattice points, above MAX_LATTICE_BOX = "
                         f"{MAX_LATTICE_BOX}; lower m_max")
    # Level m reads the lattice points of m P, the polytope of m D.
    graded = [(v, m) for m in range(1, m_max + 1)
              for v in _valuations(fan, D, flags, m, lattice_points(P, m))]
    if not graded:
        nr = fan.dim * flags.r
        return Polytope(nr, ())
    return polytope.cone_base(graded)


# -- shipped fixtures ------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_dir() -> Path:
    override = os.environ.get("OKOUNKOV_FIXTURES")
    return Path(override) if override else _FIXTURE_DIR


def _named(cls, what):
    # A JSON object of named cls objects, each read by cls.from_json.
    return (lambda v: {k: cls.from_json(x) for k, x in v.items()}
            if isinstance(v, dict) else None, what)


def load_fixture(name: str) -> dict:
    """Load a shipped fixture: fan + named divisors + named flag specs, each
    read by its from_json."""
    with open(fixture_dir() / f"{name}.json") as fh:
        raw = json.load(fh)
    _, name, fan, divisors, flags = _read_json(
        raw, f"fixture {name!r}", {"name": name, "divisors": {}, "flags": {}},
        schema=_SCHEMA, name=_STR, fan=(Fan.from_json, "a fan"),
        divisors=_named(ToricDivisor, "an object of named divisors"),
        flags=_named(ToricFlagSpec, "an object of named flags"))
    return {"name": name, "fan": fan, "divisors": divisors, "flags": flags}


def fixture_names() -> list[str]:
    return sorted(p.stem for p in fixture_dir().glob("*.json"))
