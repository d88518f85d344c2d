"""Canonical fixture bodies and the matching surface models.

Each entry pairs an exactly-known extended body with the curve-list model
of the same blow-up, so the body-side and curve-side invariants can be
cross-checked.  Every body is exact: the one-point body at the line class
comes from the toric backend, the others from the chamber walk of the
parametric surface backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import surface, toric
from .polytope import Polytope
from .surface import PicClass, SurfaceModel


@dataclass(frozen=True)
class FixtureSetup:
    name: str
    s: int
    r: int
    n: int
    L: PicClass
    body: Polytope
    vol_x: Fraction
    nef: bool


def _toric_body(fixture: str, divisor: str, flags: str) -> Polytope:
    fx = toric.load_fixture(fixture)
    return toric.extended_body_toric(
        fx["fan"], fx["divisors"][divisor], fx["flags"][flags]
    )


def invariant_setup(name: str) -> FixtureSetup:
    if name == "bl1p2":
        model = SurfaceModel(1)
        L = surface.H(1)
        body = _toric_body("bl1p2", "O1", "inf")
        return FixtureSetup(name, 1, 1, 2, L, body,
                            surface.vol(model, L), True)
    if name == "bl2p2":
        model = SurfaceModel(2)
        L = surface.H(2)
        body = surface.surface_body_outer(
            model, L, [0, 1], Fraction(1, 2), Fraction(1)
        )
        return FixtureSetup(name, 2, 2, 2, L, body,
                            surface.vol(model, L), True)
    if name == "bl1p2-shifted":
        # Big-but-not-nef class H + 2E: the body misses the origin.
        model = SurfaceModel(1)
        D = PicClass(1, (Fraction(-2),))
        body = surface.surface_body_outer(
            model, D, [0], Fraction(1, 2), Fraction(1)
        )
        return FixtureSetup(name, 1, 1, 2, D, body,
                            surface.vol(model, D), False)
    raise ValueError(f"unknown invariant fixture {name!r}; accepted: "
                     f"{', '.join(INVARIANT_FIXTURES)}")


def model_for(name: str) -> SurfaceModel:
    return SurfaceModel(invariant_setup(name).s)


INVARIANT_FIXTURES = ("bl1p2", "bl2p2", "bl1p2-shifted")
