"""Canonical fixture bodies and the matching surface models.

Each entry pairs an exactly-known extended body with the curve-list model
of the same blow-up, so the body-side and curve-side invariants can be
cross-checked.  Every body is exact: the one-point body at the line class
comes from the toric backend, the others from the chamber walk of the
parametric surface backend.

Each setup is built once per process, on its first call, and once more
only when what its build reads changes: for `bl1p2` the version of the
toric fixture file (`toric.fixture_version`: its path under
`toric.fixture_dir()`, modification time and size, the key the toric
fixture memo reads too), for the two chamber-walk setups nothing.  Later
calls return the same `FixtureSetup`, so its body and class are shared:
callers read them and never mutate them (a body's `meta`, too).
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


def _bl1p2() -> FixtureSetup:
    fx = toric.load_fixture("bl1p2")
    body = toric.extended_body_toric(
        fx["fan"], fx["divisors"]["O1"], fx["flags"]["inf"])
    L = surface.H(1)
    return FixtureSetup("bl1p2", 1, 1, 2, L, body,
                        surface.vol(SurfaceModel(1), L), True)


def _bl2p2() -> FixtureSetup:
    model = SurfaceModel(2)
    L = surface.H(2)
    body = surface.surface_body_outer(
        model, L, [0, 1], Fraction(1, 2), Fraction(1)
    )
    return FixtureSetup("bl2p2", 2, 2, 2, L, body, surface.vol(model, L), True)


def _bl1p2_shifted() -> FixtureSetup:
    # Big-but-not-nef class H + 2E: the body misses the origin.
    model = SurfaceModel(1)
    D = PicClass(1, (Fraction(-2),))
    body = surface.surface_body_outer(
        model, D, [0], Fraction(1, 2), Fraction(1)
    )
    return FixtureSetup("bl1p2-shifted", 1, 1, 2, D, body,
                        surface.vol(model, D), False)


_BUILDS = {"bl1p2": _bl1p2, "bl2p2": _bl2p2, "bl1p2-shifted": _bl1p2_shifted}
INVARIANT_FIXTURES = tuple(_BUILDS)

# name -> (version, setup): one entry per name, replaced when the version of
# what its build reads changes.  Filled by calls only, never at import.  Two
# threads that miss at once each build the same setup; one of them is kept.
_MEMO: dict[str, tuple[object, FixtureSetup]] = {}


def _version(name: str):
    """What the build of `name` reads, as a key: the toric fixture file's
    version (`toric.fixture_version`; a missing file raises there as
    `toric.load_fixture` would) for bl1p2, None for the chamber-walk
    setups."""
    return toric.fixture_version("bl1p2") if name == "bl1p2" else None


def invariant_setup(name: str) -> FixtureSetup:
    """The named canonical setup, built once per version of what it reads
    and shared read-only (see the module docstring).  An unknown name or a
    missing fixture file raises on every call and is never stored."""
    if name not in _BUILDS:
        raise ValueError(f"unknown invariant fixture {name!r}; accepted: "
                         f"{', '.join(INVARIANT_FIXTURES)}")
    # The version is read before the build: a file edited during the build
    # is stored under its old version and rebuilt on the next call.
    version = _version(name)
    hit = _MEMO.get(name)
    if hit is not None and hit[0] == version:
        return hit[1]
    setup = _BUILDS[name]()
    _MEMO[name] = (version, setup)
    return setup


def model_for(name: str) -> SurfaceModel:
    return SurfaceModel(invariant_setup(name).s)
