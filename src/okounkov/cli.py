"""Batch command-line front end.

Usage: okounkov run --job job.json --out results/

A job file, `{"schema": 1, "kind": <kind>, "input": {...},
"output_path": "name.json", "render": false}`, is the whole job:
output_path is a file name, written in the --out directory, and render
also writes an SVG of a 2-D body.  Output JSON is deterministic (sorted
keys, fixed formatting): identical inputs give byte-identical artifacts.
Exit codes: 0 success, 1 input error (a usage error too), 2 check
failure, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import invariants, registry, render, surface, toric
from .numbers import (_INT, _OBJECT, _RAT, _RATS, _SCHEMA, _STR, RadVal,
                      _read_json, format_rat)
from .polytope import Polytope
from .surface import PicClass, SurfaceModel


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as a ValueError (exit 1), not
    argparse's exit 2, which this CLI keeps for a failed check."""

    def error(self, message):
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="okounkov")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON job file")
    runp.add_argument("--job", required=True, help="job description file")
    runp.add_argument("--out", required=True, help="output directory")
    return parser


_PARSER = _parser()  # built once, at import: main only parses


def main(argv=None) -> int:
    try:
        return _run(_PARSER.parse_args(argv))
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _run(args) -> int:
    with open(args.job) as fh:
        job = json.load(fh)
    _, kind, payload, name, draw = _read_json(
        job, "job", {"input": {}, "output_path": "", "render": False}, **_JOB)
    handler, forms = _KINDS[kind]
    form = next((f for f in forms if next(iter(f)) in payload), forms[-1])
    result, poly, failed = handler(dict(zip(form, _read_json(
        payload, f"job kind {kind!r} input", _OPTIONAL, **form))))
    if draw and (poly is None or poly.ambient_dim > 2):
        raise ValueError(f"job kind {kind!r} has no renderable polytope")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (name or f"{kind}.json")  # "", refused in a job
    doc = {"schema": 1, "kind": kind, "result": result}
    with open(out_path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if draw:
        render.render_svg(poly, out_path.with_suffix(".svg"))
    if failed:
        raise CheckFailure(failed)
    print(str(out_path))
    return 0


# -- payload helpers -------------------------------------------------

def _model(p) -> SurfaceModel:
    return p["surface"] if "surface" in p else SurfaceModel(p["s"])


def _known(names, key, p, of, which=""):
    if p[key] not in names:
        raise ValueError(f"{of} key {key!r} names no {key}{which}: "
                         f"{p[key]!r}; accepted: {', '.join(sorted(names))}")


def _toric_parts(p, kind):
    of = f"job kind {kind!r} input"
    if "fan" in p:
        fan, D = p["fan"], p["divisor"]
        if len(D.coeffs) != len(fan.rays):
            raise ValueError(
                f"{of} key 'divisor' must be a divisor {{coeffs}} with one "
                f"coefficient per ray of key 'fan' ({len(fan.rays)}), got "
                f"{len(D.coeffs)}")
        return fan, D, p["flags"]
    _known(toric.fixture_names(), "fixture", p, of)
    fx = toric.load_fixture(p["fixture"])
    _known(fx["divisors"], "divisor", p, of, f" of fixture {p['fixture']!r}")
    _known(fx["flags"], "flags", p, of, f" of fixture {p['fixture']!r}")
    return fx["fan"], fx["divisors"][p["divisor"]], fx["flags"][p["flags"]]


def _setup(p, kind):
    """The named invariant fixture's setup, its name checked first."""
    of = f"job kind {kind!r} input"
    _known(registry.INVARIANT_FIXTURES, "fixture", p, of)
    return registry.invariant_setup(p["fixture"])


def _body(p, kind):
    """The named fixture's setup, or the inline body: body, n, r and, for
    slice-volume, vol_x, by attribute."""
    return _setup(p, kind) if "fixture" in p else SimpleNamespace(**p)


# -- job handlers: each takes the input that _run read by its form and
# returns (result-json, renderable-polytope-or-None, failure-msg-or-None).

def _job_toric_body(p):
    body = toric.extended_body_toric(*_toric_parts(p, "toric-body"))
    return body.to_json(), body, None


def _job_semigroup_sample(p):
    body = toric.semigroup_body_approx(*_toric_parts(p, "semigroup-sample"),
                                       p["m_max"])
    return {**body.to_json(), "m_max": p["m_max"]}, body, None


def _job_surface_zariski(p):
    model, D = _model(p), p["class"]
    Z = surface.zariski(model, D)
    bad = surface.check_zariski(model, D, Z)
    return {**Z.to_json(), "violations": bad}, None, "; ".join(bad) or None


def _job_surface_body(p):
    model = _model(p)
    points = range(model.s) if p["points"] is None else p["points"]
    body = surface.surface_body_outer(model, p["class"], points,
                                      p["grid_step"], p["t_max"])
    out = {**body.to_json(), "meta": dict(body.meta)}
    return out, body, None


def _job_seshadri(p):
    eps = invariants.seshadri_eps(_model(p), p["class"], p["weights"])
    return {"epsilon": eps.to_json()}, None, None


def _job_nakayama(p):
    mu = invariants.nakayama_mu(_model(p), p["class"], p["points"])
    return {"mu": mu.to_json()}, None, None


def _job_xi(p):
    b = _body(p, "xi")
    xi = invariants.xi_constant(b.body, p["weights"], b.n, b.r)
    return {"xi": format_rat(xi)}, None, None


def _job_eps_xi_check(p):
    fx = _setup(p, "eps-xi-check")
    rep = invariants.check_eps_eq_xi(SurfaceModel(fx.s), fx.L, p["weights"],
                                     fx.body, fx.n)
    return rep.to_json(), None, (None if rep.all_pass() else "eps != xi")


def _job_slice_volume(p):
    b = _body(p, "slice-volume")
    rep = invariants.slice_volume_check(b.body, p["weights"], b.n, b.r,
                                        b.vol_x)
    ok = rep.all_pass()
    return rep.to_json(), None, (None if ok else "slice-volume check failed")


def _job_nagata(p):
    verdict = invariants.nagata_check(p["r"], p["d"], p["m"])
    return {"nagata_bound_holds": bool(verdict)}, None, None


def _job_standard_form(p):
    verdict = invariants.is_standard_form(p["d"], p["m"])
    return {"standard_form": bool(verdict)}, None, None


def _job_irrationality(p):
    out = invariants.irrationality_certificate(p["s"], p["d"], p["m"])
    return _jsonify(out), None, None


def _job_homogeneous(p):
    out = invariants.homogeneous_eps(p["s"], p["d"], p["c"])
    return _jsonify(out), None, None


def _job_nef_boundary(p):
    return _jsonify(invariants.nef_boundary_check(p["d"], p["m"])), None, None


def _jsonify(obj):
    if isinstance(obj, RadVal):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return format_rat(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


# The input forms: key -> the (read, what) of its value, as
# numbers._read_json takes them; an object's read is its from_json.
_CLASS = (PicClass.from_json, "a class {d, m}")
_SURFACE = {"surface": (SurfaceModel.from_json,
                        "a surface {s, mode, neg_curves}"), "class": _CLASS}
_S = {"s": _INT, "class": _CLASS}
_FIXTURE = {"fixture": _STR, "divisor": _STR, "flags": _STR}
_FAN = {"fan": (toric.Fan.from_json, "a fan {dim, rays, max_cones}"),
        "divisor": (toric.ToricDivisor.from_json, "a divisor {coeffs}"),
        "flags": (toric.ToricFlagSpec.from_json, "a flag spec {flags}")}
_BODY = {"body": (Polytope.from_json, "a body {ambient_dim, vertices}"),
         "n": _INT, "r": _INT}
_NAME = {"fixture": _STR}
_WEIGHTS = {"weights": _RATS}
_D_M = {"d": _RAT, "m": _RATS}
# surface.flag_points checks them against s, before any work.
_POINTS = {"points": (lambda v: v, "flag points")}
# The keys a job may leave out, with the value each then takes; every other
# key of a form is required.
_OPTIONAL = {"points": None, "m_max": 3, "grid_step": Fraction(1, 2),
             "t_max": Fraction(1)}


def _each(forms, extra):
    return tuple({**f, **extra} for f in forms)


# Each job kind: its handler and its input forms.  A job takes the first
# form whose first key it gives, else the last, and _run reads the input by
# it, before any work.
_KINDS = {
    "toric-body": (_job_toric_body, (_FIXTURE, _FAN)),
    "semigroup-sample": (_job_semigroup_sample,
                         _each((_FIXTURE, _FAN), {"m_max": _INT})),
    "surface-zariski": (_job_surface_zariski, (_SURFACE, _S)),
    "surface-body": (_job_surface_body, _each((_SURFACE, _S), {
        **_POINTS, "grid_step": _RAT, "t_max": _RAT})),
    "seshadri": (_job_seshadri, _each((_SURFACE, _S), _WEIGHTS)),
    "nakayama": (_job_nakayama, _each((_SURFACE, _S), _POINTS)),
    "xi": (_job_xi, _each((_NAME, _BODY), _WEIGHTS)),
    "eps-xi-check": (_job_eps_xi_check, ({**_NAME, **_WEIGHTS},)),
    "slice-volume": (_job_slice_volume,
                     _each((_NAME, {**_BODY, "vol_x": _RAT}), _WEIGHTS)),
    "nagata": (_job_nagata, ({"r": _INT, **_D_M},)),
    "standard-form": (_job_standard_form, (_D_M,)),
    "irrationality": (_job_irrationality, ({"s": _INT, **_D_M},)),
    "homogeneous": (_job_homogeneous, ({"s": _INT, "d": _RAT, "c": _RAT},)),
    "nef-boundary": (_job_nef_boundary, (_D_M,)),
}

# The job object's readers, as numbers._read_json takes them.
_JOB = {
    "schema": _SCHEMA,
    "kind": (lambda v: v if isinstance(v, str) and v in _KINDS else None,
             f"one of {', '.join(_KINDS)}"),
    "input": _OBJECT,
    "output_path": (lambda v: v if isinstance(v, str) and v not in ("", "..")
                    and Path(v).name == v else None,
                    "a file name, written in --out"),
    "render": (lambda v: v if type(v) is bool else None, "true or false"),
}


if __name__ == "__main__":
    sys.exit(main())
