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
    result, poly, failed = _HANDLERS[kind](_read_input(kind, payload))
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


def _known(names, key, p, of=""):
    if p[key] not in names:
        raise ValueError(f"input key {key!r} names no {key}{of}: {p[key]!r}; "
                         f"accepted: {', '.join(sorted(names))}")


def _toric_parts(p):
    if "fan" in p:
        return p["fan"], p["divisor"], p["flags"]
    _known(toric.fixture_names(), "fixture", p)
    fx = toric.load_fixture(p["fixture"])
    _known(fx["divisors"], "divisor", p, f" of fixture {p['fixture']!r}")
    _known(fx["flags"], "flags", p, f" of fixture {p['fixture']!r}")
    return fx["fan"], fx["divisors"][p["divisor"]], fx["flags"][p["flags"]]


def _body(p):
    """(body, n, r, vol_x) of the named fixture, or of the inline body."""
    if "fixture" in p:
        fx = registry.invariant_setup(p["fixture"])
        return fx.body, fx.n, fx.r, fx.vol_x
    return p["body"], p["n"], p["r"], p.get("vol_x")


# -- job handlers: each takes the input that _read_input read and returns
# (result-json, renderable-polytope-or-None, failure-msg-or-None).

def _job_toric_body(p):
    body = toric.extended_body_toric(*_toric_parts(p))
    return body.to_json(), body, None


def _job_semigroup_sample(p):
    m_max = p.get("m_max", 3)
    body = toric.semigroup_body_approx(*_toric_parts(p), m_max)
    return {**body.to_json(), "m_max": m_max}, body, None


def _job_surface_zariski(p):
    model, D = _model(p), p["class"]
    Z = surface.zariski(model, D)
    bad = surface.check_zariski(model, D, Z)
    return {**Z.to_json(), "violations": bad}, None, "; ".join(bad) or None


def _job_surface_body(p):
    model = _model(p)
    body = surface.surface_body_outer(
        model, p["class"], p.get("points", range(model.s)),
        p.get("grid_step", Fraction(1, 2)), p.get("t_max", Fraction(1)))
    out = {**body.to_json(), "meta": dict(body.meta)}
    return out, body, None


def _job_seshadri(p):
    eps = invariants.seshadri_eps(_model(p), p["class"], p["weights"])
    return {"epsilon": eps.to_json()}, None, None


def _job_nakayama(p):
    mu = invariants.nakayama_mu(_model(p), p["class"], p.get("points"))
    return {"mu": mu.to_json()}, None, None


def _job_xi(p):
    body, n, r, _ = _body(p)
    xi = invariants.xi_constant(body, p["weights"], n, r)
    return {"xi": format_rat(xi)}, None, None


def _job_eps_xi_check(p):
    fx = registry.invariant_setup(p["fixture"])
    rep = invariants.check_eps_eq_xi(SurfaceModel(fx.s), fx.L, p["weights"],
                                     fx.body, fx.n)
    return rep.to_json(), None, (None if rep.all_pass() else "eps != xi")


def _job_slice_volume(p):
    body, n, r, vol_x = _body(p)
    rep = invariants.slice_volume_check(body, p["weights"], n, r, vol_x)
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


_HANDLERS = {
    "toric-body": _job_toric_body,
    "semigroup-sample": _job_semigroup_sample,
    "surface-zariski": _job_surface_zariski,
    "surface-body": _job_surface_body,
    "seshadri": _job_seshadri,
    "nakayama": _job_nakayama,
    "xi": _job_xi,
    "eps-xi-check": _job_eps_xi_check,
    "slice-volume": _job_slice_volume,
    "nagata": _job_nagata,
    "standard-form": _job_standard_form,
    "irrationality": _job_irrationality,
    "homogeneous": _job_homogeneous,
    "nef-boundary": _job_nef_boundary,
}

# The job object's readers, as numbers._read_json takes them.
_JOB = {
    "schema": _SCHEMA,
    "kind": (lambda v: v if isinstance(v, str) and v in _HANDLERS else None,
             f"one of {', '.join(_HANDLERS)}"),
    "input": _OBJECT,
    "output_path": (lambda v: v if isinstance(v, str) and v not in ("", "..")
                    and Path(v).name == v else None,
                    "a file name, written in --out"),
    "render": (lambda v: v if type(v) is bool else None, "true or false"),
}

# The input forms of each kind: key -> the (read, what) of its value, as
# numbers._read_json takes them; an object's read is its from_json, whose
# ValueError names the inner key refused.  A job takes the first form whose
# first key it gives, else the last form.  Kept apart from _HANDLERS so that
# a handler can be swapped without redeclaring them; _read_input reads the
# input by them before any work.
_CLASS = (PicClass.from_json, "a class {d, m}")
_SURFACE = {"surface": (SurfaceModel.from_json,
                        "a surface {s, mode, neg_curves}"), "class": _CLASS}
_S = {"s": _INT, "class": _CLASS}
_FIXTURE = {"fixture": _STR, "divisor": _STR, "flags": _STR}
_FAN = {"fan": (toric.Fan.from_json, "an object {dim: an integer, rays, "
                "max_cones: lists of integer lists}"),
        "divisor": (toric.ToricDivisor.from_json,
                    "an object {coeffs: a list of rationals}"),
        "flags": (toric.ToricFlagSpec.from_json,
                  "an object {flags: a nonempty list of integer lists}")}
_BODY = {"body": (Polytope.from_json, "a body {ambient_dim, vertices}"),
         "n": _INT, "r": _INT}
_NAME = {"fixture": _STR}
_WEIGHTS = {"weights": _RATS}
_D_M = {"d": _RAT, "m": _RATS}
# surface.flag_points checks them against s, before any work.
_POINTS = {"points": (lambda v: v, "flag points")}
# The keys a job may leave out; every other key of its form is required.
_OPTIONAL = {"points", "m_max", "grid_step", "t_max"}


def _each(forms, extra):
    return tuple({**f, **extra} for f in forms)


_INPUT_FORMS = {
    "toric-body": (_FIXTURE, _FAN),
    "semigroup-sample": _each((_FIXTURE, _FAN), {"m_max": _INT}),
    "surface-zariski": (_SURFACE, _S),
    "surface-body": _each((_SURFACE, _S), {
        **_POINTS, "grid_step": _RAT, "t_max": _RAT}),
    "seshadri": _each((_SURFACE, _S), _WEIGHTS),
    "nakayama": _each((_SURFACE, _S), _POINTS),
    "xi": _each((_NAME, _BODY), _WEIGHTS),
    "eps-xi-check": ({**_NAME, **_WEIGHTS},),
    "slice-volume": _each((_NAME, {**_BODY, "vol_x": _RAT}), _WEIGHTS),
    "nagata": ({"r": _INT, **_D_M},),
    "standard-form": (_D_M,),
    "irrationality": ({"s": _INT, **_D_M},),
    "homogeneous": ({"s": _INT, "d": _RAT, "c": _RAT},),
    "nef-boundary": (_D_M,),
}
# The input keys each kind reads; any other key is refused.
_INPUT_KEYS = {kind: set().union(*forms)
               for kind, forms in _INPUT_FORMS.items()}


def _read_input(kind, payload) -> dict:
    """The payload read by the declared reader of each value, in the form's
    order; a ValueError names the first key refused: unknown, of another
    form or kind, missing."""
    unknown = sorted(set(payload) - _INPUT_KEYS[kind])
    if unknown:
        raise ValueError(
            f"unknown input key {unknown[0]!r} for job kind {kind!r}; "
            f"accepted: {', '.join(sorted(_INPUT_KEYS[kind]))}")
    forms = _INPUT_FORMS[kind]
    form = next((f for f in forms if next(iter(f)) in payload), forms[-1])
    stray = sorted(set(payload) - form.keys())
    if stray:
        raise ValueError(f"input key {stray[0]!r} does not go with "
                         f"{next(iter(form))!r} in job kind {kind!r}")
    # The key that chose the form is read first.
    out = {}
    for key, (read, what) in form.items():
        if key in payload:
            try:
                out[key] = read(payload[key])
            except ValueError as exc:
                raise ValueError(f"input key {key!r} of job kind {kind!r} "
                                 f"must be {what}: {exc}") from None
            if out[key] is None:
                raise ValueError(f"input key {key!r} of job kind {kind!r} "
                                 f"must be {what}, got {payload[key]!r}")
    for key, (_, what) in form.items():
        if key not in payload and key not in _OPTIONAL:
            raise ValueError(f"missing input key {key!r} ({what}) for job "
                             f"kind {kind!r}")
    return out


if __name__ == "__main__":
    sys.exit(main())
