"""Batch command-line front end.

Usage: okounkov run --job job.json --out results/ [--render]
                    [--grid-step p/q] [--m-max k]

A job file is `{"schema": 1, "kind": <kind>, "input": {...},
"output_path": "name.json"}`; output_path is a file name, written in the
--out directory.  Output JSON is deterministic
(sorted keys, fixed formatting): identical inputs give byte-identical
artifacts.  Exit codes: 0 success, 1 input error (a usage error too),
2 check failure, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import invariants, registry, render, surface, toric
from .numbers import _INT, _RAT, _RATS, _STR, RadVal, _rat, format_rat
from .polytope import Polytope
from .surface import PicClass, SurfaceModel

class InputError(Exception):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as an InputError (exit 1), not
    argparse's exit 2, which this CLI keeps for a failed check."""

    def error(self, message):
        raise InputError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="okounkov")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON job file")
    runp.add_argument("--job", required=True, help="job description file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--render", action="store_true",
                      help="also emit an SVG for 2-D polytope results")
    runp.add_argument("--grid-step", default=None, help="a rational p/q, "
                      "echoed in surface-body meta; the body is exact")
    runp.add_argument("--m-max", type=int, default=None,
                      help="sampling level cap (semigroup-sample jobs)")
    return parser


_PARSER = _parser()  # built once, at import: main only parses


def main(argv=None) -> int:
    try:
        return _run(_PARSER.parse_args(argv))
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


_JOB_KEYS = ("schema", "kind", "input", "output_path", "render")


def _run(args) -> int:
    with open(args.job) as fh:
        job = json.load(fh)
    if not isinstance(job, dict):
        raise InputError("a job file must hold a JSON object")
    unknown = sorted(job.keys() - set(_JOB_KEYS))
    if unknown:
        raise InputError(f"unknown job key {unknown[0]!r}; accepted: "
                         f"{', '.join(_JOB_KEYS)}")
    if job.get("schema") != 1:
        raise InputError(f'job "schema" must be 1, got {job.get("schema")!r}')
    kind = job.get("kind")
    if kind not in _HANDLERS:
        raise InputError(f"unknown job kind {kind!r}; expected one of "
                         f"{', '.join(_HANDLERS)}")
    name = job.get("output_path", f"{kind}.json")
    if not (isinstance(name, str) and name not in ("", "..")
            and Path(name).name == name):
        raise InputError(f'job "output_path" must be a file name, written in '
                         f'--out, got {name!r}')
    draw = job.get("render", False)
    if not isinstance(draw, bool):
        raise InputError(f'job "render" must be true or false, got {draw!r}')
    payload = job.get("input", {})
    if not isinstance(payload, dict):
        raise InputError('job "input" must be an object')
    p = _read_input(kind, payload)
    if args.grid_step is not None:
        p["grid_step"] = _rat(args.grid_step)
        if p["grid_step"] is None:
            raise InputError(f"--grid-step is not p/q: {args.grid_step!r}")
    if args.m_max is not None:
        p["m_max"] = args.m_max
    result, poly, failed = _HANDLERS[kind](p)
    draw = draw or args.render
    if draw and (poly is None or poly.ambient_dim > 2):
        raise InputError(f"job kind {kind!r} has no renderable polytope")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / name
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
        raise InputError(f"input key {key!r} names no {key}{of}: {p[key]!r}; "
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

# The reader of each kind of value, by what a message calls it: a scalar's
# returns the value as the handlers take it, or None; an object's is its
# from_json, whose ValueError names the inner key refused.  Strings pass
# through unchanged.
_KINDS = {what: read for read, what in (_INT, _RAT, _RATS, _STR)} | {
    "an object {dim: an integer, rays, max_cones: lists of integer lists}":
        toric.Fan.from_json,
    "an object {coeffs: a list of rationals}": toric.ToricDivisor.from_json,
    "an object {flags: a nonempty list of integer lists}":
        toric.ToricFlagSpec.from_json,
    "a class {d, m}": PicClass.from_json,
    "a surface {s, mode, neg_curves}": SurfaceModel.from_json,
    "a body {ambient_dim, vertices}": Polytope.from_json,
    # surface.flag_points checks them against s, before any work.
    "flag points": lambda v: v,
}

# The input forms of each kind: key -> (kind of value, required).  A job
# takes the first form whose first key it gives, else the last form.  Kept
# apart from _HANDLERS so that a handler can be swapped without redeclaring
# them; _read_input reads the input by them before any work.
_SURFACE = {"surface": ("a surface {s, mode, neg_curves}", True),
            "class": ("a class {d, m}", True)}
_S = {"s": ("an integer", True), "class": ("a class {d, m}", True)}
_FIXTURE = {"fixture": ("a string", True), "divisor": ("a string", True),
            "flags": ("a string", True)}
_FAN = {"fan": ("an object {dim: an integer, rays, max_cones: lists of "
                "integer lists}", True),
        "divisor": ("an object {coeffs: a list of rationals}", True),
        "flags": ("an object {flags: a nonempty list of integer lists}",
                  True)}
_BODY = {"body": ("a body {ambient_dim, vertices}", True),
         "n": ("an integer", True), "r": ("an integer", True)}
_NAME = {"fixture": ("a string", True)}
_WEIGHTS = {"weights": ("a list of rationals", True)}
_D_M = {"d": ("a rational", True), "m": ("a list of rationals", True)}
_POINTS = {"points": ("flag points", False)}


def _each(forms, extra):
    return tuple({**f, **extra} for f in forms)


_INPUT_FORMS = {
    "toric-body": (_FIXTURE, _FAN),
    "semigroup-sample": _each((_FIXTURE, _FAN),
                              {"m_max": ("an integer", False)}),
    "surface-zariski": (_SURFACE, _S),
    "surface-body": _each((_SURFACE, _S), {
        **_POINTS, "grid_step": ("a rational", False),
        "t_max": ("a rational", False)}),
    "seshadri": _each((_SURFACE, _S), _WEIGHTS),
    "nakayama": _each((_SURFACE, _S), _POINTS),
    "xi": _each((_NAME, _BODY), _WEIGHTS),
    "eps-xi-check": ({**_NAME, **_WEIGHTS},),
    "slice-volume": _each(
        (_NAME, {**_BODY, "vol_x": ("a rational", True)}), _WEIGHTS),
    "nagata": ({"r": ("an integer", True), **_D_M},),
    "standard-form": (_D_M,),
    "irrationality": ({"s": ("an integer", True), **_D_M},),
    "homogeneous": ({"s": ("an integer", True), "d": ("a rational", True),
                     "c": ("a rational", True)},),
    "nef-boundary": (_D_M,),
}
# The input keys each kind reads; any other key is refused.
_INPUT_KEYS = {kind: set().union(*forms)
               for kind, forms in _INPUT_FORMS.items()}


def _read_input(kind, payload) -> dict:
    """The payload read by the declared kind of each value, in the form's
    order; an InputError names the first key refused: unknown, of another
    form or kind, missing."""
    unknown = sorted(set(payload) - _INPUT_KEYS[kind])
    if unknown:
        raise InputError(
            f"unknown input key {unknown[0]!r} for job kind {kind!r}; "
            f"accepted: {', '.join(sorted(_INPUT_KEYS[kind]))}")
    forms = _INPUT_FORMS[kind]
    form = next((f for f in forms if next(iter(f)) in payload), forms[-1])
    stray = sorted(set(payload) - form.keys())
    if stray:
        raise InputError(f"input key {stray[0]!r} does not go with "
                         f"{next(iter(form))!r} in job kind {kind!r}")
    # The key that chose the form is read first.
    out = {}
    for key, (what, _) in form.items():
        if key in payload:
            try:
                out[key] = _KINDS[what](payload[key])
            except ValueError as exc:
                raise InputError(f"input key {key!r} of job kind {kind!r} "
                                 f"must be {what}: {exc}") from None
            if out[key] is None:
                raise InputError(f"input key {key!r} of job kind {kind!r} "
                                 f"must be {what}, got {payload[key]!r}")
    for key, (what, required) in form.items():
        if required and key not in payload:
            raise InputError(f"missing input key {key!r} ({what}) for job "
                             f"kind {kind!r}")
    return out

if __name__ == "__main__":
    sys.exit(main())
