"""Batch command-line front end.

Usage: okounkov run --job job.json --out results/ [--render]
                    [--grid-step p/q] [--m-max k]

A job file is `{"schema": 1, "kind": <kind>, "input": {...},
"output_path": "name.json"}`.  Output JSON is deterministic
(sorted keys, fixed formatting): identical inputs give byte-identical
artifacts.  Exit codes: 0 success, 1 input error, 2 check failure,
3 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import invariants, registry, render, surface, toric
from .numbers import format_rat, parse_rat
from .polytope import Polytope
from .surface import PicClass, SurfaceModel

class InputError(Exception):
    pass


class CheckFailure(Exception):
    def __init__(self, msg, payload):
        super().__init__(msg)
        self.payload = payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="okounkov")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON job file")
    runp.add_argument("--job", required=True, help="job description file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--render", action="store_true",
                      help="also emit an SVG for 2-D polytope results")
    runp.add_argument("--grid-step", default=None,
                      help="grid step p/q of surface-body jobs: checked "
                      "and echoed in meta, the body is exact whatever it is")
    runp.add_argument("--m-max", type=int, default=None,
                      help="sampling level cap (semigroup-sample jobs)")
    args = parser.parse_args(argv)
    try:
        return _run(args)
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


def _run(args) -> int:
    with open(args.job) as fh:
        job = json.load(fh)
    if job.get("schema") != 1:
        raise InputError(f'job "schema" must be 1, got {job.get("schema")!r}')
    kind = job.get("kind")
    if kind not in _HANDLERS:
        raise InputError(f"unknown job kind {kind!r}; expected one of "
                         f"{', '.join(_HANDLERS)}")
    payload = job.get("input", {})
    if not isinstance(payload, dict):
        raise InputError('job "input" must be an object')
    _check_input(kind, payload)
    if args.grid_step is not None:
        payload = {**payload, "grid_step": args.grid_step}
    if args.m_max is not None:
        payload = {**payload, "m_max": args.m_max}
    result, poly, failed = _HANDLERS[kind](payload)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_name = job.get("output_path", f"{kind}.json")
    out_path = out_dir / out_name
    doc = {"schema": 1, "kind": kind, "result": result}
    with open(out_path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.render or job.get("render"):
        if poly is None:
            raise InputError(f"job kind {kind!r} has no renderable polytope")
        render.render_svg(poly, out_path.with_suffix(".svg"))
    if failed:
        raise CheckFailure(failed, result)
    print(str(out_path))
    return 0


# -- payload parsing helpers -----------------------------------------

def _model(payload) -> SurfaceModel:
    if "surface" in payload:
        return SurfaceModel.from_json(payload["surface"])
    return SurfaceModel(int(payload["s"]))


def _pic(payload, key="class") -> PicClass:
    return PicClass.from_json(payload[key])


def _toric_parts(payload):
    if "fixture" in payload:
        fx = toric.load_fixture(payload["fixture"])
        fan = fx["fan"]
        D = fx["divisors"][payload["divisor"]]
        flags = fx["flags"][payload["flags"]]
    else:
        fan = toric.Fan.from_json(payload["fan"])
        D = toric.ToricDivisor.from_json(payload["divisor"])
        flags = toric.ToricFlagSpec.from_json(payload["flags"])
    return fan, D, flags


# -- job handlers ----------------------------------------------------
# Each returns (result-json, renderable-polytope-or-None, failure-msg-or-None).

def _job_toric_body(p):
    fan, D, flags = _toric_parts(p)
    body = toric.extended_body_toric(fan, D, flags)
    return body.to_json(), body, None


def _job_semigroup_sample(p):
    fan, D, flags = _toric_parts(p)
    m_max = int(p.get("m_max", 3))
    body = toric.semigroup_body_approx(fan, D, flags, m_max)
    out = body.to_json()
    out["m_max"] = m_max
    return out, body, None


def _job_surface_zariski(p):
    model = _model(p)
    D = _pic(p)
    Z = surface.zariski(model, D)
    bad = surface.check_zariski(model, D, Z)
    out = Z.to_json()
    out["violations"] = bad
    return out, None, ("; ".join(bad) if bad else None)


def _job_surface_body(p):
    model = _model(p)
    D = _pic(p)
    points = p.get("points", range(model.s))
    step = parse_rat(p.get("grid_step", "1/2"))
    t_max = parse_rat(p.get("t_max", "1"))
    body = surface.surface_body_outer(model, D, points, step, t_max)
    out = body.to_json()
    out["meta"] = dict(body.meta)
    return out, (body if body.ambient_dim <= 2 else None), None


def _job_seshadri(p):
    model = _model(p)
    L = _pic(p)
    w = [parse_rat(x) for x in p["weights"]]
    eps = invariants.seshadri_eps(model, L, w)
    return {"epsilon": eps.to_json()}, None, None


def _job_nakayama(p):
    model = _model(p)
    L = _pic(p)
    mu = invariants.nakayama_mu(model, L, p.get("points"))
    return {"mu": mu.to_json()}, None, None


def _job_xi(p):
    if "fixture" in p:
        fx = registry.invariant_setup(p["fixture"])
        body, n, r = fx.body, fx.n, fx.r
    else:
        body = Polytope.from_json(p["body"])
        n, r = int(p["n"]), int(p["r"])
    w = [parse_rat(x) for x in p["weights"]]
    xi = invariants.xi_constant(body, w, n, r)
    return {"xi": format_rat(xi)}, None, None


def _job_eps_xi_check(p):
    fx = registry.invariant_setup(p["fixture"])
    model = SurfaceModel(fx.s)
    w = [parse_rat(x) for x in p["weights"]]
    rep = invariants.check_eps_eq_xi(model, fx.L, w, fx.body, fx.n)
    ok = rep.all_pass()
    return rep.to_json(), None, (None if ok else "eps != xi")


def _job_slice_volume(p):
    if "fixture" in p:
        fx = registry.invariant_setup(p["fixture"])
        body, n, r, vol_x = fx.body, fx.n, fx.r, fx.vol_x
    else:
        body = Polytope.from_json(p["body"])
        n, r = int(p["n"]), int(p["r"])
        vol_x = parse_rat(p["vol_x"])
    w = [parse_rat(x) for x in p["weights"]]
    rep = invariants.slice_volume_check(body, w, n, r, vol_x)
    ok = rep.all_pass()
    return rep.to_json(), None, (None if ok else "slice-volume check failed")


def _job_nagata(p):
    verdict = invariants.nagata_check(
        int(p["r"]), parse_rat(p["d"]), [parse_rat(x) for x in p["m"]]
    )
    return {"nagata_bound_holds": bool(verdict)}, None, None


def _job_standard_form(p):
    verdict = invariants.is_standard_form(
        parse_rat(p["d"]), [parse_rat(x) for x in p["m"]]
    )
    return {"standard_form": bool(verdict)}, None, None


def _job_irrationality(p):
    out = invariants.irrationality_certificate(
        int(p["s"]), parse_rat(p["d"]), [parse_rat(x) for x in p["m"]]
    )
    return _jsonify(out), None, None


def _job_homogeneous(p):
    out = invariants.homogeneous_eps(
        int(p["s"]), parse_rat(p["d"]), parse_rat(p["c"])
    )
    return _jsonify(out), None, None


def _job_nef_boundary(p):
    out = invariants.nef_boundary_check(
        parse_rat(p["d"]), [parse_rat(x) for x in p["m"]]
    )
    return _jsonify(out), None, None


def _jsonify(obj):
    from .numbers import RadVal

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

# The kinds of input value, by what a message calls them.  A bool is not an
# integer; a rational is a "p/q" string or an integer.
def _rational(v) -> bool:
    try:
        return type(v) is not bool and parse_rat(v) is not None
    except ValueError:
        return False


def _rationals(v) -> bool:
    return isinstance(v, list) and all(map(_rational, v))


def _class(v) -> bool:
    return (isinstance(v, dict) and v.keys() == {"d", "m"}
            and _rational(v["d"]) and _rationals(v["m"]))


_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a rational": _rational,
    "a list of rationals": _rationals,
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a class {d, m}": _class,
    "a surface {s, mode, neg_curves}": lambda v: (
        isinstance(v, dict) and type(v.get("s")) is int
        and isinstance(v.get("mode", ""), str)
        and isinstance(v.get("neg_curves", []), list)
        and all(map(_class, v.get("neg_curves", [])))),
    "a body {ambient_dim, vertices}": lambda v: (
        isinstance(v, dict) and type(v.get("ambient_dim")) is int
        and isinstance(v.get("vertices"), list)
        and all(map(_rationals, v["vertices"]))),
    # surface.flag_points checks them against s, before any work.
    "flag points": lambda v: True,
}

# The input forms of each kind: key -> (kind of value, required).  A job
# takes the first form whose first key it gives, else the last form.  Kept
# apart from _HANDLERS so that a handler can be swapped without redeclaring
# them; _check_input enforces them before any work.
_SURFACE = {"surface": ("a surface {s, mode, neg_curves}", True),
            "class": ("a class {d, m}", True)}
_S = {"s": ("an integer", True), "class": ("a class {d, m}", True)}
_FIXTURE = {"fixture": ("a string", True), "divisor": ("a string", True),
            "flags": ("a string", True)}
_FAN = {"fan": ("an object", True), "divisor": ("an object", True),
        "flags": ("an object", True)}
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


def _check_input(kind, payload) -> None:
    """InputError naming the first key of payload that the kind refuses:
    unknown, not of the chosen form, of the wrong kind, or missing."""
    unknown = sorted(set(payload) - _INPUT_KEYS[kind])
    if unknown:
        raise InputError(
            f"unknown input key {unknown[0]!r} for job kind {kind!r}; "
            f"accepted: {', '.join(sorted(_INPUT_KEYS[kind]))}")
    forms = _INPUT_FORMS[kind]
    form = next((f for f in forms if next(iter(f)) in payload), forms[-1])
    for key in sorted(payload):
        if key not in form:
            raise InputError(f"input key {key!r} does not go with "
                             f"{next(iter(form))!r} in job kind {kind!r}")
        if not _KINDS[form[key][0]](payload[key]):
            raise InputError(f"input key {key!r} of job kind {kind!r} must "
                             f"be {form[key][0]}, got {payload[key]!r}")
    for key, (what, required) in form.items():
        if required and key not in payload:
            raise InputError(f"missing input key {key!r} ({what}) for job "
                             f"kind {kind!r}")

if __name__ == "__main__":
    sys.exit(main())
