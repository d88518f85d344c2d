"""The benchmark's three workloads, their seeded inputs and output checks.

A workload is built once per set-up from the freshly imported program
modules and a seed.  `round(k)` returns the k-th round of operations:
the same op mix every round, with inputs drawn from a generator seeded by
`(workload, seed, k)`, so a seed fixes every input and a run always
measures whole rounds.

Each `Op` calls into the program (`run`, the timed part), then the
benchmark checks the result with its own arithmetic (`check`, returning a
list of problems) and reduces it to a canonical string (`canon`) for the
result digest.  Ops with a `key` have fixed inputs; their canonical result
must equal the one recorded in `golden/results.json`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    canon: Callable[[Any], str]
    key: str | None = None


# -- the benchmark's own Picard-lattice arithmetic -------------------
# Classes are (d, m) with m a tuple: d*H - sum(m_i E_i).  This is kept
# apart from okounkov.surface so that checks do not trust the code under
# test.

def _dot(a, b) -> F:
    return a[0] * b[0] - sum((x * y for x, y in zip(a[1], b[1])), F(0))


def _add(a, b, k=1):
    return (a[0] + k * b[0], tuple(x + k * y for x, y in zip(a[1], b[1])))


def _hyp(s):
    return (F(1), (F(0),) * s)


def _exc(s, i):
    return (F(0), tuple(F(-1) if j == i else F(0) for j in range(s)))


def _pencil(s, i):
    """H - E_i."""
    return (F(1), tuple(F(1) if j == i else F(0) for j in range(s)))


# (-1)-curves on Bl_s(P^2), s <= 8: degree and nonzero multiplicities.
_CURVE_PATTERNS = (
    (1, (1, 1)), (2, (1,) * 5), (3, (2,) + (1,) * 6),
    (4, (2, 2, 2) + (1,) * 5), (5, (2,) * 6 + (1, 1)), (6, (3,) + (2,) * 7),
)
_CURVES: dict[int, list] = {}


def minus_one_curves(s: int) -> list:
    """The classical (-1)-curves on s general points (counts 1..240)."""
    if s not in _CURVES:
        out = [_exc(s, i) for i in range(s)]
        for d, mult in _CURVE_PATTERNS:
            if len(mult) > s:
                continue
            padded = mult + (0,) * (s - len(mult))
            for m in sorted(set(itertools.permutations(padded))):
                out.append((F(d), tuple(F(x) for x in m)))
        _CURVES[s] = out
    return _CURVES[s]


def psef_generators(s: int) -> list:
    """(-1)-curves plus H and the pencils H - E_i (as in criterion 5)."""
    return (minus_one_curves(s) + [_hyp(s)]
            + [_pencil(s, i) for i in range(s)])


def nef_generators(s: int) -> list:
    """Known nef classes: H, H - E_i, -K, conic pencils through 4 points."""
    out = [_hyp(s)] + [_pencil(s, i) for i in range(s)]
    out.append((F(3), (F(1),) * s))
    for quad in itertools.combinations(range(s), 4):
        out.append((F(2), tuple(F(1) if j in quad else F(0)
                                for j in range(s))))
    return out


def is_nef_bench(D, s) -> bool:
    return all(_dot(D, C) >= 0 for C in psef_generators(s))


def seshadri_bench(L, s, w) -> F:
    """Nef threshold of L - a*sum(w_i E_i) over the generator list."""
    best = None
    for C in psef_generators(s):
        den = sum((wi * C[1][i] for i, wi in enumerate(w)), F(0))
        if den > 0:
            cand = _dot(L, C) / den
            best = cand if best is None or cand < best else best
    return max(best, F(0))


def _cls(D) -> str:
    return f"{D[0]}|{','.join(map(str, D[1]))}"


def _pic(P) -> tuple:
    return (P.d, tuple(P.m))


def _rad(x) -> str:
    return f"{x.shift}+{x.coeff}r{x.radicand}"


def _radf(x) -> float:
    return float(x.shift) + float(x.coeff) * math.sqrt(x.radicand)


def _verts(P) -> str:
    return ";".join(",".join(map(str, v)) for v in P.vertices)


def _area2(verts) -> F:
    """Twice the area of a convex polygon given by its vertex set."""
    if len(verts) < 3:
        return F(0)
    cx = sum(float(v[0]) for v in verts) / len(verts)
    cy = sum(float(v[1]) for v in verts) / len(verts)
    ring = sorted(verts, key=lambda v: math.atan2(float(v[1]) - cy,
                                                  float(v[0]) - cx))
    n = len(ring)
    return abs(sum((ring[i][0] * ring[(i + 1) % n][1]
                    - ring[(i + 1) % n][0] * ring[i][1]
                    for i in range(n)), F(0)))


def _expect(cond, msg) -> list:
    return [] if cond else [msg]


# -- zariski-mix -----------------------------------------------------

# s -> (psef classes, generators per psef class, non-psef classes).
# s <= 7 is the majority, and the cheap s = 5 classes are numerous enough
# that op_p50_ms falls inside their block instead of between two kinds.
# One exact LP at s = 8 costs 0.2 to 2 s depending on the class, so the
# s = 8 psef class (the same in every round, with a two-curve negative
# part) and the s = 8 sandwich degrees do not depend on the seed: a single
# seeded s = 8 class would swing a whole run.  Those fixed s = 8 ops are
# the slowest 12.5% of a round, so op_p90_ms measures them rather than the
# seeded tail.
CLASS_PLAN = {5: (24, 5, 2), 6: (6, 5, 2), 7: (3, 5, 1), 8: (1, 2, 1)}
S8_PSEF_STREAM = "zariski-mix:s8:1"
INVARIANT_S = (5, 6, 7)          # nakayama, seshadri, sandwich each
S8_SANDWICH_DEGREES = (1, 2, 3, 4, 5, 6)


class ZariskiMix:
    name = "zariski-mix"
    trace_rounds = 2

    def __init__(self, mods, seed):
        self.mods = mods
        self.seed = seed
        self.models = {s: mods.surface.SurfaceModel(s) for s in CLASS_PLAN}
        self.round(0)

    def _psef_class(self, rng, s, ngen):
        D = (F(0), (F(0),) * s)
        for g in rng.sample(psef_generators(s), ngen):
            D = _add(D, g, F(rng.randrange(0, 5), 2))
        return D

    def _nef_class(self, rng, s):
        A, B = rng.sample(nef_generators(s), 2)
        return _add(_add((F(0), (F(0),) * s), A, rng.randrange(1, 3)),
                    B, rng.randrange(1, 3))

    def round(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = []
        for s, (n_psef, ngen, n_non) in CLASS_PLAN.items():
            psef_rng = random.Random(S8_PSEF_STREAM) if s == 8 else rng
            for _ in range(n_psef):
                D = self._psef_class(psef_rng, s, ngen)
                ops.append(self._zariski_op(s, D, True))
            for _ in range(n_non):
                # Negative against a nef class A, hence not psef.
                G = self._psef_class(rng, s, ngen)
                A = rng.choice(nef_generators(s))
                X = _hyp(s)
                c = _dot(G, A) / _dot(X, A) + F(1, 2)
                ops.append(self._zariski_op(s, _add(G, X, -c), False))
        for s in INVARIANT_S:
            ops.append(self._nakayama_op(s, self._nef_class(rng, s)))
            ops.append(self._sandwich_op(s, rng.randrange(1, 4)))
        for s in INVARIANT_S + (8,):
            w = [rng.randrange(1, 3) for _ in range(s)]
            ops.append(self._seshadri_op(s, self._nef_class(rng, s), w))
        for d in S8_SANDWICH_DEGREES:
            ops.append(self._sandwich_op(8, d))
        rng.shuffle(ops)
        return ops

    def _zariski_op(self, s, D, expect_psef):
        surface = self.mods.surface
        model = self.models[s]

        def run():
            cls = surface.PicClass(*D)
            if not surface.is_psef(model, cls):
                return False, None, None, None
            Z = surface.zariski(model, cls)
            return (True, Z, surface.check_zariski(model, cls, Z),
                    surface.vol(model, cls))

        def check(res):
            psef, Z, bad, v = res
            if psef != expect_psef:
                return [f"s={s} {_cls(D)}: psef verdict {psef}, "
                        f"constructed {expect_psef}"]
            if not psef:
                return []
            P = _pic(Z.positive)
            recon = P
            problems = _expect(bad == [], f"check_zariski: {bad}")
            for C, a in Z.negative_support:
                C = _pic(C)
                recon = _add(recon, C, a)
                problems += _expect(a > 0, "nonpositive multiplicity")
                problems += _expect(_dot(P, C) == 0, "P meets the support")
            problems += _expect(recon == D, "P + N != D")
            problems += _expect(is_nef_bench(P, s), "P not nef")
            problems += _expect(v == _dot(P, P), "vol != P^2")
            return [f"s={s} {_cls(D)}: {p}" for p in problems]

        def canon(res):
            psef, Z, _, v = res
            if not psef:
                return "no"
            N = ";".join(f"{_cls(_pic(C))}*{a}"
                         for C, a in Z.negative_support)
            return f"P={_cls(_pic(Z.positive))} N={N} vol={v}"

        return Op(f"{'zariski' if expect_psef else 'reject'}.s{s}", run,
                  check, canon)

    def _nakayama_op(self, s, L):
        inv, surface = self.mods.invariants, self.mods.surface
        model = self.models[s]

        def run():
            return inv.nakayama_mu(model, surface.PicClass(*L))

        def check(mu):
            # eps(L) <= mu <= L.N / (sum E).N for the nef N = H - E_i, -K.
            lo = seshadri_bench(L, s, [1] * s)
            hi = min([_dot(L, _pencil(s, i)) for i in range(s)]
                     + [_dot(L, (F(3), (F(1),) * s)) / s])
            x = _radf(mu)
            return _expect(float(lo) - 1e-9 <= x <= float(hi) + 1e-9,
                           f"s={s} mu({_cls(L)}) = {x} outside [{lo}, {hi}]")

        return Op(f"nakayama.s{s}", run, check, _rad)

    def _seshadri_op(self, s, L, w):
        inv, surface = self.mods.invariants, self.mods.surface
        model = self.models[s]

        def run():
            return inv.seshadri_eps(model, surface.PicClass(*L), w)

        def check(eps):
            want = seshadri_bench(L, s, [F(x) for x in w])
            ok = eps.is_rational and eps.coeff == want
            return _expect(ok, f"s={s} eps({_cls(L)}, {w}) = {_rad(eps)}, "
                               f"expected {want}")

        return Op(f"seshadri.s{s}", run, check, _rad)

    def _sandwich_op(self, s, d):
        inv, surface = self.mods.invariants, self.mods.surface
        model = self.models[s]
        L = (F(d), (F(0),) * s)

        def run():
            return inv.bounds_sandwich(model, surface.PicClass(*L))

        def check(rep):
            problems = [c["name"] for c in rep.checks if not c["pass"]]
            want = seshadri_bench(L, s, [F(1)] * s)
            ok = rep.epsilon.is_rational and rep.epsilon.coeff == want
            return ([f"s={s} sandwich({d}H) failed {p}" for p in problems]
                    + _expect(ok, f"s={s} sandwich eps != {want}"))

        def canon(rep):
            return " ".join(_rad(x) for x in (rep.epsilon, rep.mu,
                                              rep.lower_bound,
                                              rep.upper_bound))

        return Op(f"sandwich.s{s}", run, check, canon)


# -- polytope-bodies -------------------------------------------------

# V->H inputs.  Box clouds: n random integer points in [0, 4]^3, with
# many points on faces and coplanar facets.  Moment clouds: n integer
# points (d+1) (t, t^2, ..., t^d) for distinct seeded integers t, always in
# convex position (the cyclic polytope), plus two integer interior
# centroids of d+1 of them that hull must drop; their H-rep and volume
# cost nearly the same on every seed.  The d = 3 moment clouds are the most
# numerous kind, so op_p50_ms falls inside their block, and the d = 4 ones
# are the slowest ops after the four fixed heavy ones, so op_p90_ms falls
# inside theirs: neither follows a lucky draw of the other kinds.
BOX_CLOUDS, BOX_POINTS, BOX = 20, (10, 15), 4
MOMENT_PLAN = ((3, 50, 10), (4, 15, 9))     # d, clouds, points
MOMENT_T = range(-5, 6)
SURFACE_R1_BODIES = 20
R1_STEP = F(1, 4)
WEIGHT_MENU_2 = ([1, 1], [2, 1], [1, 2], [3, 2], [3, 1], [1, 3])
WEIGHT_MENU_1 = ([1], [2], [3])
SCALES = (1, 2, 3)


class PolytopeBodies:
    name = "polytope-bodies"
    trace_rounds = 1

    def __init__(self, mods, seed):
        self.mods = mods
        self.seed = seed
        toric, registry = mods.toric, mods.registry
        self.fixtures = {n: toric.load_fixture(n)
                         for n in toric.fixture_names()}
        self.setups = {n: registry.invariant_setup(n)
                       for n in ("bl1p2", "bl2p2")}
        self.models = {s: mods.surface.SurfaceModel(s) for s in (1, 2, 3)}
        self.pairs = []
        for name, fx in sorted(self.fixtures.items()):
            for dname, D in sorted(fx["divisors"].items()):
                for fname, flags in sorted(fx["flags"].items()):
                    # The body is defined when D vanishes on every flag ray.
                    if all(D.coeffs[i] == 0 for f in flags.flags for i in f):
                        self.pairs.append((name, dname, fname))
        self.round(0)

    def _fresh(self, body):
        return self.mods.polytope.Polytope(body.ambient_dim, body.vertices)

    def fixed_ops(self):
        """Every op with fixed inputs, keyed; rounds draw from these."""
        ops = {}
        for name, dname, fname in self.pairs:
            for k in SCALES:
                op = self._toric_op(name, dname, fname, k)
                ops[op.key] = op
        for w in WEIGHT_MENU_1:
            op = self._xi_op("bl1p2", w)
            ops[op.key] = op
        for w in WEIGHT_MENU_2:
            for op in (self._xi_op("bl2p2", w), self._slice_op("bl2p2", w),
                       self._toric_slice_op(w)):
                ops[op.key] = op
        for op in (self._slice_op("bl1p2", [1]), self._cube_op(),
                   self._semigroup_op()):
            ops[op.key] = op
        for s, cls in ((2, (1, (0, 0))), (3, (2, (1, 1, 1)))):
            op = self._surface_r2_op(s, (F(cls[0]), tuple(map(F, cls[1]))))
            ops[op.key] = op
        return ops

    def round(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        fixed = self.fixed_ops()
        keys = [f"toric:{n}:{d}:{f}:{rng.choice(SCALES)}"
                for n, d, f in self.pairs]
        keys += ["slice:bl1p2:1", f"slice:bl2p2:{_w(rng.choice(WEIGHT_MENU_2))}",
                 f"toric-slice:{_w(rng.choice(WEIGHT_MENU_2))}",
                 f"xi:bl1p2:{_w(rng.choice(WEIGHT_MENU_1))}",
                 f"xi:bl2p2:{_w(rng.choice(WEIGHT_MENU_2))}",
                 f"xi:bl2p2:{_w(rng.choice(WEIGHT_MENU_2))}",
                 "cube4", "semigroup:bl1p2:O2:4",
                 "surface-r2:s2", "surface-r2:s3"]
        ops = [fixed[key] for key in keys]
        for _ in range(BOX_CLOUDS):
            pts = [tuple(rng.randrange(0, BOX + 1) for _ in range(3))
                   for _ in range(rng.randrange(*BOX_POINTS))]
            ops.append(self._cloud_op("cloud.box.d3", pts, 3))
        for d, clouds, n in MOMENT_PLAN:
            for _ in range(clouds):
                ops.append(self._cloud_op(f"cloud.moment.d{d}",
                                          _moment_cloud(rng, d, n), d))
        for _ in range(SURFACE_R1_BODIES):
            ops.append(self._surface_r1_op(rng))
        rng.shuffle(ops)
        return ops

    def _toric_op(self, name, dname, fname, k):
        toric = self.mods.toric
        fx = self.fixtures[name]

        def run():
            D = fx["divisors"][dname].scale(k)
            return toric.extended_body_toric(fx["fan"], D, fx["flags"][fname])

        return Op("toric.body", run, _sorted_vertices, _verts,
                  key=f"toric:{name}:{dname}:{fname}:{k}")

    def _xi_op(self, name, w):
        inv = self.mods.invariants
        setup = self.setups[name]

        def run():
            return inv.xi_constant(self._fresh(setup.body), w, setup.n,
                                   setup.r)

        def check(xi):
            # eps == xi on the line class of the fixture blow-up.
            eps = seshadri_bench(_hyp(setup.s), setup.s, [F(x) for x in w])
            return _expect(xi == eps, f"{name} {w}: xi {xi} != eps {eps}")

        return Op("invariants.xi", run, check, str, key=f"xi:{name}:{_w(w)}")

    def _slice_op(self, name, w):
        inv = self.mods.invariants
        setup = self.setups[name]

        def run():
            return inv.slice_volume_check(self._fresh(setup.body), w, setup.n,
                                          setup.r, setup.vol_x)

        def check(rep):
            return [f"{name} {w}: {c['name']} failed"
                    for c in rep.checks if not c["pass"]]

        return Op("invariants.slice", run, check,
                  lambda rep: json.dumps(rep.checks, sort_keys=True),
                  key=f"slice:{name}:{_w(w)}")

    def _toric_slice_op(self, w):
        polytope, toric = self.mods.polytope, self.mods.toric
        fx = self.fixtures["bl2p2"]

        def run():
            body = toric.extended_body_toric(
                fx["fan"], fx["divisors"]["H-E2"], fx["flags"]["inf2"])
            sl, scale = polytope.intersect_subspace(
                body, polytope.SliceSpec(2, 2, tuple(w)))
            return sl, polytope.volume(sl) * scale

        return Op("polytope.slice", run, lambda res: [],
                  lambda res: f"{_verts(res[0])} vol={_rad(res[1])}",
                  key=f"toric-slice:{_w(w)}")

    def _cloud_op(self, kind, pts, d):
        polytope = self.mods.polytope

        def run():
            P = polytope.hull(pts, d)
            return P, P.halfspaces(), polytope.volume(P)

        return Op(kind, run, lambda res: _hrep_problems(res, pts, d),
                  _hull_canon)

    def _cube_op(self):
        polytope = self.mods.polytope
        pts = list(itertools.product((0, 1), repeat=4))

        def run():
            P = polytope.hull(pts, 4)
            return P, P.halfspaces(), polytope.volume(P)

        def check(res):
            P, (halfs, eqs), v = res
            return (_hrep_problems(res, pts, 4)
                    + _expect(len(halfs) == 8 and not eqs, "cube facets")
                    + _expect(len(P.vertices) == 16, "cube vertices")
                    + _expect(v.is_rational and v.coeff == 1,
                              f"cube volume {_rad(v)} != 1"))

        return Op("cube4", run, check, _hull_canon, key="cube4")

    def _semigroup_op(self):
        toric = self.mods.toric
        fx = self.fixtures["bl1p2"]

        def run():
            return toric.semigroup_body_approx(
                fx["fan"], fx["divisors"]["O2"], fx["flags"]["inf"], 4)

        return Op("toric.semigroup", run, _sorted_vertices,
                  _verts, key="semigroup:bl1p2:O2:4")

    def _surface_r2_op(self, s, D):
        surface = self.mods.surface
        model = self.models[s]

        def run():
            return surface.surface_body_outer(
                model, surface.PicClass(*D), [0, 1], F(1, 4), F(1))

        return Op("surface.body.r2", run, _sorted_vertices,
                  _verts, key=f"surface-r2:s{s}")

    def _surface_r1_op(self, rng):
        s = rng.choice((1, 2, 3))
        i = rng.randrange(s)
        # A big class: a big nef part plus an effective part.  N <= the
        # effective part, so drawing it from E_i and the curves disjoint
        # from E_i keeps the known_defects case (a negative-part curve
        # meeting E_i) out of the run; see record.json.
        nefs = [_hyp(s)] + [_pencil(s, j) for j in range(s)]
        D = (F(rng.randrange(1, 3)), (F(0),) * s)
        for g in rng.sample(nefs, min(2, len(nefs))):
            D = _add(D, g, rng.randrange(0, 2))
        curves = [C for C in minus_one_curves(s)
                  if C == _exc(s, i) or C[1][i] == 0]
        for C in rng.sample(curves, min(2, s)):
            D = _add(D, C, rng.randrange(0, 3))
        inv, surface = self.mods.invariants, self.mods.surface
        model = self.models[s]

        def run():
            cls = surface.PicClass(*D)
            mu = inv.nakayama_mu(model, cls, points=[i])
            # A grid reaching mu covers the whole body (no truncation).
            t_max = math.ceil(mu.as_rational() / R1_STEP) * R1_STEP
            body = surface.surface_body_outer(model, cls, [i], R1_STEP, t_max)
            return body, surface.vol(model, cls)

        def check(res):
            body, v = res
            a2 = _area2(body.vertices)
            return _expect(a2 == v, f"s={s} {_cls(D)} point {i}: "
                                    f"2 vol(body) = {a2} != vol(L) = {v}")

        return Op("surface.body.r1", run, check,
                  lambda res: f"{_verts(res[0])} vol={res[1]}")


def _moment_cloud(rng, d, n) -> list:
    k = d + 1
    pts = [tuple(k * t ** e for e in range(1, d + 1))
           for t in rng.sample(MOMENT_T, n)]
    for _ in range(2):
        simplex = rng.sample(pts, k)
        pts.append(tuple(sum(p[j] for p in simplex) // k for j in range(d)))
    return pts


def _w(w) -> str:
    return ",".join(map(str, w))


def _sorted_vertices(P) -> list:
    vs = list(P.vertices)
    return _expect(vs == sorted(set(vs)) and vs,
                   "vertex list empty, unsorted or repeated")


def _hull_canon(res) -> str:
    P, (halfs, eqs), v = res
    hs = ";".join(f"{','.join(map(str, n))}<={c}" for n, c in halfs)
    es = ";".join(f"{','.join(map(str, n))}=={c}" for n, c in eqs)
    return f"{_verts(P)} H={hs} E={es} vol={_rad(v)}"


def _hrep_problems(res, pts, d) -> list:
    """V- and H-representation agree with the input point cloud."""
    P, (halfs, eqs), _ = res
    pts = [tuple(F(x) for x in p) for p in pts]
    problems = _sorted_vertices(P)
    problems += _expect(set(P.vertices) <= set(pts), "vertex not an input")
    dim = d - len(eqs)
    for p in pts:
        if any(_lin(n, p) > c for n, c in halfs) or \
           any(_lin(n, p) != c for n, c in eqs):
            problems.append("input point outside the H-representation")
            break
    for n, c in halfs:
        if sum(_lin(n, v) == c for v in P.vertices) < dim:
            problems.append("facet with too few vertices")
            break
    return problems


def _lin(n, p) -> F:
    return sum((a * b for a, b in zip(n, p)), F(0))


# -- cli-jobs --------------------------------------------------------

class CliJobs:
    name = "cli-jobs"
    trace_rounds = 10

    def __init__(self, mods, seed, root: Path, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.out_dir = out_dir
        self.jobs = []
        for path in sorted((root / "jobs").glob("*.json")):
            job = json.loads(path.read_text())
            artifacts = [job["output_path"]]
            if job.get("render"):
                artifacts.append(Path(job["output_path"]).with_suffix(".svg")
                                 .name)
            golden = {a: (GOLDEN_DIR / "cli" / a).read_bytes()
                      for a in artifacts}
            self.jobs.append((path, golden))
        if not self.jobs:
            raise FileNotFoundError(f"no jobs under {root / 'jobs'}")
        self.round(0)

    def round(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        order = list(self.jobs)
        rng.shuffle(order)
        return [self._job_op(path, golden) for path, golden in order]

    def _job_op(self, path, golden):
        cli = self.mods.cli
        argv = ["run", "--job", str(path), "--out", str(self.out_dir)]

        def run():
            for a in golden:  # no stale artifact can pass the check
                (self.out_dir / a).unlink(missing_ok=True)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def artifacts():
            return {a: (self.out_dir / a).read_bytes() for a in golden
                    if (self.out_dir / a).exists()}

        def check(rc):
            got = artifacts()
            return (_expect(rc == 0, f"{path.name}: exit code {rc}")
                    + [f"{path.name}: {a} differs from the golden bytes"
                       for a in golden if got.get(a) != golden[a]])

        def canon(rc):
            got = artifacts()
            return f"{rc} " + " ".join(
                f"{a}:{hashlib.sha256(got[a]).hexdigest()}"
                for a in sorted(got))

        return Op("cli." + path.stem, run, check, canon)


WORKLOADS = {w.name: w for w in (ZariskiMix, PolytopeBodies, CliJobs)}
