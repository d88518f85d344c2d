import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okounkov import cli, lp, numbers, registry, render, surface, toric
from okounkov.cli import main
from okounkov.numbers import parse_rat
from okounkov.polytope import Polytope

import reference


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_job(tmp_path, doc, extra=()):
    job = write_job(tmp_path, doc)
    out = tmp_path / "results"
    code = main(["run", "--job", job, "--out", str(out), *extra])
    return code, out


def read_result(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def test_toric_body_job(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body",
        "input": {"fixture": "p2", "divisor": "O1", "flags": "pt"},
        "output_path": "body.json",
    })
    assert code == 0
    doc = read_result(out, "body.json")
    assert doc["schema"] == 1 and doc["kind"] == "toric-body"
    body = Polytope.from_json(doc["result"])
    assert len(body.vertices) == 3


def test_semigroup_sample_m_max_override(tmp_path):
    # The job key m_max overrides the default level cap, 3.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "semigroup-sample",
        "input": {"fixture": "bl1p2", "divisor": "O1", "flags": "inf",
                  "m_max": 2},
    })
    assert code == 0
    doc = read_result(out, "semigroup-sample.json")
    assert doc["result"]["m_max"] == 2


def test_surface_zariski_job(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-zariski",
        "input": {"s": 1, "class": {"d": "1", "m": ["-2"]}},
    })
    assert code == 0
    doc = read_result(out, "surface-zariski.json")
    assert doc["result"]["violations"] == []
    assert doc["result"]["negative_support"][0]["mult"] == "2"


def test_surface_zariski_job_refuses_class_of_wrong_s(tmp_path, capsys):
    # Four multiplicities on Bl_3: refused as an input error, nothing written.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-zariski",
        "input": {"s": 3, "class": {"d": "2", "m": ["1", "1", "1", "1"]}},
    })
    assert code == 1 and not out.exists()
    assert "a class of s = 4 on a model of s = 3" in capsys.readouterr().err


def test_surface_body_grid_step_override(tmp_path):
    # The job key grid_step overrides the default, 1/2, in the meta.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-body",
        "input": {"s": 1, "class": {"d": "1", "m": ["0"]}, "points": [0],
                  "grid_step": "1/4"},
    })
    assert code == 0
    doc = read_result(out, "surface-body.json")
    assert doc["result"]["meta"]["grid_step"] == "1/4"
    body = Polytope.from_json(doc["result"])
    assert len(body.vertices) == 3


def test_seshadri_and_nakayama_jobs(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "seshadri",
        "input": {"s": 2, "class": {"d": "1", "m": ["0", "0"]},
                  "weights": ["2", "1"]},
        "output_path": "eps.json",
    })
    assert code == 0
    assert read_result(out, "eps.json")["result"]["epsilon"] == {
        "coeff": "1/3", "radicand": "1"
    }
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nakayama",
        "input": {"s": 4, "class": {"d": "1", "m": ["0", "0", "0", "0"]}},
        "output_path": "mu.json",
    })
    assert code == 0
    assert read_result(out, "mu.json")["result"]["mu"] == {
        "coeff": "1/2", "radicand": "1"
    }


def test_nakayama_job_reads_points(tmp_path, capsys):
    # 3H on Bl3: mu is 2 against all three points, 3 against one or two.
    job = {"schema": 1, "kind": "nakayama",
           "input": {"s": 3, "class": {"d": "3", "m": ["0", "0", "0"]}}}
    mus = []
    for points in (None, [0], [1, 2]):
        if points is not None:
            job["input"]["points"] = points
        code, out = run_job(tmp_path, job)
        assert code == 0
        mus.append(read_result(out, "nakayama.json")["result"]["mu"])
    assert [mu["coeff"] for mu in mus] == ["2", "3", "3"]
    job["input"]["points"] = [3]
    code, _ = run_job(tmp_path, job)
    assert code == 1
    assert "flag points must be" in capsys.readouterr().err


def test_xi_job_fixture_and_inline(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "xi",
        "input": {"fixture": "bl2p2", "weights": ["1", "1"]},
    })
    assert code == 0
    assert read_result(out, "xi.json")["result"]["xi"] == "1/2"
    inline_body = {
        "ambient_dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"]],
    }
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "xi",
        "input": {"body": inline_body, "n": 2, "r": 1, "weights": ["1"]},
        "output_path": "xi-inline.json",
    })
    assert code == 0
    assert read_result(out, "xi-inline.json")["result"]["xi"] == "1"


def test_xi_job_refuses_non_positive_weights(tmp_path, capsys):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "xi",
        "input": {"fixture": "bl2p2", "weights": ["1", "0"]},
    })
    assert code == 1 and not out.exists()
    assert "weights must be r positive rationals" in capsys.readouterr().err


def test_eps_xi_check_job(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "eps-xi-check",
        "input": {"fixture": "bl2p2", "weights": ["2", "1"]},
    })
    assert code == 0
    doc = read_result(out, "eps-xi-check.json")
    assert all(c["pass"] for c in doc["result"]["checks"])


def test_slice_volume_job_pass_and_fail(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "slice-volume",
        "input": {"fixture": "bl1p2", "weights": ["1"]},
    })
    assert code == 0
    # An explicit body with the wrong reference volume fails the identity
    # and exits 2 (the result file is still written).
    square = {"ambient_dim": 2,
              "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "slice-volume",
        "input": {"body": square, "n": 2, "r": 1, "vol_x": "5",
                  "weights": ["1"]},
        "output_path": "bad.json",
    })
    assert code == 2
    doc = read_result(out, "bad.json")
    assert doc["result"]["checks"] == [{
        "name": "slice-volume-identity", "pass": False,
        "detail": "slice volume RadVal(1), target RadVal(5/2)",
        "slice_volume": {"coeff": "1", "radicand": "1"}}]


def test_zariski_violation_exit_code(tmp_path):
    # A valid decomposition never fails its own audit, so exercising exit 2
    # for this kind uses the slice-volume path above; here we confirm a nef
    # class reports no violations and exit 0.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-zariski",
        "input": {"s": 2, "class": {"d": "3", "m": ["1", "1"]}},
    })
    assert code == 0


def test_arithmetic_jobs(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nagata",
        "input": {"r": 10, "d": "3", "m": ["1"] * 10},
    })
    assert code == 0
    assert read_result(out, "nagata.json")["result"] == {
        "nagata_bound_holds": False
    }
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "standard-form",
        "input": {"d": "3", "m": ["1", "1", "1"]},
    })
    assert code == 0
    assert read_result(out, "standard-form.json")["result"] == {
        "standard_form": True
    }
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "irrationality",
        "input": {"s": 10, "d": "10", "m": ["3"] * 10},
    })
    assert code == 0
    doc = read_result(out, "irrationality.json")
    assert doc["result"]["irrational"] is True
    assert doc["result"]["eps"] == {"coeff": "1", "radicand": "10"}
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "homogeneous",
        "input": {"s": 12, "d": "4", "c": "1"},
    })
    assert code == 0
    assert read_result(out, "homogeneous.json")["result"]["branch"] == 1
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nef-boundary",
        "input": {"d": "3", "m": ["1"] * 9},
    })
    assert code == 0
    doc = read_result(out, "nef-boundary.json")
    assert doc["result"]["nef"] is True and doc["result"]["on_boundary"]


def test_conditional_results_carry_assumption_tag(tmp_path):
    for job in [
        {"schema": 1, "kind": "irrationality",
         "input": {"s": 10, "d": "10", "m": ["3"] * 10}},
        {"schema": 1, "kind": "homogeneous",
         "input": {"s": 12, "d": "4", "c": "1"}},
    ]:
        code, out = run_job(tmp_path, job)
        doc = read_result(out, f"{job['kind']}.json")
        assert doc["result"]["assumption"].startswith("conditional")


def test_bundled_jobs_reproduce_the_golden_artifacts(tmp_path, monkeypatch):
    # The goldens are only read: every job's artifacts, byte for byte, one
    # result file per job and no file on either side without its pair.
    # Every job runs twice in this process from an empty registry memo: the
    # first run builds the fixture setups, the second reads them from the
    # memo, and both are checked as strictly.
    monkeypatch.setattr(registry, "_MEMO", {})
    root = Path(__file__).resolve().parents[1]
    golden = root / "perfbench" / "golden" / "cli"
    jobs = sorted((root / "jobs").glob("*.json"))
    names = sorted(p.name for p in golden.iterdir())
    assert len([n for n in names if n.endswith(".json")]) == len(jobs)
    for run in ("first", "second"):
        out = tmp_path / run
        for job in jobs:
            assert main(["run", "--job", str(job), "--out", str(out)]) == 0, \
                (run, job)
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == \
                (golden / name).read_bytes(), (run, name)


# -- error handling ---------------------------------------------------

@pytest.mark.parametrize("kind, payload, message", [
    # Nagata's bound needs r >= 1 points and at most r multiplicities.
    ("nagata", {"r": 0, "d": "1", "m": ["0"]}, "r >= 1 points"),
    ("nagata", {"r": -4, "d": "1", "m": []}, "r >= 1 points"),
    ("nagata", {"r": 2, "d": "3", "m": ["1"] * 3}, "at most r multiplicities"),
    # L.E_i = c < 0: the class is not nef, and d - 2c is no lower bound.
    ("homogeneous", {"s": 10, "d": "4", "c": "-1"},
     "multiplicity c must be nonnegative"),
])
def test_arithmetic_input_range_exit_1(tmp_path, capsys, kind, payload,
                                       message):
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind,
                                   "input": payload})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


def test_unknown_kind_exit_1(tmp_path, capsys):
    code, out = run_job(tmp_path, {"schema": 1, "kind": "nope", "input": {}})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job key 'kind' must be one of toric-body, "
        "semigroup-sample, surface-zariski, surface-body, seshadri, "
        "nakayama, xi, eps-xi-check, slice-volume, nagata, standard-form, "
        "irrationality, homogeneous, nef-boundary, got 'nope'\n")


@pytest.mark.parametrize("extra, message", [
    ({"points": [2]}, "flag points must be"),
    ({"points": [-1]}, "flag points must be"),
    ({"points": [0, 0]}, "flag points must be"),
    ({"points": []}, "flag points must be"),
    ({"points": 3}, "flag points must be"),
    ({"t_max": "-1"}, "t_max must be nonnegative"),
    ({"points": [True]}, "flag points must be"),
])
def test_bad_flag_points_exit_1(tmp_path, capsys, extra, message):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-body",
        "input": {"s": 2, "class": {"d": "1", "m": ["0", "0"]}, **extra},
    })
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind, payload, key", [
    ("surface-body", {"s": 2, "class": {"d": "1", "m": ["0", "0"]},
                      "grid-step": "1/8"}, "grid-step"),
    ("nagata", {"r": 9, "d": "3", "m": ["1"] * 9, "weight": "1"}, "weight"),
])
def test_unknown_input_key_exit_1(tmp_path, capsys, kind, payload, key):
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind,
                                   "input": payload})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"input error: job kind {kind!r} input key "
                          f"{key!r} is unknown; accepted: ")
    # The keys of the form that the input's first key chooses.
    form = next(f for f in cli._KINDS[kind][1] if next(iter(f)) in payload)
    assert err.endswith(f"accepted: {', '.join(form)}\n")


def test_input_must_be_an_object(tmp_path, capsys):
    code, out = run_job(tmp_path, {"schema": 1, "kind": "nagata",
                                   "input": ["r", "d", "m"]})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job key 'input' must be an object, got "
        "['r', 'd', 'm']\n")


def test_job_must_be_an_object(tmp_path, capsys):
    # A list at the top level has no "schema": an input error, not a crash.
    code, out = run_job(tmp_path, [{"schema": 1, "kind": "nagata"}])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job must be an object, got "
        "[{'schema': 1, 'kind': 'nagata'}]\n")


@pytest.mark.parametrize("key", ["outputpath", "inputs", "Render", "seed"])
def test_unknown_job_key_exit_1(tmp_path, capsys, key):
    # A misspelt output_path is refused, not dropped for the default name.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nagata", key: "x.json",
        "input": {"r": 9, "d": "3", "m": ["1"] * 9},
    })
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"input error: job key {key!r} is unknown; accepted: schema, kind, "
        f"input, output_path, render\n")


def test_bundled_jobs_use_only_accepted_keys():
    root = Path(__file__).resolve().parents[1]
    for job in sorted((root / "jobs").glob("*.json")):
        assert set(json.loads(job.read_text())) <= set(cli._JOB), job


@pytest.mark.parametrize("name", [5, None, "../x.json", "sub/x.json", "",
                                  "..", "ABSOLUTE"])
def test_output_path_must_be_a_file_name(tmp_path, capsys, name):
    # Nothing is written, neither in --out nor beside it.
    if name == "ABSOLUTE":
        name = str(tmp_path / "x.json")
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nagata", "output_path": name,
        "input": {"r": 9, "d": "3", "m": ["1"] * 9},
    })
    assert code == 1 and not out.exists()
    assert not (tmp_path / "x.json").exists()
    assert capsys.readouterr().err == (
        f"input error: job key 'output_path' must be a file name, written "
        f"in --out, got {name!r}\n")


def test_override_flags_are_refused(tmp_path, capsys):
    # The job file is the whole job: render, m_max and grid_step are job
    # keys, and no flag sets them past the key check.  A job that runs
    # without a flag is refused with it, and nothing is written.
    job = write_job(tmp_path, {"schema": 1, "kind": "nagata",
                               "input": {"r": 9, "d": "3", "m": ["1"] * 9}})
    assert main(["run", "--job", job, "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    out = tmp_path / "results"
    for flag in (["--render"], ["--m-max", "2"], ["--grid-step", "1/4"]):
        assert main(["run", "--job", job, "--out", str(out), *flag]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"input error: unrecognized arguments: {' '.join(flag)}\n")


# A bundled job of each kind.
_JOB_OF_KIND = {json.loads(p.read_text())["kind"]: p for p in sorted(
    (Path(__file__).parent.parent / "jobs").glob("*.json"))}


@pytest.mark.parametrize("kind", cli._KINDS)
def test_malformed_grid_step_exit_1_for_every_kind(tmp_path, capsys, kind):
    # --grid-step is no option: the parser refuses it, whatever the kind,
    # before the job is read.
    out = tmp_path / "results"
    code = main(["run", "--job", str(_JOB_OF_KIND[kind]), "--out", str(out),
                 "--grid-step", "x"])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: unrecognized arguments: --grid-step x\n")


_READ_ONCE = [
    ("seshadri", {"s": 2, "class": {"d": "1", "m": ["0", "1/2"]},
                  "weights": ["2", "1"]}, ["0", "1", "1", "1/2", "2"]),
    # a user surface: its curves are read by the table, not again when the
    # model is built
    ("nakayama", {"surface": {"s": 1, "mode": "user", "neg_curves": [
        {"d": "0", "m": ["-1"]}, {"d": "1", "m": ["1"]}]},
        "class": {"d": "1", "m": ["0"]}}, ["-1", "0", "0", "1", "1", "1"]),
    # an inline body: its vertices are read by the table, not again
    ("xi", {"body": {"ambient_dim": 2, "vertices": [
        ["0", "0"], ["1", "0"], ["1", "1"]]}, "n": 2, "r": 1,
        "weights": ["1"]}, ["0", "0", "0", "1", "1", "1", "1"]),
]


def test_each_rational_is_read_once(tmp_path, monkeypatch):
    # The input table reads each value once: no handler parses it again.
    seen = []

    def counting(v, *what):
        # Every entry reads its numbers through parse_rat too, but only the
        # JSON literals are strings.
        if isinstance(v, str):
            seen.append(v)
        return parse_rat(v, *what)

    # Every JSON reader parses its rationals through numbers.parse_rat.
    monkeypatch.setattr(numbers, "parse_rat", counting)
    for kind, payload, rationals in _READ_ONCE:
        seen.clear()
        (tmp_path / kind).mkdir()
        code, out = run_job(tmp_path / kind, {"schema": 1, "kind": kind,
                                              "input": payload})
        assert code == 0, kind
        assert sorted(seen) == rationals, kind


@pytest.mark.parametrize("names, message", [
    (("nosuch", "O1", "inf"), "input key 'fixture' names no fixture: "
     "'nosuch'; accepted: " + ", ".join(toric.fixture_names())),
    (("bl1p2", "O9", "inf"), "input key 'divisor' names no divisor of "
     "fixture 'bl1p2': 'O9'; accepted: "
     + ", ".join(sorted(toric.load_fixture("bl1p2")["divisors"]))),
    (("bl1p2", "O1", "nope"), "input key 'flags' names no flags of fixture "
     "'bl1p2': 'nope'; accepted: "
     + ", ".join(sorted(toric.load_fixture("bl1p2")["flags"]))),
], ids=["fixture", "divisor", "flags"])
@pytest.mark.parametrize("kind", ["toric-body", "semigroup-sample"])
def test_unknown_fixture_name_exit_1(tmp_path, capsys, kind, names,
                                     message):
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind, "input": dict(
        zip(("fixture", "divisor", "flags"), names))})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (f"input error: job kind {kind!r} "
                                       f"{message}\n")


@pytest.mark.parametrize("kind", ["xi", "eps-xi-check", "slice-volume"])
def test_unknown_invariant_fixture_exit_1(tmp_path, capsys, kind):
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind, "input": {
        "fixture": "nosuch", "weights": ["1"]}})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"input error: job kind {kind!r} input key 'fixture' names no "
        "fixture: 'nosuch'; accepted: bl1p2, bl1p2-shifted, bl2p2\n")


def test_main_builds_no_parser(tmp_path, monkeypatch):
    # The parser is built once, at import; a call of main only parses.
    def no_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    code, out = run_job(tmp_path, {"schema": 1, "kind": "standard-form",
                                   "input": {"d": "3", "m": ["1", "1"]}})
    assert code == 0 and (out / "standard-form.json").exists()


def test_toric_body_job_inline_fan(tmp_path):
    fx = toric.load_fixture("bl1p2")
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body",
        "input": {"fan": fx["fan"].to_json(),
                  "divisor": fx["divisors"]["O1"].to_json(),
                  "flags": fx["flags"]["inf"].to_json()},
    })
    assert code == 0
    body = toric.extended_body_toric(fx["fan"], fx["divisors"]["O1"],
                                     fx["flags"]["inf"])
    assert read_result(out, "toric-body.json")["result"] == body.to_json()


def test_bad_schema_exit_1(tmp_path):
    code, _ = run_job(tmp_path, {"schema": 2, "kind": "nagata", "input": {}})
    assert code == 1


def test_malformed_rational_exit_1(tmp_path, capsys):
    code, _ = run_job(tmp_path, {
        "schema": 1, "kind": "nagata",
        "input": {"r": 9, "d": "1/0", "m": ["1"] * 9},
    })
    assert code == 1
    assert "input error" in capsys.readouterr().err


def test_chamber_cap_exit_1(tmp_path, capsys, monkeypatch):
    # The cap is lowered so that no large walk starts: Bl2 H needs 4 solves.
    monkeypatch.setattr(surface, "MAX_CHAMBERS", 3)
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-body",
        "input": {"s": 2, "class": {"d": "1", "m": ["0", "0"]}},
    })
    assert code == 1 and not out.exists()
    assert "MAX_CHAMBERS = 3" in capsys.readouterr().err


def test_surface_body_fibre_point_cap_exit_1(tmp_path, capsys):
    # -K on Bl8 at its default points, all eight: the walk passes
    # MAX_FIBRE_POINTS long before the final hull would start.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-body",
        "input": {"s": 8, "class": {"d": "3", "m": ["1"] * 8}},
    })
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert "MAX_FIBRE_POINTS = 50000" in err and "points" in err


def test_irrationality_of_a_negative_square_is_not_ok(tmp_path):
    # d^2 < sum m_i^2: no Seshadri value, the same answer as homogeneous.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "irrationality",
        "input": {"s": 10, "d": "3", "m": ["1"] * 10},
    })
    assert code == 0
    assert read_result(out, "irrationality.json")["result"] == {
        "ok": False, "failed": "negative self-intersection; class not ample"}


def test_surface_body_whole_at_cli_defaults(tmp_path):
    # Bl1 2H at the defaults (step 1/2, t_max 1): the whole body, not the
    # part over t <= 1; a huge t_max costs nothing and is echoed.
    for extra in ({}, {"t_max": str(10**9)}):
        code, out = run_job(tmp_path, {
            "schema": 1, "kind": "surface-body",
            "input": {"s": 1, "class": {"d": "2", "m": ["0"]}, **extra},
        })
        assert code == 0
        doc = read_result(out, "surface-body.json")["result"]
        assert doc["vertices"] == [["0", "0"], ["2", "0"], ["2", "2"]]
        assert doc["meta"]["t_max"] == extra.get("t_max", "1")


_CLASS = {"d": "1", "m": ["0", "0"]}
_CURVE = {"d": "0", "m": ["-1"]}  # E_1 on Bl1
_INLINE_BODY = {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"],
                                               ["1", "1"]]}
# The bl1p2 fixture's fan, divisor O1 and flags inf, inline.
_INLINE_FAN = {
    "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [1, 1], [-1, -1]],
            "max_cones": [[0, 2], [2, 1], [1, 3], [3, 0]]},
    "divisor": {"coeffs": ["0", "0", "0", "1"]},
    "flags": {"flags": [[2, 0]]}}


def _fan_input(part, **fields):
    """_INLINE_FAN with the given fields of one part changed."""
    return {**_INLINE_FAN, part: {**_INLINE_FAN[part], **fields}}


# The contract table: (kind, payload, the message the line must hold).  A
# row given as (..., id) keeps the id it was added under, which quoted the
# line's wording of that time; the job kind and the input key now come
# first, as numbers._read_json words every key.
_CONTRACT = [
    # wrong kinds of value; a bool is not an integer
    ("seshadri", {"s": 2, "class": _CLASS, "weights": 3},
     "job kind 'seshadri' input key 'weights' must be a list of rationals, "
     "got 3",
     "input key 'weights' of job kind 'seshadri' must be a list of "
     "rationals, got 3"),
    ("seshadri", {"s": 2, "class": "3H", "weights": ["1", "1"]},
     "job kind 'seshadri' input key 'class' must be a class {d, m}: class "
     "must be an object, got '3H'",
     "input key 'class' of job kind 'seshadri' must be a class {d, m}"),
    ("seshadri", {"surface": 5, "class": _CLASS, "weights": ["1", "1"]},
     "job kind 'seshadri' input key 'surface' must be a surface",
     "input key 'surface' of job kind 'seshadri' must be a surface"),
    ("seshadri", {"s": True, "class": _CLASS, "weights": ["1", "1"]},
     "job kind 'seshadri' input key 's' must be an integer, got True",
     "input key 's' of job kind 'seshadri' must be an integer, got True"),
    ("surface-zariski", {"s": "2", "class": _CLASS},
     "job kind 'surface-zariski' input key 's' must be an integer",
     "input key 's' of job kind 'surface-zariski' must be an integer"),
    ("surface-zariski", {"surface": {"s": 2, "neg_curves": 3},
                         "class": _CLASS}, "must be a surface"),
    ("surface-body", {"s": 2, "class": _CLASS, "grid_step": 0.5},
     "job kind 'surface-body' input key 'grid_step' must be a rational",
     "input key 'grid_step' of job kind 'surface-body' must be a rational"),
    ("surface-body", {"s": 2, "class": {"d": "1", "m": ["0", "x"]}},
     "must be a class {d, m}"),
    ("nagata", {"r": 9, "d": True, "m": ["1"] * 9},
     "job kind 'nagata' input key 'd' must be a rational",
     "input key 'd' of job kind 'nagata' must be a rational"),
    ("nagata", {"r": 9, "d": "1/0", "m": ["1"] * 9}, "must be a rational"),
    ("homogeneous", {"s": 12.0, "d": "4", "c": "1"}, "must be an integer"),
    ("semigroup-sample", {"fixture": "bl1p2", "divisor": "O1",
                          "flags": "inf", "m_max": "3"}, "must be an integer"),
    ("toric-body", {"fixture": "bl1p2", "divisor": {"O1": 1},
                    "flags": "inf"}, "must be a string"),
    ("toric-body", {"fan": "bl1p2", "divisor": {}, "flags": {}},
     "job kind 'toric-body' input key 'fan' must be a fan {dim, rays, "
     "max_cones}: fan must be an object, got 'bl1p2'",
     "input key 'fan' of job kind 'toric-body' must be an object"),
    ("xi", {"body": {"ambient_dim": "2", "vertices": []}, "n": 2, "r": 1,
            "weights": ["1"]}, "must be a body {ambient_dim, vertices}"),
    ("slice-volume", {"body": _INLINE_BODY, "n": 2, "r": 1, "vol_x": [1],
                      "weights": ["1"]}, "must be a rational"),
    # missing keys, in the form that the given keys choose
    ("seshadri", {"s": 2, "weights": ["1", "1"]},
     "missing job kind 'seshadri' input key 'class' (a class {d, m})",
     "missing input key 'class' (a class {d, m}) for job kind 'seshadri'"),
    ("seshadri", {"class": _CLASS, "weights": ["1", "1"]},
     "missing job kind 'seshadri' input key 's' (an integer)",
     "missing input key 's' (an integer)"),
    ("nakayama", {"surface": {"s": 2}},
     "missing job kind 'nakayama' input key 'class'",
     "missing input key 'class'"),
    ("xi", {"body": _INLINE_BODY, "r": 1, "weights": ["1"]},
     "missing job kind 'xi' input key 'n' (an integer)",
     "missing input key 'n' (an integer) for job kind 'xi'"),
    ("toric-body", {"fixture": "bl1p2", "divisor": "O1"},
     "missing job kind 'toric-body' input key 'flags' (a string)",
     "missing input key 'flags' (a string)"),
    ("eps-xi-check", {"fixture": "bl2p2"},
     "missing job kind 'eps-xi-check' input key 'weights'",
     "missing input key 'weights'"),
    ("standard-form", {"m": ["1"]},
     "missing job kind 'standard-form' input key 'd' (a rational)",
     "missing input key 'd' (a rational)"),
    # keys of two forms at once: a key of the other form is unknown to the
    # form that the first key chose
    ("xi", {"fixture": "bl2p2", "n": 2, "weights": ["1", "1"]},
     "job kind 'xi' input key 'n' is unknown; accepted: fixture, weights",
     "input key 'n' does not go with 'fixture' in job kind 'xi'"),
    ("seshadri", {"surface": {"s": 2}, "s": 2, "class": _CLASS,
                  "weights": ["1", "1"]},
     "job kind 'seshadri' input key 's' is unknown; accepted: surface, "
     "class, weights",
     "input key 's' does not go with 'surface' in job kind 'seshadri'"),
    # inline toric objects of the wrong shape: "rays": 5 was an internal
    # error, "dim": 2.5 read as 2, a cone index past the rays an
    # IndexError and -1 a wrap round to the last ray
    ("toric-body", _fan_input("fan", rays=5),
     "job kind 'toric-body' input key 'fan' must be a fan {dim, rays, "
     "max_cones}: fan key 'rays' must be a list of integer lists, got 5",
     "input key 'fan' of job kind 'toric-body' must be an object {dim"),
    ("semigroup-sample", _fan_input("fan", dim=2.5),
     "job kind 'semigroup-sample' input key 'fan' must be a fan",
     "input key 'fan' of job kind 'semigroup-sample' must be an object"),
    ("toric-body", _fan_input("fan", dim=True), "input key 'fan'"),
    ("toric-body", _fan_input("fan", rays=[[1.0, 0], [0, 1], [1, 1],
                                           [-1, -1]]), "input key 'fan'"),
    ("toric-body", _fan_input("fan", max_cones=[[0, 9], [2, 1], [1, 3],
                                                [3, 0]]), "input key 'fan'"),
    ("toric-body", _fan_input("fan", max_cones=[[0, 2], [2, 1], [1, -1],
                                                [-1, 0]]), "input key 'fan'"),
    ("toric-body", _fan_input("fan", name="bl1p2"), "input key 'fan'"),
    ("toric-body", _fan_input("divisor", coeffs=3),
     "job kind 'toric-body' input key 'divisor' must be a divisor {coeffs}: "
     "divisor key 'coeffs' must be a list of rationals, got 3",
     "input key 'divisor' of job kind 'toric-body' must be an object "
     "{coeffs: a list of rationals}"),
    ("semigroup-sample", _fan_input("divisor", coeffs=["0", "0", "0", "x"]),
     "input key 'divisor'"),
    ("toric-body", _fan_input("flags", flags=[[2, "0"]]), "input key 'flags'"),
    ("toric-body", _fan_input("flags", flags=[]),
     "job kind 'toric-body' input key 'flags' must be a flag spec {flags}: "
     "flags key 'flags' must be a nonempty list of integer lists, got []",
     "input key 'flags' of job kind 'toric-body' must be an object "
     "{flags: a nonempty list of integer lists}"),
    # well-shaped, checked by the constructors (a short divisor was an
    # IndexError in toric-body)
    ("toric-body", _fan_input("divisor", coeffs=["0"]),
     "job kind 'toric-body' input key 'divisor' must be a divisor {coeffs} "
     "with one coefficient per ray of key 'fan' (4), got 1",
     "divisor coefficient count does not match ray count"),
    ("toric-body", _fan_input("fan", dim=3), "ray dimension mismatch"),
    # a surface read by SurfaceModel.from_json: curves without the user mode
    # were dropped, and a misspelt key gave a user model with no curves
    ("nakayama", {"surface": {"s": 1, "neg_curves": [_CURVE]},
                  "class": {"d": "1", "m": ["0"]}},
     "neg_curves are read only with mode 'user'"),
    ("nakayama", {"surface": {"s": 1, "mode": "user", "neg_curve": [_CURVE]},
                  "class": {"d": "1", "m": ["0"]}},
     "surface key 'neg_curve' is unknown; accepted: s, mode, neg_curves"),
    # one object of each from_json the forms use, refused inside: the line
    # names the input key, then the key inside it
    ("toric-body", _fan_input("fan", max_cones=5),
     "job kind 'toric-body' input key 'fan' must be a fan {dim, rays, "
     "max_cones}: fan key 'max_cones' must be a list of integer lists, "
     "got 5"),
    ("semigroup-sample", _fan_input("divisor", coeffs=[True] * 4),
     "job kind 'semigroup-sample' input key 'divisor' must be a divisor "
     "{coeffs}: divisor key 'coeffs' must be a list of rationals, got "
     "[True, True, True, True]"),
    ("toric-body", _fan_input("flags", flag=[[2, 0]]),
     "job kind 'toric-body' input key 'flags' must be a flag spec {flags}: "
     "flags key 'flag' is unknown; accepted: flags"),
    ("seshadri", {"surface": {"s": 2, "mode": 5}, "class": _CLASS,
                  "weights": ["1", "1"]},
     "job kind 'seshadri' input key 'surface' must be a surface {s, mode, "
     "neg_curves}: surface key 'mode' must be a string, got 5"),
    ("nakayama", {"s": 2, "class": {"d": "1"}},
     "job kind 'nakayama' input key 'class' must be a class {d, m}: "
     "missing class key 'm' (a list of rationals)"),
    ("slice-volume", {"body": {"ambient_dim": 2, "vertex": []}, "n": 2,
                      "r": 1, "vol_x": "1", "weights": ["1"]},
     "job kind 'slice-volume' input key 'body' must be a body {ambient_dim, "
     "vertices}: polytope key 'vertex' is unknown; accepted: ambient_dim, "
     "vertices, meta"),
    # a class inside a user curve list: three keys deep
    ("surface-zariski", {"surface": {"s": 1, "mode": "user", "neg_curves": [
        {"d": "0", "m": [-1.0]}]}, "class": {"d": "1", "m": ["0"]}},
     "job kind 'surface-zariski' input key 'surface' must be a surface {s, "
     "mode, neg_curves}: surface key 'neg_curves' must be a list of "
     "classes: class key 'm' must be a list of rationals, got [-1.0]"),
]


_P2 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
       "max_cones": [[0, 1], [1, 2], [2, 0]]}


@pytest.mark.parametrize("kind, payload, message", [
    ("toric-body", {"fan": _P2, "divisor": {"coeffs": ["1", "0"]},
                    "flags": {"flags": [[0, 1]]}},
     "job kind 'toric-body' input key 'divisor' must be a divisor {coeffs} "
     "with one coefficient per ray of key 'fan' (3), got 2"),
    ("semigroup-sample", {"fan": {**_P2, "max_cones": [[0, 9], [1, 2],
                                                       [2, 0]]},
                          "divisor": {"coeffs": ["1", "0", "0"]},
                          "flags": {"flags": [[0, 1]]}},
     "job kind 'semigroup-sample' input key 'fan' must be a fan {dim, rays, "
     "max_cones}: fan key 'max_cones': max cone (0, 9) names a ray outside "
     "0..2"),
    ("toric-body", {"fixture": "nope", "divisor": "O1", "flags": "inf"},
     "job kind 'toric-body' input key 'fixture' names no fixture: 'nope'; "
     "accepted: " + ", ".join(toric.fixture_names())),
], ids=["divisor-coefficients", "cone-index", "fixture"])
def test_toric_input_line_names_kind_and_key_path(tmp_path, capsys, kind,
                                                  payload, message):
    # Each line names the job kind and every key down to the one refused.
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind,
                                   "input": payload})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("kind, payload, message", [
    pytest.param(*row[:3], id=f"{row[0]}-payload{i}-{row[3]}")
    if len(row) == 4 else row for i, row in enumerate(_CONTRACT)])
def test_input_contract_exit_1(tmp_path, capsys, kind, payload, message):
    code, out = run_job(tmp_path, {"schema": 1, "kind": kind,
                                   "input": payload})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, payload, key, default", [
    ("nakayama", {"s": 2, "class": _CLASS}, "points", None),
    ("surface-body", {"s": 2, "class": _CLASS}, "points", None),
    ("surface-body", {"s": 2, "class": _CLASS, "points": [0]}, "grid_step",
     Fraction(1, 2)),
    ("surface-body", {"s": 2, "class": _CLASS, "points": [0]}, "t_max",
     Fraction(1)),
    ("semigroup-sample", {"fixture": "bl1p2", "divisor": "O1",
                          "flags": "inf"}, "m_max", 3),
])
def test_optional_input_key_takes_its_default(tmp_path, monkeypatch, kind,
                                              payload, key, default):
    seen = []
    handler, forms = cli._KINDS[kind]
    monkeypatch.setitem(cli._KINDS, kind, (
        lambda p: seen.append(p) or handler(p), forms))
    code, _ = run_job(tmp_path, {"schema": 1, "kind": kind,
                                 "input": payload})
    assert code == 0
    assert seen[0][key] == default and type(seen[0][key]) is type(default)


def test_repeated_user_curve_exit_1(tmp_path, capsys):
    # The line through p_1 and p_2 named twice was an internal error: a
    # singular support in the chamber walk.
    line = {"d": "1", "m": ["1", "1"]}
    code, out = run_job(tmp_path, {"schema": 1, "kind": "nakayama", "input": {
        "surface": {"s": 2, "mode": "user", "neg_curves": [
            {"d": "0", "m": ["-1", "0"]}, {"d": "0", "m": ["0", "-1"]},
            line, line]}, "class": {"d": "2", "m": ["0", "0"]}}})
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job kind 'nakayama' input key 'surface' must be a "
        "surface {s, mode, neg_curves}: user curve list names one curve "
        f"twice: entries 2 and 3, {line} and {line}\n")


def test_oversize_user_model_exit_1(tmp_path, capsys):
    # 1,501^2 row entries were built before the class was read.
    code, out = run_job(tmp_path, {"schema": 1, "kind": "surface-zariski",
                                   "input": {"surface": {"s": 1500,
                                                         "mode": "user"},
                                             "class": {"d": "1", "m": []}}})
    assert code == 1 and not out.exists()
    assert "user model of 2253001 row entries exceeds MAX_CONE_CELLS" in \
        capsys.readouterr().err


_FIXTURE_PARTS = {"fan": "a fan", "divisors": "an object of named divisors"}


@pytest.mark.parametrize("field, value, message", [
    ("rays", 5, "fan key 'rays' must be a list of integer lists, got 5"),
    ("dim", 2.5, "fan key 'dim' must be an integer, got 2.5"),
    # a path from the top of the file: [1] and "divisors": [] were internal
    # errors, and a stray divisor key, refused inline, was accepted
    ((), [1], "fixture 'bl1p2' must be an object, got [1]"),
    (("divisors",), [], "fixture 'bl1p2' key 'divisors' must be an object "
     "of named divisors, got []"),
    (("divisors", "O1", "name"), "O1", "divisor key 'name' is unknown; "
     "accepted: coeffs"),
])
def test_malformed_fixture_exit_1(tmp_path, monkeypatch, capsys, field,
                                  value, message):
    # A fixture under OKOUNKOV_FIXTURES is read by the same shape checks:
    # "rays": 5 was an internal error, "dim": 2.5 read as 2.  A field is a
    # key of the fan, or a path from the top of the file.
    # doc holds the file, so that the path () replaces all of it.
    doc = {"": json.loads((toric._FIXTURE_DIR / "bl1p2.json").read_text())}
    path = ("", "fan", field) if isinstance(field, str) else ("", *field)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "bl1p2.json").write_text(json.dumps(doc[""]))
    monkeypatch.setenv("OKOUNKOV_FIXTURES", str(fixtures))
    code, out = run_job(tmp_path, {"schema": 1, "kind": "toric-body",
                                   "input": {"fixture": "bl1p2",
                                             "divisor": "O1",
                                             "flags": "inf"}})
    assert code == 1 and not out.exists()
    # A value below a key of the file is refused under that key.
    if len(path) > 2:
        message = (f"fixture 'bl1p2' key {path[1]!r} must be "
                   f"{_FIXTURE_PARTS[path[1]]}: {message}")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_every_input_key_has_a_declared_kind():
    for kind, (handler, forms) in cli._KINDS.items():
        assert callable(handler) and forms
        for form in forms:
            assert all(callable(read) and isinstance(what, str)
                       for read, what in form.values())
    assert set(cli._OPTIONAL) <= {key for _, forms in cli._KINDS.values()
                                  for form in forms for key in form}


def test_missing_job_file_exit_1(tmp_path):
    out = tmp_path / "results"
    assert main(["run", "--job", str(tmp_path / "absent.json"),
                 "--out", str(out)]) == 1


def test_invalid_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--job", str(bad),
                 "--out", str(tmp_path / "results")]) == 1


@pytest.mark.parametrize("argv, message", [
    (["run", "--job", "job.json"], "the following arguments are required: "
     "--out"),
    ([], "the following arguments are required: command"),
    (["run", "--job", "job.json", "--out", "o", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["run", "--job", "job.json", "--out", "o", "--m-max", "2"],
     "unrecognized arguments: --m-max 2"),
    (["walk"], "invalid choice: 'walk'"),
])
def test_usage_error_exit_1(tmp_path, capsys, argv, message):
    # Exit 2 is kept for a failed mathematical check, not argparse's usage
    # errors.
    job = write_job(tmp_path, {"schema": 1, "kind": "standard-form",
                               "input": {"d": "3", "m": ["1", "1"]}})
    argv = [job if a == "job.json" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0 and "--job" in capsys.readouterr().out


# -- rendering and determinism ----------------------------------------

def test_render_flag_writes_svg(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body", "render": True,
        "input": {"fixture": "bl1p2", "divisor": "O1", "flags": "inf"},
        "output_path": "body.json",
    })
    assert code == 0
    svg = (out / "body.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg


@pytest.mark.parametrize("body, tag, labels", [
    (Polytope(2, ()), None, []),
    (Polytope(0, [()]), None, ["(0, 0)"]),
    (Polytope(1, [(2,), (0,)]), "polyline", ["(0, 0)", "(2, 0)"]),
    (Polytope(2, [(0, 0), (1, 0), (0, 1)]), "polygon",
     ["(0, 0)", "(1, 0)", "(0, 1)"]),
], ids=["empty", "0-D", "1-D", "2-D"])
def test_render_svg_of_each_dimension(tmp_path, body, tag, labels):
    path = tmp_path / "body.svg"
    render.render_svg(body, path)
    svg = path.read_text()
    assert ('font-size="16">empty</text>' in svg) == body.is_empty
    assert ("<poly" in svg) == (tag is not None)
    assert tag is None or f"<{tag} " in svg
    assert svg.count("<circle") == len(labels)
    assert all(f">{label}</text>" in svg for label in labels)


def _random_bodies(seed):
    """Seeded bodies of dimension <= 2: the empty body, single points,
    segments and polygons, with negative coordinates and denominators 3, 7
    and 11, some within a unit box of the origin (the span is then 1)."""
    rng = random.Random(seed)
    bodies = [Polytope(2, ()), Polytope(1, ()), Polytope(0, [()]),
              Polytope(1, [(Fraction(-5, 3),)]),
              Polytope(1, [(Fraction(-2, 7),), (Fraction(9, 11),)])]
    for k in (1, 2, 2, 3, 4, 5, 8) * 9:
        bound = rng.choice((3, 11, 40, 300))
        bodies.append(Polytope(2, [
            tuple(Fraction(rng.randint(-bound, bound),
                           rng.choice((1, 3, 7, 11))) for _ in range(2))
            for _ in range(k)]))
    return bodies


def test_render_svg_matches_the_fraction_renderer(tmp_path):
    # render_svg reads the integer points; reference.render_svg is the
    # Fraction renderer it replaced.  Every byte must agree.
    ints, fracs = tmp_path / "ints.svg", tmp_path / "fracs.svg"
    for body in _random_bodies(7):
        render.render_svg(body, ints)
        reference.render_svg(body, fracs)
        assert ints.read_bytes() == fracs.read_bytes(), body.vertices


def test_render_svg_refuses_three_dimensions(tmp_path):
    with pytest.raises(ValueError, match="dimension <= 2 only"):
        render.render_svg(Polytope(3, ()), tmp_path / "body.svg")


def test_render_without_polytope_exit_1(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-zariski", "render": True,
        "input": {"s": 1, "class": {"d": "1", "m": ["0"]}},
    })
    assert code == 1 and not out.exists()


def test_render_key_must_be_a_boolean(tmp_path, capsys):
    # "false" is a string, and a nonempty string is truthy: it used to render.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body", "render": "false",
        "input": {"fixture": "bl1p2", "divisor": "O1", "flags": "inf"},
    })
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job key 'render' must be true or false, got "
        "'false'\n")


def test_render_key_without_polytope_exit_1(tmp_path, capsys):
    # "render": true in a job of a kind with no body is refused before the
    # result file is written.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "seshadri", "render": True,
        "input": {"s": 1, "class": {"d": "1", "m": ["0"]}, "weights": ["1"]},
    })
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "input error: job kind 'seshadri' has no renderable polytope\n")


def test_render_high_dimension_exit_1(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-body", "render": True,
        "input": {"s": 2, "class": {"d": "1", "m": ["0", "0"]},
                  "points": [0, 1]},
    })
    assert code == 1 and not out.exists()


def test_render_body_above_dimension_2_exit_1(tmp_path):
    # Two flags on a toric surface give a 4-D body: refused before the
    # result file is written, like a kind with no body.
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body", "render": True,
        "input": {"fixture": "bl2p2", "divisor": "H-E2", "flags": "inf2"},
    })
    assert code == 1 and not out.exists()


def test_byte_identical_outputs(tmp_path):
    job = {
        "schema": 1, "kind": "surface-body",
        "input": {"s": 2, "class": {"d": "1", "m": ["0", "0"]},
                  "points": [0, 1]},
        "output_path": "body.json",
    }
    path = write_job(tmp_path, job)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--job", path, "--out", str(out1)]) == 0
    assert main(["run", "--job", path, "--out", str(out2)]) == 0
    assert (out1 / "body.json").read_bytes() == \
        (out2 / "body.json").read_bytes()


def test_render_svg_deterministic(tmp_path):
    job = {
        "schema": 1, "kind": "toric-body",
        "input": {"fixture": "bl1p2", "divisor": "O1", "flags": "inf"},
        "output_path": "body.json",
        "render": True,
    }
    path = write_job(tmp_path, job)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--job", path, "--out", str(out1)]) == 0
    assert main(["run", "--job", path, "--out", str(out2)]) == 0
    assert (out1 / "body.svg").read_bytes() == \
        (out2 / "body.svg").read_bytes()


def test_result_polytope_round_trip(tmp_path):
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "toric-body",
        "input": {"fixture": "bl2p2", "divisor": "H-E2", "flags": "inf2"},
        "output_path": "body.json",
    })
    assert code == 0
    body = Polytope.from_json(read_result(out, "body.json")["result"])
    assert body.ambient_dim == 4
    assert Polytope.from_json(body.to_json()).vertices == body.vertices


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(payload):
        raise RuntimeError("chamber walk did not terminate")

    monkeypatch.setitem(cli._KINDS, "nagata",
                        (broken, cli._KINDS["nagata"][1]))
    code, _ = run_job(tmp_path, {
        "schema": 1, "kind": "nagata",
        "input": {"r": 2, "d": "1", "m": ["1", "1"]},
    })
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "chamber walk did not terminate" in err


def test_internal_key_error_exit_3(tmp_path, monkeypatch, capsys):
    # The readers check every key first, so a KeyError is okounkov's fault.
    def broken(payload):
        return {}["missing"]

    monkeypatch.setitem(cli._KINDS, "nagata",
                        (broken, cli._KINDS["nagata"][1]))
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "nagata",
        "input": {"r": 2, "d": "1", "m": ["1", "1"]},
    })
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == "internal error: KeyError('missing')\n"


def test_singular_chamber_support_exit_3(tmp_path, monkeypatch, capsys):
    # A complete curve list never gives a singular support, so a solver
    # that reports one is an internal fault, not an input error.
    monkeypatch.setattr(surface, "_solve", lambda support, *rows: None)
    code, _ = run_job(tmp_path, {
        "schema": 1, "kind": "nakayama",
        "input": {"s": 4, "class": {"d": "1", "m": ["0"] * 4}},
    })
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "singular support system in chamber walk" in err


def test_oversize_user_cone_test_exit_1(tmp_path, capsys, monkeypatch):
    # A user curve list reaches lp.in_cone, whose work bound is an input
    # error; 3 generators of length 2 are 6 entries.
    monkeypatch.setattr(lp, "MAX_CONE_CELLS", 5)
    code, out = run_job(tmp_path, {
        "schema": 1, "kind": "surface-zariski",
        "input": {"surface": {"s": 1, "mode": "user", "neg_curves": [
            {"d": "0", "m": ["-1"]}]}, "class": {"d": "1", "m": ["0"]}},
        "output_path": "z.json"})
    assert code == 1 and not out.exists()
    assert "exceeds MAX_CONE_CELLS = 5" in capsys.readouterr().err
