"""Scene schema validation and the CLI exit-code contract."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from lmcanal import cli, expr
from lmcanal import scene as scene_mod
from lmcanal import verify as verify_mod
from lmcanal.cli import main
from lmcanal.scene import (SceneError, bundled_scene, bundled_scene_names,
                           parse_scene)
from lmcanal.verify import verify_scene


def minimal_doc():
    return {
        "version": 1,
        "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "C1", "branch": 1},
        "radius": "s/2",
        "shape": {"f": "w", "g": "t"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.7, 1.4, 4], "w": [0.5, 2.5, 4]},
    }


def bundled_doc(name):
    path = resources.files("lmcanal") / "scenes" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_parse_minimal_scene():
    scene = parse_scene(minimal_doc())
    assert scene.family.variant.value == "C1"
    assert scene.oracle_step == 1e-3
    assert scene.projection == "x1x3x4"


def test_schema_error_paths():
    doc = minimal_doc()
    del doc["radius"]
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.radius"

    doc = minimal_doc()
    doc["family"]["variant"] = "C9"
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.family.variant"

    doc = minimal_doc()
    doc["shape"]["f"] = "sin("
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.shape.f"

    doc = minimal_doc()
    doc["radius"] = "s/2+0*1e999"  # the literal overflows to inf
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.radius"
    assert "bad expression 's/2+0*1e999': bad number literal '1e999' " \
        "(at offset 6)" in str(err.value)

    doc = minimal_doc()
    doc["shape"]["f"] = "s"  # wrong variable for a shape function
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.shape.f"

    doc = minimal_doc()
    doc["curve"] = {"class": "pseudo-null",
                    "components": ["s", "t", "0", "0"]}  # t is not bound
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.curve.components[1]"

    doc = minimal_doc()
    doc["version"] = 2
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.version"

    # malformed values: wrong types, booleans, fractional counts
    def with_grid(axis, spec):
        doc = minimal_doc()
        doc["grid"][axis] = spec
        return doc

    fixed = minimal_doc()
    fixed["grid"]["fixed"] = {"axis": "w", "value": "q"}
    branch = minimal_doc()
    branch["family"]["branch"] = True
    frame = minimal_doc()
    frame["curve"] = {"class": "pseudo-null",
                      "components": ["s", "0", "0", "0"],
                      "completion_frame": [[0, 1, 0, 0], [1, 0, 0, "x"],
                                           [0, 0, 1, 0], [0, 0, 0, 1]]}
    for doc, path in ((with_grid("s", ["a", 1, 5]), "$.grid.s"),
                      (with_grid("s", [None, 1, 5]), "$.grid.s"),
                      (with_grid("t", [0.7, 1.4, 4.9]), "$.grid.t"),
                      (with_grid("w", [0.5, 2.5, True]), "$.grid.w"),
                      (with_grid("w", [0.5, 2.5, "4"]), "$.grid.w"),
                      (dict(minimal_doc(), oracle_step="x"), "$.oracle_step"),
                      (dict(minimal_doc(), oracle_step=math.nan),
                       "$.oracle_step"),
                      (fixed, "$.grid.fixed.value"),
                      (dict(minimal_doc(), projection=["x1x2x3"]),
                       "$.projection"),
                      (branch, "$.family.branch"),
                      (frame, "$.curve.completion_frame[1][3]")):
        with pytest.raises(SceneError) as err:
            parse_scene(doc)
        assert err.value.path == path

    # integral floats are counts; the parsed count is an int
    scene = parse_scene(with_grid("s", [0.3, 0.9, 4.0]))
    assert scene.grid.n_s == 4 and isinstance(scene.grid.n_s, int)


def test_family_class_compatibility_checked():
    doc = minimal_doc()
    doc["family"]["variant"] = "NullC1"
    with pytest.raises(SceneError):
        parse_scene(doc)


def test_null_scene_requires_coefficients():
    doc = minimal_doc()
    doc["curve"] = {"builtin": "null-example"}
    doc["family"] = {"variant": "NullC1"}
    del doc["shape"]
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.null_coefficients"
    doc["null_coefficients"] = {"a1": "t", "theta": "w"}
    scene = parse_scene(doc)
    assert scene.nc is not None


@pytest.mark.parametrize("name", ["null-c1", "null-c2", "null-t1"])
def test_null_family_refuses_branch_minus_one(capsys, tmp_path, name):
    # a null family carries its sign in the angle coefficient, so a
    # branch -1, which it would ignore, is refused at the branch's path
    family = bundled_scene(name).family
    with pytest.raises(ValueError, match="branch"):
        family._replace(branch=-1)
    doc = bundled_doc(name)
    doc["family"]["branch"] = -1
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.family.branch"
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: $.family.branch: null variants take "
                            "branch +1 only\n")


@pytest.mark.parametrize("name", [5, None, ["x"]])
def test_scene_name_must_be_a_string(name):
    doc = minimal_doc()
    doc["name"] = name
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert err.value.path == "$.name"


def test_custom_curve_components():
    doc = minimal_doc()
    doc["curve"] = {
        "class": "pseudo-null",
        "components": ["cosh(2*s)/(2*sqrt(2))", "sinh(2*s)/(2*sqrt(2))",
                       "sin(2*s)/(2*sqrt(2))", "-cos(2*s)/(2*sqrt(2))"],
    }
    scene = parse_scene(doc)
    fld = scene.field([0.5], [1.0], [1.0])
    assert fld.points.shape == (1, 4) and np.all(np.isfinite(fld.points))


def test_bundled_scenes_all_parse():
    names = bundled_scene_names()
    assert len(names) == 24
    for name in names:
        scene = bundled_scene(name)
        assert scene.name == name


def test_cli_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frames"]) == 1  # missing --curve/--scene
    assert main(["verify"]) == 1  # missing --scene
    assert main(["verify", "--scene", "no-such-scene"]) == 1
    capsys.readouterr()
    # verify has no Weingarten rows to switch off
    assert main(["verify", "--scene", "pseudo-null-t1",
                 "--no-weingarten"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --no-weingarten" in captured.err
    for bounds in (["--s-min=-inf"], ["--s-max=inf"], ["--s-min=nan"]):
        assert main(["frames", "--curve", "null-example"] + bounds) == 1
        assert "expected a finite number" in capsys.readouterr().err
    # finite bounds whose difference overflows would sample s = nan
    assert main(["frames", "--curve", "null-example", "--s-min=-1e308",
                 "--s-max=1e308"]) == 1
    capsys.readouterr()
    # a finite width whose multiples overflow would sample s = inf
    assert main(["frames", "--curve", "null-example", "--s-min", "0",
                 "--s-max", "1.7e308", "-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: s range [0.0, 1.7e+308] is too wide: "
                            "its samples overflow\n")


def test_cli_frames_pass(capsys):
    code = main(["frames", "--curve", "pseudo-null-example",
                 "--s-min", "-1", "--s-max", "1", "-n", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("PASS")


def test_cli_frames_null_curve_reports_arclength(capsys):
    code = main(["frames", "--curve", "null-example", "-n", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "normalization=" in out


@pytest.mark.parametrize("samples", [7, 200])
def test_cli_frames_derives_all_samples_in_one_batch(monkeypatch, capsys,
                                                     samples):
    # one table for the samples and their s +/- step neighbours
    import lmcanal.cli
    import lmcanal.curves
    real, batches = lmcanal.curves.derive_frames, []

    def counted(curve, s):
        batches.append(len(s))
        return real(curve, s)

    monkeypatch.setattr(lmcanal.curves, "derive_frames", counted)
    monkeypatch.setattr(lmcanal.cli, "derive_frames", counted)
    for curve in ("pseudo-null-example", "null-example"):
        batches.clear()
        assert main(["frames", "--curve", curve, "-n", str(samples)]) == 0
        assert batches == [3 * samples]
    capsys.readouterr()


def test_cli_frames_failing_construction_fails_once(capsys, tmp_path):
    # a pseudo null curve with a timelike tangent fails at every s; the
    # batch reports the first one, then FAIL
    doc = minimal_doc()
    doc["curve"] = {"class": "pseudo-null", "components": ["s", "0", "0", "0"]}
    path = tmp_path / "timelike.json"
    path.write_text(json.dumps(doc))
    code = main(["frames", "--scene", str(path), "-n", "9"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert [x for x in lines if "error:" in x] == [lines[0]]
    assert lines[0].startswith("error: tangent is not spacelike unit at "
                               "s=-1.0")
    assert lines[1:] == ["FAIL"]


def test_cli_verify_scene_pass(capsys):
    code = main(["verify", "--scene", "partially-null-c1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    header = re.fullmatch(r"scene partially-null-c1: (\d+) grid points "
                          r"checked, \d+ singular skipped",
                          out.splitlines()[0])
    assert int(header[1]) >= 100


@pytest.mark.parametrize("name", ["null-c1", "null-c2", "null-t1"])
def test_cli_verify_null_header_counts_the_points_it_checks(capsys, name):
    # a null scene's header counts the grid points whose causal character
    # is checked, as its points guard does
    assert main(["verify", "--scene", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"scene {name}: 576 grid points checked, "
                        f"0 singular skipped")
    assert any(re.fullmatch(r" +grid points checked >= 1 \(got 576\) +PASS",
                            line) for line in lines)
    assert any(re.fullmatch(r" +causal character \|eps - lam\| \(lam [+-]1\)"
                            r" +0\.000e\+00 <= 0  PASS", line)
               for line in lines)


def test_check_epsilon_only_counts_degenerate_points_as_singular():
    # a point with a degenerate tangent frame (eps 0) is not checked
    table = verify_mod.grid_table(verify_mod.scene_tables(
        bundled_scene("null-c1")))
    eps = table.eps.copy()
    eps[[0, 5, 9]] = 0
    report = verify_mod.VerifyReport("null-c1")
    verify_mod.check_epsilon_only(table._replace(eps=eps), report)
    assert (report.points_checked, report.points_singular) == (573, 3)
    assert report.passed
    eps[:] = 0
    report = verify_mod.VerifyReport("null-c1")
    verify_mod.check_epsilon_only(table._replace(eps=eps), report)
    assert (report.points_checked, report.points_singular) == (0, 576)
    assert not report.passed


def test_cli_verify_tells_flag_rows_by_their_missing_tolerance(
        capsys, monkeypatch):
    # a residual row whose tolerance is 0.5 still prints its value and
    # tolerance; only flag rows, which have none, print PASS/FAIL alone
    monkeypatch.setattr(verify_mod, "MEMBERSHIP_TOL", 0.5)
    assert main(["verify", "--scene", "pseudo-null-c1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    membership, = (row for row in rows if "membership" in row)
    assert membership.endswith(" <= 0.5  PASS")
    report = verify_scene(bundled_scene("pseudo-null-c1"))
    flags = [c for c in report.checks if c.tol is None]
    assert [c.name for c in flags] == ["grid points checked >= 1 (got 576)"]
    for c in flags:
        row, = (row for row in rows if c.name in row)
        assert row.endswith("  PASS") and " <= " not in row


def test_cli_verify_rows_do_not_pad_each_other(capsys, monkeypatch):
    # every check name is padded to one width, so a longer name moves only
    # its own row of the transcript
    report = verify_scene(bundled_scene("pseudo-null-c1"))

    def printed(checks):
        monkeypatch.setattr(cli, "verify_scene", lambda scene: (
            verify_mod.VerifyReport(report.scene, checks,
                                    report.points_checked,
                                    report.points_singular)))
        assert main(["verify", "--scene", "pseudo-null-c1"]) == 0
        return capsys.readouterr().out.splitlines()

    before = printed(report.checks)
    longer = report.checks[0]._replace(
        name=report.checks[0].name + " (" * 10)
    after = printed([longer, *report.checks[1:]])
    assert after[1] != before[1]
    assert after[:1] + after[2:] == before[:1] + before[2:]
    assert len(longer.name) > cli.NAME_WIDTH


def test_cli_allocation_failure_exits_1(capsys, monkeypatch):
    def too_large(scene):
        raise MemoryError("Unable to allocate 44.2 TiB for an array")

    monkeypatch.setattr(cli, "verify_scene", too_large)
    assert main(["verify", "--scene", "pseudo-null-c1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: Unable to allocate 44.2 TiB for an "
                            "array\n")


def test_parser_build_lists_no_scenes(monkeypatch, capsys):
    # the --scene help text is static: parsing an argv reads no scene
    # directory, and an unknown name is reported with the bundled ones
    def listed():
        raise AssertionError("bundled scenes listed")

    monkeypatch.setattr(scene_mod, "bundled_scene_names", listed)
    monkeypatch.setattr(cli, "bundled_scene_names", listed, raising=False)
    assert cli._parse(["verify", "--scene", "null-c1"]).scene == "null-c1"
    monkeypatch.undo()
    assert main(["verify", "--scene", "no-such-scene"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lmcanal: $: no bundled scene 'no-such-scene'; "
                          "known: ['null-c1', ")


def test_cli_option_surface(capsys):
    # every tolerance and step is the package's or the scene's, so no
    # option sets one
    options = {name: [list(option[0]) for option in spec[2].values()]
               for name, spec in cli._COMMANDS.items()}
    assert options == {
        "frames": [["--curve"], ["--scene"], ["--s-min"], ["--s-max"],
                   ["-n", "--samples"]],
        "verify": [["--scene"]],
        "mesh": [["--scene"], ["--out"], ["--field"], ["--format"]],
    }


# one case per removed flag at its old default, then each argv that a
# removed parse-error case ran: none may reach a verdict
@pytest.mark.parametrize("argv", [
    ["verify", "--scene", "pseudo-null-c1", "--rel-tol", "1e-4"],
    ["verify", "--scene", "pseudo-null-c1", "--abs-tol", "1e-6"],
    ["verify", "--scene", "pseudo-null-c1", "--step", "5e-4"],
    ["verify", "--scene", "pseudo-null-c1", "--min-points", "1"],
    ["frames", "--curve", "null-example", "--step", "1e-4"],
    ["frames", "--curve", "null-example", "--gram-tol", "1e-8"],
    ["frames", "--curve", "null-example", "--ode-tol", "1e-5"],
    ["verify", "--scene", "pseudo-null-c1", "--step", "0"],
    ["verify", "--scene", "pseudo-null-c1", "--rel-tol", "0"],
    ["verify", "--scene", "pseudo-null-c1", "--abs-tol=-1e-6"],
    ["verify", "--scene", "pseudo-null-c1", "--step", "nan"],
    ["verify", "--scene", "pseudo-null-c1", "--rel-tol", "inf"],
    ["verify", "--scene", "pseudo-null-c1", "--min-points", "0"],
    ["verify", "--scene", "pseudo-null-c1", "--min-points", "-3"],
    ["frames", "--curve", "null-example", "--step", "0"],
    ["frames", "--curve", "null-example", "--gram-tol", "x"],
    ["frames", "--curve", "null-example", "--ode-tol=-1"],
], ids=lambda argv: " ".join(argv[3:]))
def test_cli_removed_flags_are_unrecognized(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"lmcanal: error: unrecognized arguments: {' '.join(argv[3:])}"
            in captured.err)
    assert "Traceback" not in captured.err


# each accepted form next to the spelled-out argv it must act like
ARGV_FORMS = [
    (["verify", "--scene=pseudo-null-t1"],
     ["verify", "--scene", "pseudo-null-t1"]),
    (["frames", "--curve", "null-example", "--s-min", "-1", "-n", "5"],
     ["frames", "--curve", "null-example", "-n", "5"]),
    (["frames", "--curve", "null-example", "--s-min=-0.5", "-n", "5"],
     ["frames", "--curve", "null-example", "--s-min", "-0.5", "-n", "5"]),
    (["frames", "--curve", "null-example", "-n", "7"],
     ["frames", "--curve", "null-example", "--samples", "7"]),
    (["frames", "--curve", "null-example", "--samples=7"],
     ["frames", "--curve", "null-example", "--samples", "7"]),
    (["frames", "--curve", "null-example", "-n7"],
     ["frames", "--curve", "null-example", "--samples", "7"]),
    (["verify", "--scene", "no-such-scene", "--scene", "pseudo-null-t1"],
     ["verify", "--scene", "pseudo-null-t1"]),
]


@pytest.mark.parametrize("argv,plain", ARGV_FORMS,
                         ids=[" ".join(argv) for argv, _ in ARGV_FORMS])
def test_cli_argv_forms_act_like_the_plain_form(capsys, argv, plain):
    assert main(plain) == 0
    want = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["frames", "-h"], ["verify", "--help"],
    ["mesh", "-h"], ["verify", "--scene", "no-such-scene", "-h"],
], ids=" ".join)
def test_cli_help_prints_the_option_table(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    command = argv[0] if argv[0] in cli._COMMANDS else None
    lines = captured.out.splitlines()
    assert lines[0] == cli._usage(command)
    rows = [line.split()[0].rstrip(",") for line in lines
            if line.startswith("  ")]
    assert rows == ([option[0][0] for option
                     in cli._COMMANDS[command][2].values()]
                    if command else list(cli._COMMANDS))


CHOICE = "{frames,verify,mesh}"
USAGE_ERRORS = [
    ([], f"lmcanal: error: the following arguments are required: {CHOICE}"),
    (["check"], f"lmcanal: error: argument {CHOICE}: invalid choice: "
                "'check' (choose from 'frames', 'verify', 'mesh')"),
    (["verify", "--scene"],
     "lmcanal verify: error: argument --scene: expected one argument"),
    (["frames", "--curve", "null-example", "--s-min", "--s-max", "1"],
     "lmcanal frames: error: argument --s-min: expected one argument"),
    (["frames", "--curve", "null-example", "-n"],
     "lmcanal frames: error: argument -n/--samples: expected one argument"),
    (["verify"],
     "lmcanal verify: error: the following arguments are required: --scene"),
    (["mesh", "--out", "fig.obj"],
     "lmcanal mesh: error: the following arguments are required: --scene"),
    (["mesh", "--scene", "pseudo-null-c1-figure"],
     "lmcanal mesh: error: the following arguments are required: --out"),
    (["mesh"], "lmcanal mesh: error: the following arguments are required: "
               "--scene, --out"),
    (["frames", "--curve", "null-example", "--scene", "null-c1"],
     "lmcanal frames: error: argument --scene: not allowed with argument "
     "--curve"),
    (["frames", "--scene", "null-c1", "--curve", "null-example"],
     "lmcanal frames: error: argument --curve: not allowed with argument "
     "--scene"),
    (["frames", "-n", "5"],
     "lmcanal frames: error: one of the arguments --curve --scene is "
     "required"),
    (["frames", "--curve", "null"],
     "lmcanal frames: error: argument --curve: invalid choice: 'null' "
     "(choose from 'null-example', 'partially-null-example', "
     "'pseudo-null-example')"),
    (["mesh", "--scene", "pseudo-null-c1-figure", "--out", "fig.obj",
      "--format", "xml"],
     "lmcanal mesh: error: argument --format: invalid choice: 'xml' "
     "(choose from 'csv', 'json')"),
    (["frames", "--curve", "null-example", "-n", "x"],
     "lmcanal frames: error: argument -n/--samples: invalid int value: 'x'"),
    (["frames", "--curve", "null-example", "--s-max", "-inf"],
     "lmcanal frames: error: argument --s-max: expected a finite number, "
     "got '-inf'"),
    # long flags are not abbreviated
    (["verify", "--sc", "pseudo-null-t1"],
     "lmcanal: error: unrecognized arguments: --sc pseudo-null-t1"),
]


@pytest.mark.parametrize("argv,last", USAGE_ERRORS, ids=[
    " ".join(argv) or "no command" for argv, _ in USAGE_ERRORS])
def test_cli_usage_error_names_its_cause(capsys, tmp_path, monkeypatch,
                                         argv, last):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("usage: lmcanal ")
    assert captured.err.splitlines()[-1] == last
    assert list(tmp_path.iterdir()) == []


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this lmcanal."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def test_cli_loads_no_argparse_gettext_or_locale(capsys):
    # the CLI reads its argv without argparse, and nothing else it runs
    # imports argparse or the gettext/locale pair argparse pulls in
    env = _src_env()
    script = ("import sys\n"
              "import lmcanal.cli\n"
              "def loaded():\n"
              "    return [m for m in ('argparse', 'gettext', 'locale')\n"
              "            if m in sys.modules]\n"
              "before = loaded()\n"
              "code = lmcanal.cli.main(['verify', '--scene', "
              "'pseudo-null-t1'])\n"
              "print(code, before, loaded())\n")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 [] []"
    argv = ["verify", "--scene", "pseudo-null-t1"]
    run = subprocess.run([sys.executable, "-m", "lmcanal.cli", *argv],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out


def test_cli_loads_no_dataclasses():
    # the records are NamedTuples and slotted classes: neither importing
    # the CLI nor a verify call imports dataclasses or generates its code
    script = ("import sys\n"
              "import lmcanal.cli\n"
              "code = lmcanal.cli.main(['verify', '--scene', "
              "'pseudo-null-t1'])\n"
              "print(code, 'dataclasses' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("count", [1, 0, -2])
def test_cli_fixed_axis_needs_two_samples(capsys, tmp_path, count):
    # every check reads the grid, so no axis may have fewer than 2 samples
    doc = minimal_doc()
    doc["grid"]["w"][2] = count
    doc["grid"]["fixed"] = {"axis": "w", "value": 1.0}
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("lmcanal: $.grid: ")
    assert "Traceback" not in captured.err


def test_cli_grid_axis_whose_width_overflows_exits_1(capsys, tmp_path):
    # hi - lo = inf would sample s = nan and fail later, at the jets
    doc = minimal_doc()
    doc["grid"]["s"] = [-1e308, 1e308, 3]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: $.grid: s range [-1e+308, 1e+308] is "
                            "too wide: its samples overflow\n")


def test_cli_huge_grid_count_names_the_allocation(tmp_path):
    # 10**12 s samples cannot be allocated; the error says so.  Run under an
    # address-space cap, so a build that tried to grow the samples would
    # fail there instead of exhausting the machine
    doc = minimal_doc()
    doc["grid"]["s"][2] = 10 ** 12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from lmcanal.cli import main\n"
              f"sys.exit(main(['verify', '--scene', {str(path)!r}]))\n")
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(_src_env(), OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("lmcanal: Unable to allocate ")
    assert run.stderr.count("\n") == 1


def _steep_curve(doc):
    # gamma'' = (0, 0, 2e200, 0) squares past the largest float in the
    # frame's gauge checks
    doc["curve"] = {"class": "pseudo-null",
                    "components": ["0", "s", "1e200*s^2", "0"]}
    doc["grid"]["s"] = [0, 1e-300, 3]


def _steep_curve_grid(doc):
    _steep_curve(doc)
    del doc["grid"]["fixed"]
    doc["oracle_step"] = 1e-305


def _fast_fiber(doc):
    # f = 1000*w overflows the hyperbolic fiber's sinh and cosh
    doc["shape"]["f"] = "1000*w"


@pytest.mark.parametrize("command, name, edit, message", [
    ("mesh", "pseudo-null-c1-figure", _steep_curve,
     "vanishing second curvature at s=0.0"),
    ("verify", "pseudo-null-c1-figure", _steep_curve_grid,
     "vanishing second curvature at s=0.0"),
    ("verify", "pseudo-null-c3", _fast_fiber,
     "sinh overflow or undefined at 728.5714285714287"),
    ("mesh", "partially-null-c5-figure", _fast_fiber,
     "sinh overflow or undefined at 1047.1975511965977"),
], ids=["mesh-steep-curve", "verify-steep-curve", "verify-c3",
        "mesh-c5-figure"])
def test_cli_overflowing_scene_exits_1(capsys, tmp_path, command, name, edit,
                                       message):
    doc = bundled_doc(name)
    edit(doc)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "m.obj")] if command == "mesh" else []
    assert main([command, "--scene", str(path), *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lmcanal: {message}\n"


@pytest.mark.parametrize("kind", ["directory", "latin-1", "deeply-nested"])
def test_cli_unreadable_scene_file_exits_1(capsys, tmp_path, kind):
    path = tmp_path / "scene.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes(json.dumps(minimal_doc()).encode()[:-1] + b"\xe9}")
    else:  # deeper than json's recursion allows
        path.write_text("[" * 100000)
    assert main(["verify", "--scene", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lmcanal: $: cannot read scene file")
    assert "Traceback" not in err


def test_cli_curvature_check_needs_a_point(capsys, tmp_path):
    # g = sin(w)/4 puts every T1 closed form on its pole
    # D = 2g - r k1 sin f = 0 (r = 1/2, k1 = 1, f = w), so no grid point is
    # nonsingular; the points guard must not pass over them
    doc = minimal_doc()
    doc["family"]["variant"] = "T1"
    doc["radius"] = "1/2"
    doc["shape"] = {"f": "w", "g": "sin(w)/4"}
    path = tmp_path / "poles.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 2
    row, = (line for line in capsys.readouterr().out.splitlines()
            if "grid points checked >=" in line)
    assert "grid points checked >= 1 (got 0)" in row and row.endswith("FAIL")


def test_cli_verify_failure_exits_2(capsys, monkeypatch):
    # an intentionally mis-tolerated run: rel tolerance far below what the
    # finite-difference oracle can deliver
    monkeypatch.setattr(verify_mod, "REL_TOL", 1e-14)
    monkeypatch.setattr(verify_mod, "ABS_TOL", 1e-14)
    code = main(["verify", "--scene", "partially-null-c1"])
    capsys.readouterr()
    assert code == 2


def test_cli_verify_fails_without_epsilon_points(capsys, tmp_path):
    # a1 and theta constant: C does not depend on t, w, so every tangent
    # frame of the causal-character check is degenerate
    doc = {
        "version": 1,
        "curve": {"builtin": "null-example"},
        "family": {"variant": "NullC1"},
        "radius": "s/2",
        "null_coefficients": {"a1": "0", "theta": "0"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.5, 1.5, 4], "w": [0.0, 6.2, 4]},
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--scene", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert re.search(r"grid points checked >= 1 \(got 0\) +FAIL\n", out)


def test_cli_verify_regime_violation_exits_1(capsys, tmp_path):
    doc = minimal_doc()
    doc["radius"] = "2*s"  # r'^2 = 4 >= 1 violates the C1 side condition
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--scene", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "r'^2 < 1" in err


def test_cli_vanishing_shape_g_names_its_pair(capsys, tmp_path):
    # g = w - 2.5 vanishes on the last w sample only; the refusal names
    # the first (t, w) table pair there, as the radius refusals name theirs
    doc = minimal_doc()
    doc["shape"]["g"] = "w - 2.5"
    path = tmp_path / "g0.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: shape function g vanishes at (t, w) = "
                            "(0.7, 2.5)\n")


@pytest.mark.parametrize("name", ["pseudo-null-t1", "null-c1"])
def test_cli_verify_nan_residuals_fail_without_warnings(capsys, tmp_path,
                                                        name):
    # r = 1e160 overflows <C-g, C-g> and r^2, so the membership and
    # normality residuals are NaN and fail their rows; the normal is NaN
    # too, so no grid point counts as checked and the guard row fails; no
    # floating-point warning reaches stderr (pytest raises them)
    doc = bundled_doc(name)
    doc["radius"] = "1e160"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert rows[0] == (f"scene {name}: 0 grid points checked, "
                       "576 singular skipped")
    for name in ("membership", "normality"):
        row, = (row for row in rows if row.lstrip().startswith(name))
        assert re.fullmatch(r" +\S.*\S +nan <= 1e-\d\d  FAIL", row), row
    assert re.fullmatch(r" +grid points checked >= 1 \(got 0\) +FAIL",
                        rows[3]), rows[3]
    assert rows[-1] == "FAIL"


def test_cli_verify_null_table_domain_error_exits_1(capsys, tmp_path):
    # theta reads no s, so it is walked on the (t, w) table; the first
    # table entry that leaves the domain is named
    doc = {
        "version": 1,
        "curve": {"builtin": "null-example"},
        "family": {"variant": "NullC1"},
        "radius": "s/2",
        "null_coefficients": {"a1": "t", "theta": "ln(w - 1)"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.5, 1.5, 4], "w": [0.2, 2.0, 4]},
    }
    path = tmp_path / "ln.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("lmcanal: ln of non-positive value -0.8 where "
                            "t=0.5, w=0.2\n")


@pytest.mark.parametrize("radius", ["(" * 3000 + "s" + ")" * 3000,
                                    "s/2" + "+0*s" * 3000],
                         ids=["parentheses", "sum"])
def test_cli_deeply_nested_expression_exits_1(capsys, tmp_path, radius):
    # too deep for the parser's rules, and for the tree walkers; the error
    # quotes the 6,001- or 12,003-character text by its first 60 only
    doc = minimal_doc()
    doc["radius"] = radius
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scene", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"lmcanal: $.radius: bad expression "
                          f"{radius[:60]!r}…: ")
    assert f"deeper than {expr.MAX_DEPTH} levels" in err
    assert "Traceback" not in err


def test_cli_malformed_number_exits_1(capsys, tmp_path):
    doc = minimal_doc()
    doc["grid"]["s"] = ["a", 1, 5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--scene", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("lmcanal: $.grid.s: ")


def test_cli_frames_accepts_scene(capsys):
    code = main(["frames", "--scene", "partially-null-c1", "-n", "5",
                 "--s-min", "0.2", "--s-max", "0.5"])
    capsys.readouterr()
    assert code == 0


def test_cli_mesh_writes_files(capsys, tmp_path):
    obj = tmp_path / "fig.obj"
    field = tmp_path / "fig.csv"
    code = main(["mesh", "--scene", "pseudo-null-c1-figure",
                 "--out", str(obj), "--field", str(field)])
    out = capsys.readouterr().out
    assert code == 0
    assert obj.exists() and field.exists()
    assert "vertices" in out and "singular" in out


def test_cli_mesh_needs_a_fixed_axis(capsys, tmp_path):
    path = tmp_path / "unfixed.json"
    path.write_text(json.dumps(minimal_doc()))
    obj = tmp_path / "m.obj"
    assert main(["mesh", "--scene", str(path), "--out", str(obj)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not obj.exists()
    assert captured.err == ("lmcanal: sweep needs a fixed axis in the grid "
                            "spec\n")


def test_cli_mesh_bad_output_dir(capsys, tmp_path):
    code = main(["mesh", "--scene", "pseudo-null-c1-figure",
                 "--out", str(tmp_path / "missing" / "fig.obj")])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("field", ["fig.obj", "./sub/../fig.obj", "link.csv"])
def test_cli_mesh_same_out_and_field_is_a_usage_error(field, capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    obj = tmp_path / "fig.obj"
    obj.write_text("old\n")
    os.link(obj, tmp_path / "link.csv")
    code = main(["mesh", "--scene", "pseudo-null-c1-figure",
                 "--out", str(obj), "--field", field])
    captured = capsys.readouterr()
    assert code == 1
    assert "same file" in captured.err and "wrote" not in captured.out
    assert obj.read_text() == "old\n"


def test_cli_mesh_unwritable_field_fails_before_obj(capsys, tmp_path):
    obj = tmp_path / "fig.obj"
    code = main(["mesh", "--scene", "pseudo-null-c1-figure", "--out", str(obj),
                 "--field", str(tmp_path / "missing" / "fig.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("lmcanal: I/O error: ")
    assert not obj.exists()


def test_cli_mesh_field_values_match_verify_path(tmp_path, capsys):
    # the curvature channel is the same closed-form code path cmd_verify uses
    obj = tmp_path / "m.obj"
    field = tmp_path / "m.csv"
    code = main(["mesh", "--scene", "pseudo-null-c1",
                 "--out", str(obj), "--field", str(field)])
    capsys.readouterr()
    assert code == 0
    scene = bundled_scene("pseudo-null-c1")
    rows = field.read_text().splitlines()[1:]
    checked = 0
    for row in rows[:20]:
        cells = row.split(",")
        s, t, w = float(cells[0]), float(cells[1]), float(cells[2])
        if cells[7] == "":
            continue
        pair = scene.closed_pair(s, t, w)
        assert float(cells[7]) == pytest.approx(pair.K, rel=1e-12)
        assert float(cells[8]) == pytest.approx(pair.H, rel=1e-12)
        checked += 1
    assert checked > 0
