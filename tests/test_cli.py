"""End-to-end runs of the command-line front end in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "gftkit.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")

HALF_PLANE = {"variant": "mobius", "q": 1, "terms": [[[-1, 0], -1]]}


def run_cli(*argv, env_extra=None):
    # the subprocess imports gftkit from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, env=env)


@pytest.fixture()
def fn_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(HALF_PLANE), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- constants


def test_constants_radius_line():
    out = run_cli("constants", "--lambda", "1", "--alpha", "0")
    assert out.returncode == 0
    assert "radius_convexity = 0.280776406404" in out.stdout


def test_constants_mixed_height():
    out = run_cli("constants", "--lambda", "0")
    assert out.returncode == 0
    assert "mixed_slit_height = 1.73205080757" in out.stdout


def test_constants_slit_block():
    out = run_cli("constants", "--alpha", "0.75", "--beta", "0.5")
    assert out.returncode == 0
    assert "sector_half_angle = 0.314159265359" in out.stdout
    assert "slit_x1 = 0.156588754468" in out.stdout


def test_constants_json_round_trips():
    out = run_cli("constants", "--alpha", "0.75", "--beta", "0.5", "--json")
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["sector_half_angle"] == 0.314159265359
    assert blob["slit_y2"] == 1.49994195003


def test_constants_without_applicable_inputs_is_an_error():
    out = run_cli("constants")
    assert out.returncode == 2
    assert out.stderr.strip() != ""


def test_constants_out_of_range_is_a_usage_error():
    # every candidate constant for lambda=2 is out of domain, nothing prints
    out = run_cli("constants", "--lambda", "2")
    assert out.returncode == 2


# ---------------------------------------------------------------- check


def test_check_convexity_of_the_half_plane_map(fn_file):
    out = run_cli("check", "--class", "convex", "--fn", fn_file)
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["verdict"] == "HOLDS"
    assert blob["margin"] == 0.00250626566416
    assert blob["samples"] == 16560


def test_check_coarse_grid_profile(fn_file):
    out = run_cli("check", "--class", "U:1,1", "--fn", fn_file, "--grid", "coarse")
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["samples"] == 1800
    assert blob["margin"] == 1.0


def test_check_custom_grid_profile(fn_file):
    out = run_cli("check", "--class", "convex", "--fn", fn_file, "--grid", "0.3,0.6,0.9@360")
    assert out.returncode == 0
    assert json.loads(out.stdout)["samples"] == 1080


def test_check_rejects_unknown_grid_profile(fn_file):
    out = run_cli("check", "--class", "convex", "--fn", fn_file, "--grid", "weird")
    assert out.returncode == 2


def test_check_rejects_unknown_class(fn_file):
    out = run_cli("check", "--class", "bogus", "--fn", fn_file)
    assert out.returncode == 2
    assert "unknown class" in out.stderr


def test_check_rejects_a_fractional_tag_order(tmp_path):
    # "p": 1.9 used to be truncated to A_1 and reported HOLDS
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"variant": "taylor", "tag": {"class": "A", "p": 1.9},
                                "coeffs": [[0, 0], [1, 0], [0.1, 0]]}), encoding="utf-8")
    out = run_cli("check", "--class", "starlike", "--fn", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "must be an integer" in out.stderr and "Traceback" not in out.stderr


def test_check_rejects_a_non_finite_tag_value(tmp_path):
    # abs(c_0 - nan) > tol is False, so a NaN a used to pass the tag check
    path = tmp_path / "fn.json"
    path.write_text('{"variant": "taylor", "tag": {"class": "H", "a": [NaN, 0], "n": 1}, "coeffs": [[1, 0], [0.1, 0]]}',
                    encoding="utf-8")
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "finite" in out.stderr and "Traceback" not in out.stderr


def test_check_of_an_overflowing_function_is_undecided_and_quiet(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"variant": "mobius", "q": 1, "terms": [[[0.5, 0], 1e308]]}), encoding="utf-8")
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "UNDECIDED"
    assert out.stderr == ""


def test_check_rejects_a_nan_coefficient_without_numpy_warnings(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text('{"variant": "taylor", "tag": {"class": "A", "p": 1}, '
                    '"coeffs": [[0, 0], [1, 0], [NaN, 0]]}', encoding="utf-8")
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "must be finite" in out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr


def test_check_missing_function_file():
    out = run_cli("check", "--class", "convex", "--fn", "/nonexistent/f.json")
    assert out.returncode == 2


def test_check_of_a_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "fn.json"
    path.write_bytes(b'{"variant": "mobius", "q": 1, "terms": [], "note": "\xff"}')
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 2
    assert out.stderr.startswith("gftkit: function file") and "not valid UTF-8" in out.stderr
    assert "Traceback" not in out.stderr


def test_check_of_a_deeply_nested_file_exits_2(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 2
    assert out.stderr.startswith("gftkit: function file") and "nested too deeply" in out.stderr
    assert "Traceback" not in out.stderr


def test_check_eps_zero_is_in_domain(fn_file):
    out = run_cli("check", "--class", "convex", "--fn", fn_file, "--grid", "0.5@8", "--eps", "0")
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "HOLDS"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--case", "T41"),
        ("radius", "--lambda", "1", "--alpha", "1", "--family", "random:3,6,4", "--tol", "0.01"),
        ("dump", "--functional", "convex", "--grid", "0.5@8"),
    ],
)
def test_out_into_a_missing_directory_exits_2_with_one_line(tmp_path, fn_file, argv):
    if argv[0] == "dump":
        argv += ("--fn", fn_file)
    out = run_cli(*argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert out.returncode == 2
    assert out.stderr == f"gftkit: cannot write {tmp_path / 'missing' / 'x.csv'}: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]


def test_dump_removes_its_samples_when_the_sidecar_cannot_be_written(tmp_path, fn_file):
    (tmp_path / "image.geometry.json").mkdir()  # a directory where the sidecar goes
    out = run_cli("dump", "--functional", "convex", "--fn", fn_file, "--grid", "0.5@8",
                  "--out", str(tmp_path / "image.csv"))
    assert out.returncode == 2
    assert out.stderr.startswith("gftkit: cannot write") and "Traceback" not in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json", "image.geometry.json"]


# ---------------------------------------------------------------- verify


def test_verify_scan_with_spelled_out_tilt_key(tmp_path):
    out_csv = tmp_path / "report.csv"
    out = run_cli(
        "verify", "--case", "T41",
        "--params", '{"lambda":1,"alpha":1}',
        "--family", "mobius",
        "--out", str(out_csv),
    )
    assert out.returncode == 0
    blob = json.loads(out.stdout)
    assert blob["functions_scanned"] == 25
    assert blob["hypothesis_holds"] == 13
    assert blob["counterexamples"] == []
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "label,hyp_verdict,hyp_margin,concl_verdict,concl_margin,error"
    assert len(lines) == 26


def test_verify_default_family_exit_code():
    out = run_cli("verify", "--case", "C33")
    assert out.returncode == 0
    assert json.loads(out.stdout)["counterexamples"] == []


def test_verify_rejects_bad_params():
    out = run_cli("verify", "--case", "T41", "--params", "{not json")
    assert out.returncode == 2
    out2 = run_cli("verify", "--case", "T99")
    assert out2.returncode == 2


def test_verify_rejects_deeply_nested_params():
    out = run_cli("verify", "--case", "T41", "--params", '{"a":' * 5000 + "1" + "}" * 5000)
    assert out.returncode == 2
    assert out.stderr.startswith("gftkit: --params is nested too deeply") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "case, params",
    [
        ("T41", '{"lam": "x"}'),
        ("T41", '{"lam": null}'),
        ("T41", '{"lam": NaN}'),
        ("T31", '{"n": 1.5}'),
        ("T35", '{"p": 2.5}'),
        ("C38", '{"kind": 1}'),
    ],
)
def test_verify_rejects_ill_typed_params_without_a_traceback(case, params):
    out = run_cli("verify", "--case", case, "--params", params)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "parameter" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("case", ["T39", "C310"])
def test_verify_with_far_apart_orders_names_them(case):
    out = run_cli("verify", "--case", case, "--params", '{"alpha": 0.9, "beta": 0.1}')
    assert out.returncode == 2
    assert out.stdout == ""
    assert "x*_1 > 0" in out.stderr and "alpha = 0.9" in out.stderr and "beta = 0.1" in out.stderr


@pytest.mark.parametrize("family", ["random:-1,6,4", "random:1,6,4,Q", f"random:0,{10**11},1", f"random:0,6,{10**11}"])
def test_verify_rejects_random_family_parameters_outside_their_domains(family):
    # a negative seed used to end in a numpy traceback with exit 1, and a
    # huge degree or count in a loop that ran for minutes
    out = run_cli("verify", "--case", "T41", "--family", family)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "must" in out.stderr and "Traceback" not in out.stderr


def test_verify_output_is_byte_identical_across_runs():
    # sector family is a poor fit for T34, so this run reports grid-level
    # counterexamples (exit 3); the point here is pure determinism
    args = ("verify", "--case", "T34", "--family", "sector")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 3


def test_verify_threads_do_not_change_the_bytes():
    # gftkit reads no environment variable: GFT_THREADS, which once set a
    # scan's thread count, changes nothing and prints no warning
    args = ("verify", "--case", "C42")
    base = run_cli(*args)
    for raw in ("4", "four"):
        out = run_cli(*args, env_extra={"GFT_THREADS": raw})
        assert out.returncode == base.returncode == 0
        assert out.stdout == base.stdout and out.stderr == base.stderr == ""


# ---------------------------------------------------------------- radius


def test_radius_envelope_with_a_small_random_family(tmp_path):
    out_csv = tmp_path / "radii.csv"
    out = run_cli(
        "radius", "--lambda", "1", "--alpha", "1",
        "--family", "random:3,6,4",
        "--out", str(out_csv),
    )
    assert out.returncode == 0
    assert "convexity: closed_form = 0.186140661635" in out.stdout
    assert "inv_alpha_convexity: closed_form = 0.186140661635" in out.stdout
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "property,lambda,alpha,closed_form_R,empirical_family_R,witness_params"
    assert len(lines) == 3
    assert lines[1].startswith("convexity,1,1,0.186140661635,")


def test_radius_envelope_never_undershoots_the_closed_form(tmp_path):
    out_csv = tmp_path / "radii.csv"
    run_cli("radius", "--lambda", "1", "--alpha", "1", "--family", "random:3,6,4", "--out", str(out_csv))
    for line in out_csv.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert float(cells[4]) >= float(cells[3]) - 2e-4


@pytest.mark.parametrize("alpha, saving", [("1", 2), ("0.5", 1)])
def test_radius_searches_each_margin_class_once(alpha, saving, tmp_path, monkeypatch, capsys):
    # in process, to count the searches.  At alpha = 1 the weighted
    # property's class M_1 is convexity's, whose envelope it reuses: the
    # same bytes as a second search, from half the searches
    from gftkit import cli, membership, radii

    argv = ["radius", "--lambda", "1", "--alpha", alpha, "--family", "random:3,6,4"]
    calls = []
    inner = radii.property_radius
    monkeypatch.setattr(radii, "property_radius", lambda *a, **k: calls.append(a[1]) or inner(*a, **k))
    runs = []
    for each_property in (False, True):  # True searches each property's class, as if all differed
        if each_property:
            monkeypatch.setattr(membership, "margin_class", lambda spec: spec)
        out = tmp_path / f"{each_property}.csv"
        calls.clear()
        assert cli.main([*argv, "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes(), len(calls)))
    (stdout, csv_bytes, searched), (stdout_each, csv_each, searched_each) = runs
    assert stdout == stdout_each and csv_bytes == csv_each
    assert searched > 0 and searched_each == saving * searched


def test_radius_gate_with_no_survivors_is_an_error():
    out = run_cli("radius", "--lambda", "1", "--alpha", "1", "--family", "sector")
    assert out.returncode == 2
    assert "no family member passes" in out.stderr


def test_radius_requires_valid_parameters():
    out = run_cli("radius", "--lambda", "0", "--alpha", "1")
    assert out.returncode == 2


@pytest.mark.parametrize("tol", ["0", "5e-324", "1e-300", "0.5", "nan"])
def test_radius_tolerance_outside_its_domain_is_an_error(tol):
    # 5e-324 puts the ring at tol on the origin and 1e-300 the ring at
    # 1 - tol on the unit circle
    out = run_cli("radius", "--lambda", "1", "--alpha", "1", "--tol", tol)
    assert out.returncode == 2
    assert out.stderr == f"gftkit: tolerance must lie in [1e-12, 0.5), got {float(tol)}\n"
    assert out.stdout == ""


# ---------------------------------------------------------------- dump


def test_dump_writes_samples_and_geometry_sidecar(tmp_path, fn_file):
    out_csv = tmp_path / "image.csv"
    out = run_cli(
        "dump", "--functional", "mixed:0.5", "--fn", fn_file,
        "--grid", "0.3,0.6@90", "--out", str(out_csv),
    )
    assert out.returncode == 0
    assert "wrote" in out.stdout
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "re_z,im_z,re_w,im_w"
    assert len(lines) == 181
    side = tmp_path / "image.geometry.json"
    geometry = json.loads(side.read_text())
    anchors = {(ray["anchor"][0], ray["anchor"][1]) for ray in geometry["rays"]}
    assert anchors == {(0.0, 1.11803398875), (0.0, -1.11803398875)}
    directions = {ray["direction"] for ray in geometry["rays"]}
    assert directions == {"up", "down"}


def test_dump_slit_geometry_uses_the_asymmetric_anchors(tmp_path, fn_file):
    out_csv = tmp_path / "image2.csv"
    out = run_cli(
        "dump", "--functional", "slit1:0.75,0.5", "--fn", fn_file,
        "--grid", "0.5@16", "--out", str(out_csv),
    )
    assert out.returncode == 0
    geometry = json.loads((tmp_path / "image2.geometry.json").read_text())
    ys = sorted(ray["anchor"][1] for ray in geometry["rays"])
    assert ys == [-1.09379232974, 1.49994195003]


def test_dump_rejects_unknown_functional(tmp_path, fn_file):
    out = run_cli("dump", "--functional", "nope", "--fn", fn_file, "--out", str(tmp_path / "x.csv"))
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("dump", "--functional", "ratio2:nan,1"),
        ("dump", "--functional", "thm3:nan,1,0.5"),
        ("dump", "--functional", "power2:1,nan,0.5"),
        ("dump", "--functional", "thm3:1,1,0.5,1.9"),
        ("check", "--class", "M:inf"),
        ("check", "--class", "convex", "--eps", "nan"),  # every verdict used to be UNDECIDED
        ("check", "--class", "convex", "--eps", "inf"),
        ("check", "--class", "convex", "--eps", "-1"),
    ],
)
def test_non_finite_and_non_integral_parameters_exit_2_quietly(tmp_path, fn_file, argv):
    if argv[0] == "dump":
        argv += ("--fn2", fn_file, "--out", str(tmp_path / "image.csv"))
    out = run_cli(*argv, "--fn", fn_file, "--grid", "0.5@8")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]


BIG = "1" + "0" * 400  # an integer far beyond the float range


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--case", "T35", "--params", '{"p": 1e308}'],  # each used to overflow with exit 1
        ["verify", "--case", "C37I", "--params", '{"p": 1e308}'],
        ["verify", "--case", "C38", "--params", '{"p": 1' + "0" * 5000 + "}"],  # beyond int("...") digits
        ["constants", "--gamma", "1", "--delta", "1", "--p", BIG],
        ["dump", "--functional", f"thm3:1,1,0.5,{BIG}", "--fn", "FN", "--out", "OUT"],
        ["verify", "--case", "T41", "--params", '{"lam": 0.5, "lambda": 1.0}'],  # used to keep the last key
    ],
)
def test_orders_beyond_2_53_and_both_tilt_keys_exit_2_with_one_line(tmp_path, fn_file, argv):
    argv = [fn_file if a == "FN" else str(tmp_path / "image.csv") if a == "OUT" else a for a in argv]
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("gftkit: ") and out.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]


def test_constants_drops_the_slit_lines_for_an_order_beyond_2_53():
    out = run_cli("constants", "--alpha", "0.5", "--beta", "0.5", "--n", BIG)
    assert out.returncode == 0
    assert [line.split(" = ")[0] for line in out.stdout.splitlines()] == ["sector_half_angle", "ratio_bound"]
    assert out.stderr.startswith("gftkit: dropped slit_x1 slit_y1 slit_y2: ") and out.stderr.count("\n") == 1


def test_constants_names_the_window_lines_it_drops():
    out = run_cli("constants", "--alpha", "0.9", "--beta", "0.1", "--gamma", "0.75")
    assert out.returncode == 0
    assert [line.split(" = ")[0] for line in out.stdout.splitlines()] == \
        ["sector_half_angle", "slit_x1", "slit_y1", "slit_y2", "ratio_bound"]
    assert out.stderr.startswith("gftkit: dropped window_delta1 window_delta2 window_M1 window_M2: need x*_1 > 0")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("functional", ["slit1:1.5,0.5", "slit1:0.9,-0.1", "thm3:1,1,0.5"])
def test_dump_writes_no_file_when_the_geometry_is_out_of_domain(tmp_path, fn_file, functional):
    # alpha = 1.5 is outside (-1, 1]; slit1:0.9,-0.1 has no slit (both orders
    # must be positive); thm3 gets a tilt beyond pi/2; each used to leave the
    # CSV without its sidecar
    out = run_cli("dump", "--functional", functional, "--fn", fn_file, "--grid", "0.5@8",
                  "--lambda", "2", "--out", str(tmp_path / "image.csv"))
    assert out.returncode == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]


@pytest.mark.parametrize(
    "functional, lam",
    [
        ("tilted:0.5", "nan"),
        ("mixed:0.5", "inf"),
        ("slit1:0.75,0.5", "1e300"),
        ("convex", "-5"),
        ("starlike", "1.5707963267948966"),  # pi/2 itself is outside [0, pi/2)
        ("thm3:1,1,0.5", "-inf"),
    ],
)
def test_dump_lambda_outside_its_domain_exits_2_before_any_file(tmp_path, fn_file, functional, lam):
    # the sidecar tilt is checked for every functional, not only where a
    # weighted slit reads it
    out = run_cli("dump", "--functional", functional, "--fn", fn_file, "--grid", "0.5@8",
                  f"--lambda={lam}", "--out", str(tmp_path / "image.csv"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"gftkit: need lambda in [0, pi/2), got {float(lam)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]


def test_dump_lambda_inside_its_domain_keeps_the_symmetric_slit(tmp_path, fn_file):
    out = run_cli("dump", "--functional", "convex", "--fn", fn_file, "--grid", "0.5@8",
                  "--lambda", "1.5", "--out", str(tmp_path / "image.csv"))
    assert out.returncode == 0
    geometry = json.loads((tmp_path / "image.geometry.json").read_text())
    assert sorted(ray["anchor"][1] for ray in geometry["rays"]) == [-1.73205080757, 1.73205080757]


def test_dump_of_a_slit_without_rays_writes_no_file(tmp_path, fn_file):
    # slit1 needs both orders positive for its sidecar, with or without --lambda
    out = run_cli("dump", "--functional", "slit1:0.9,-0.1", "--fn", fn_file, "--grid", "0.5@8",
                  "--out", str(tmp_path / "image.csv"))
    assert out.returncode == 2
    assert out.stderr.startswith("gftkit: ") and out.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.json"]
