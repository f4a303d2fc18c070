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


def test_check_of_an_overflowing_function_is_undecided_and_quiet(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"variant": "mobius", "q": 1, "terms": [[[0.5, 0], 1e308]]}), encoding="utf-8")
    out = run_cli("check", "--class", "convex", "--fn", str(path))
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "UNDECIDED"
    assert out.stderr == ""


def test_check_missing_function_file():
    out = run_cli("check", "--class", "convex", "--fn", "/nonexistent/f.json")
    assert out.returncode == 2


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


def test_verify_output_is_byte_identical_across_runs():
    # sector family is a poor fit for T34, so this run reports grid-level
    # counterexamples (exit 3); the point here is pure determinism
    args = ("verify", "--case", "T34", "--family", "sector")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 3


def test_verify_threads_do_not_change_the_bytes():
    args = ("verify", "--case", "C42")
    base = run_cli(*args)
    threaded = run_cli(*args, env_extra={"GFT_THREADS": "4"})
    assert base.stdout == threaded.stdout


def test_bad_thread_count_warns_once_and_keeps_the_bytes():
    args = ("verify", "--case", "C42")
    base = run_cli(*args)
    bad = run_cli(*args, env_extra={"GFT_THREADS": "four"})
    assert bad.returncode == base.returncode == 0
    assert bad.stdout == base.stdout
    assert bad.stderr.count("GFT_THREADS='four'") == 1
    assert base.stderr == ""


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


def test_radius_gate_with_no_survivors_is_an_error():
    out = run_cli("radius", "--lambda", "1", "--alpha", "1", "--family", "sector")
    assert out.returncode == 2
    assert "no family member passes" in out.stderr


def test_radius_requires_valid_parameters():
    out = run_cli("radius", "--lambda", "0", "--alpha", "1")
    assert out.returncode == 2


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
