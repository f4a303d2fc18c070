"""The CLI vocabularies: README grammar lines and property tests driven by the tables."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gftkit import cli, theorems

README = Path(__file__).resolve().parents[1] / "README.md"
VOCABULARIES = (("--class", cli._classes()), ("--functional", cli._functionals()), ("--family", cli._families()))


def test_readme_grammar_lines_match_the_tables():
    lines = README.read_text(encoding="utf-8").splitlines()
    for flag, table in VOCABULARIES:
        assert f"{flag} {cli._usage(table)}" in lines


def stated(param) -> str:
    """A parameter and its domain as README states them."""
    return f"`{param.name}` {'in ' if param.domain[0] in '([{' else ''}{param.domain}"


def test_readme_states_every_parameter_domain():
    lines = README.read_text(encoding="utf-8").splitlines()
    for _, table in VOCABULARIES:
        for token, (params, _) in table.items():
            if params:
                assert f"- `{token}`: {', '.join(map(stated, params))}" in lines


def test_readme_lists_every_case_with_its_domains_and_defaults():
    lines = README.read_text(encoding="utf-8").splitlines()
    for case_id, entry in theorems.CASES.items():
        params = [f"{stated(p)} (default {d if isinstance(d, str) else format(d, '.12g')})"
                  for p, d in entry.params.items()]
        assert f"- `{case_id}`: {', '.join(params) or 'no parameters'}" in lines


# ---------------------------------------------------------------------------
# every drawn grammar string exits 0 or 2, with no exception and no numpy
# warning (pytest turns RuntimeWarning into an error, see pyproject.toml)

# in-domain values for most parameters, and values that probe the domains
FIELDS = st.one_of(
    st.sampled_from(["0.5", "0.25", "1", "2", "3", "-0", "A"]),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1.5", "0", "-1", "-0.5", "", "x", "H"]),
)


def grammar_strings(table: dict):
    """A token of the table with its own number of fields or a random one."""

    def with_fields(token: str):
        count = st.one_of(st.just(len(table[token][0])), st.integers(0, 5))
        fields = count.flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n))
        return fields.map(lambda parts: token + (":" + ",".join(parts) if parts else ""))

    return st.sampled_from(sorted(table)).flatmap(with_fields)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    f, g = root / "f.json", root / "g.json"
    f.write_text(json.dumps({"variant": "mobius", "q": 1, "terms": [[[-1, 0], -1]]}), encoding="utf-8")
    g.write_text(json.dumps({"variant": "taylor", "tag": {"class": "A", "p": 1},
                             "coeffs": [[0, 0], [1, 0], [0.3, 0.1]]}), encoding="utf-8")
    return root


def run_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(text=grammar_strings(cli._classes()))
def test_any_class_string_checks_or_exits_2(files, text):
    code = run_main(["check", "--class", text, "--fn", str(files / "f.json"), "--grid", "0.5@8"])
    assert code in (0, 2)


@PROPERTY
@given(text=grammar_strings(cli._functionals()))
def test_any_functional_string_dumps_or_exits_2(files, text):
    out = files / "image.csv"
    code = run_main(["dump", "--functional", text, "--fn", str(files / "f.json"), "--fn2", str(files / "g.json"),
                     "--grid", "0.5@8", "--out", str(out)])
    assert code in (0, 2)
    sidecar = files / "image.geometry.json"
    assert out.exists() == sidecar.exists() == (code == 0)
    out.unlink(missing_ok=True)
    sidecar.unlink(missing_ok=True)


# radii in range and radii that probe the open interval; angle counts in and
# out of [8, 2**16], none of them large enough to build a large array
GRID_RADII = st.sampled_from(["0.5", "0.25", "0.9", "0", "1", "nan", "1e-320", "-0.5", "inf", "x", ""])
GRID_ANGLES = st.sampled_from([8, 16, 90, 7, 0, -8, 720.5, 2**16 + 1, 2**63, 10**20])


@PROPERTY
@given(radii=st.lists(GRID_RADII, min_size=1, max_size=4), angles=GRID_ANGLES)
def test_any_explicit_grid_checks_or_exits_2(files, radii, angles):
    grid = f"{','.join(radii)}@{angles}"
    code = run_main(["check", "--class", "convex", "--fn", str(files / "f.json"), "--grid", grid])
    assert code in (0, 2)


@settings(PROPERTY, max_examples=40)
@given(text=grammar_strings(cli._families()))
def test_any_family_string_gives_radii_or_exits_2(text):
    code = run_main(["radius", "--lambda", "1", "--alpha", "1", "--tol", "0.01", "--family", text])
    assert code in (0, 2)


# ---------------------------------------------------------------------------
# malformed function files: a valid document with a few values replaced,
# lists lengthened or keys dropped either checks or exits 2

ODD = st.sampled_from([float("nan"), float("inf"), -1e308, 1e308, 10**400, -(2**60), True, None, "0.5", "x"])
JSON_VALUES = st.recursive(
    st.floats(-2, 2) | st.integers(-3, 3) | ODD | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(["variant", "class", "p", "a"]), kids,
                                                            max_size=3),
    max_leaves=6,
)
UNIT = st.floats(-0.7, 0.7)
VALID = st.one_of(
    st.fixed_dictionaries({
        "variant": st.just("mobius"),
        "q": st.integers(-1, 3),
        "terms": st.lists(st.tuples(st.lists(UNIT, min_size=2, max_size=2), st.floats(-3, 3)).map(list), max_size=3),
    }),
    st.lists(st.lists(UNIT, min_size=2, max_size=2), max_size=4).map(lambda cs: {
        "variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0]] + cs}),
    st.lists(st.lists(UNIT, min_size=2, max_size=2), max_size=4).map(lambda cs: {
        "variant": "taylor", "tag": {"class": "H", "a": [1, 0], "n": 1}, "coeffs": [[1, 0]] + cs}),
)


def edit(doc, data):
    """doc with the value at a random path replaced, lengthened or dropped."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        doc = doc.copy()
        action = data.draw(st.sampled_from(["descend", "descend", "drop", "extend"]))
        if action == "drop":
            del doc[key]
        elif action == "extend" and isinstance(doc, list):
            doc.append(data.draw(JSON_VALUES))
        else:
            doc[key] = edit(doc[key], data)
        return doc
    return data.draw(JSON_VALUES)


@settings(PROPERTY, max_examples=200)
@given(doc=VALID, edits=st.integers(0, 3), cls=st.sampled_from(["convex", "U:1,1", "starlike"]), data=st.data())
def test_any_function_file_checks_or_exits_2(files, doc, edits, cls, data):
    for _ in range(edits):
        doc = edit(doc, data)
    path = files / "drawn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_main(["check", "--class", cls, "--fn", str(path), "--grid", "0.5@8"])
    assert code in (0, 2)


# ---------------------------------------------------------------------------
# verify --params and constants flags: drawn values in and out of each
# domain exit 0, 2 or 3, with no exception and no numpy warning

CASE_VALUES = st.one_of(
    st.sampled_from([0, 0.25, 0.5, 0.75, 1, 1.0, 1.5, 2, 3, -0.5, -1, 1e-300, 2**53, 2**53 + 1, "disk", "half_plane",
                     "rectangle", "ellipse"]),
    ODD,
)
# each case with each of its own keys, the spelled-out tilt key and an unknown one
CASE_KEYS = [(case_id, key) for case_id, entry in theorems.CASES.items()
             for key in [p.name for p in entry.params] + ["lambda", "bogus"]]


@pytest.mark.parametrize("case_id, key", CASE_KEYS)
@settings(PROPERTY, max_examples=15)
@given(value=CASE_VALUES, data=st.data())
def test_any_case_parameters_verify_or_exit_2(case_id, key, value, data):
    keys = [k for c, k in CASE_KEYS if c == case_id]
    params = {key: value, **data.draw(st.dictionaries(st.sampled_from(keys), CASE_VALUES, max_size=1), label="more")}
    code = run_main(["verify", "--case", case_id, "--params", json.dumps(params), "--family", "random:1,3,1"])
    assert code in (0, 2, 3)


REAL_FLAGS = ("--alpha", "--beta", "--gamma", "--delta", "--lambda")
REALS = st.sampled_from(["0", "0.25", "0.5", "0.75", "1", "2", "-0.5", "-1", "1e-300", "1e308", "-1e308", "nan", "inf",
                         "x"])
ORDERS = st.sampled_from(["1", "2", "0", "-1", str(2**53), str(2**53 + 1), str(10**400), "1.5"])


@st.composite
def constants_argv(draw):
    argv = ["constants"]
    for flag in draw(st.lists(st.sampled_from(REAL_FLAGS + ("--n", "--p")), unique=True, min_size=1, max_size=5)):
        argv.append(f"{flag}={draw(ORDERS if flag in ('--n', '--p') else REALS)}")
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(PROPERTY, max_examples=300)
@given(argv=constants_argv())
def test_any_constants_flags_print_or_exit_2(argv):
    assert run_main(argv) in (0, 2)
