import json
import pathlib
import re
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttgkit.classify import SUITES
from ttgkit.cli import (
    MAX_N,
    MAX_PROBE_DEGREE,
    emit_report,
    main,
    parse_workspace,
    serialize_workspace,
)
from ttgkit.errors import InputError
from ttgkit.serialize import canonical_json


FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
COMMAND_GOLDENS = sorted(
    p.name for p in (FIXTURES / "golden").glob("*.json")
    if p.name.startswith(("cohomology-", "residue-", "support-"))
)
SUMMARY_GOLDENS = sorted(
    p.name for p in (FIXTURES / "golden").iterdir()
    if p.name.startswith(("classify-", "report-", "validate-"))
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_workspace_fixture(qxy_path):
    workspace = parse_workspace(qxy_path)
    cat = workspace.catalogue
    assert sorted(cat.objects) == ["cd", "cx", "cy", "kxy", "unit", "zero"]
    assert [p.name for p in cat.primes] == ["p0", "px", "py", "pd", "pmax"]


def test_round_trip(qxy_path, tmp_path):
    first = parse_workspace(qxy_path)
    serialized = serialize_workspace(first)
    path = tmp_path / "again.json"
    path.write_text(serialized)
    second = parse_workspace(str(path))
    assert serialize_workspace(second) == serialized
    assert second.catalogue.objects == first.catalogue.objects
    assert [p.to_json_dict() for p in second.catalogue.primes] == [
        p.to_json_dict() for p in first.catalogue.primes
    ]


def test_parse_rejects_odd_weight(tmp_path):
    cases = [
        ([{"name": "x", "degree": 3}], r"ring\.vars: odd weight"),
        ([{"name": "x", "degree": 0}], r"ring\.vars: nonpositive weight"),
        ([{"name": "x", "degree": 2}, {"name": "x", "degree": 2}],
         r"ring\.vars: duplicate variable names"),
    ]
    for k, (variables, message) in enumerate(cases):
        path = tmp_path / f"ring{k}.json"
        path.write_text(json.dumps({
            "ring": {"char": 0, "vars": variables},
            "primes": [], "complexes": [],
        }))
        with pytest.raises(InputError, match=message):
            parse_workspace(str(path))


def test_parse_rejects_degree_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "ring": {"char": 0, "vars": [{"name": "x", "degree": 2}]},
        "primes": [],
        "complexes": [{
            "name": "bad",
            "gens": [{"name": "u", "degree": 1}, {"name": "v", "degree": 0}],
            "d": [{"from": "u", "to": "v", "coef": "x^2"}],
        }],
    }))
    with pytest.raises(InputError, match="u -> v"):
        parse_workspace(str(path))


def test_parse_locates_characteristic_error(tmp_path):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({
        "ring": {"char": 2**100, "vars": [{"name": "x", "degree": 2}]},
        "primes": [], "complexes": [],
    }))
    with pytest.raises(InputError, match=r"ring\.char: .*supported cap"):
        parse_workspace(str(path))


def test_parse_locates_json_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ring": [,]}')
    with pytest.raises(InputError, match="line 1"):
        parse_workspace(str(path))


def test_parse_locates_bad_polynomial(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "ring": {"char": 0, "vars": [{"name": "x", "degree": 2}]},
        "primes": [{"name": "p", "gens": ["q"], "seq": [], "cert": "1"}],
        "complexes": [],
    }))
    with pytest.raises(InputError, match=r"primes\[0\].gens\[0\]"):
        parse_workspace(str(path))


def test_parse_ignores_legacy_cert(qxy_path, tmp_path):
    """A prime's `cert` key, as older workspaces and perfbench/gen.py still
    write it, is ignored like every other key outside the schema."""
    raw = json.loads((FIXTURES / "qxy.json").read_text())
    for prime in raw["primes"]:
        prime["cert"] = "1"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(raw))
    assert serialize_workspace(parse_workspace(str(path))) == serialize_workspace(
        parse_workspace(qxy_path))


def _fixture_with(keys, value, fixture="qxy"):
    """A fixture as JSON text, with the value at the key path replaced, or
    appended when the last key is the length of a list."""
    raw = json.loads((FIXTURES / f"{fixture}.json").read_text())
    target = raw
    for key in keys[:-1]:
        target = target[key]
    if isinstance(target, list) and keys[-1] == len(target):
        target.append(value)
    else:
        target[keys[-1]] = value
    return json.dumps(raw)


@pytest.mark.parametrize("text, message", [
    (_fixture_with(["complexes", 0, "d"], 5), r"complexes\[0\]\.d: expected list$"),
    (_fixture_with(["primes"], {"a": 1}), r":primes: expected list$"),
    (_fixture_with(["complexes"], "abc"), r":complexes: expected list$"),
    (_fixture_with(["primes", 1], {"name": "px", "gens": ["x^1000000000000"],
                                   "seq": ["x^1000000000000"]}),
     r"primes\[1\]\.gens\[0\]: weighted degree 2000000000000 exceeds 400$"),
    (_fixture_with(["complexes", 2], {
        "name": "cx", "gens": [{"name": "u", "degree": 201}, {"name": "v", "degree": -200}],
        "d": [{"from": "u", "to": "v", "coef": "x^201"}]}),
     r"complexes\[2\]\.d\[0\]\.coef: weighted degree 402 exceeds 400$"),
    (_fixture_with(["complexes", 0, "gens", 0, "degree"], 401),
     r"complexes\[0\]\.gens\[0\]\.degree: 401 is outside the supported range \[-400, 400\]$"),
    (_fixture_with(["complexes", 0, "gens", 0, "degree"], -401),
     r"complexes\[0\]\.gens\[0\]\.degree: -401 is outside"),
    (_fixture_with(["primes", 1, "gens", 0], "1" * 5000 + "*x"),
     r"primes\[1\]\.gens\[0\]: number too long at column 1$"),
    ('{"ring": {"char": ' + "1" * 5000 + ', "vars": []}}', r": unsupported JSON: "),
    ('{"ring": ' + "[" * 100000 + "]" * 100000 + "}", r": unsupported JSON: "),
    (_fixture_with(["complexes", 0, "gens", 0, "degree"], True),
     r"complexes\[0\]\.gens\[0\]\.degree: expected int$"),
    (_fixture_with(["ring", "char"], True), r":ring\.char: expected int$"),
    (_fixture_with(["ring", "vars", 0, "degree"], True),
     r":ring\.vars\[0\]\.degree: expected int$"),
    (_fixture_with(["complexes", 0], {
        "name": "bad",
        "gens": [{"name": "a", "degree": 2}, {"name": "b", "degree": 1},
                 {"name": "c", "degree": 0}],
        "d": [{"from": "a", "to": "b", "coef": "x"}, {"from": "b", "to": "c", "coef": "x+y"}]}),
     r":complexes\[0\]: differential does not square to zero at \(a, c\): x\^2\+x\*y$"),
    (_fixture_with(["primes", 1], {"name": "px", "gens": ["x^2"], "seq": ["x^2"]}),
     r":primes\[1\]: prime px: not a prime ideal: it contains x\*x but not x$"),
    (_fixture_with(["primes", 1], {"name": "px", "gens": ["x*y"], "seq": ["x*y"]}),
     r":primes\[1\]: prime px: not a prime ideal: it contains x\*y but not x or y$"),
    (_fixture_with(["primes", 1], {"name": "px", "gens": ["x^2", "y"], "seq": ["x^2", "y"]}),
     r":primes\[1\]: prime px: not a prime ideal: it contains x\*x but not x$"),
    (_fixture_with(["primes", 1], {"name": "px", "gens": ["x^2+x*y"], "seq": ["x^2+x*y"]}),
     r":primes\[1\]: prime px: not a prime ideal: it contains x\*\(x\+y\) but not x or x\+y$"),
    (_fixture_with(["complexes", 5, "name"], "unit"),
     r":complexes\[5\]\.name: duplicate complex name 'unit'$"),
    (_fixture_with(["primes", 2, "name"], "px"),
     r":primes\[2\]\.name: duplicate prime name 'px'$"),
    (_fixture_with(["primes", 1],
                   {"name": "px", "gens": ["x"], "seq": ["x^2+x*y"], "cert": "x+y"}),
     r":primes\[1\]: prime px: the sequence does not generate the prime: "
     r"x is not in \(x\^2\+x\*y\)$"),
    (_fixture_with(["primes", 1], {"name": "pp", "gens": ["x^50+y^50+z^25"],
                                   "seq": ["x^50+y^50+z^25"]}, fixture="f5xyz"),
     r":primes\[1\]: prime pp: not a prime ideal: it contains "
     r"\(x\^10\+y\^10\+z\^5\)\*\(x\^10\+y\^10\+z\^5\)\^4 "
     r"but not x\^10\+y\^10\+z\^5 or \(x\^10\+y\^10\+z\^5\)\^4$"),
    (_fixture_with(["primes", 5], {"name": "pp", "gens": ["x"], "seq": ["x", "x"]}),
     r":primes\[5\]: prime pp: sequence is not regular$"),
    (_fixture_with(["primes", 5], {"name": "pz", "gens": ["x-x"], "seq": []}),
     r":primes\[5\]: prime pz: zero generator$"),
    (_fixture_with(["complexes", 2, "d", 0, "coef"], "x^\u0661+\u3000\u0662*y"),
     r":complexes\[2\]\.d\[0\]\.coef: unexpected character '\u0661' at column 3$"),
    (_fixture_with(["complexes", 2, "d", 0, "from"], "zz"),
     r":complexes\[2\]\.d\[0\]\.from: unknown generator 'zz'$"),
    (_fixture_with(["complexes", 1, "d", 0, "coef"], "1/5*x", fixture="f5xyz"),
     r":complexes\[1\]\.d\[0\]\.coef: denominator 5 not invertible mod 5$"),
], ids=["d-int", "primes-dict", "complexes-string", "exponent-huge", "coef-degree",
        "gen-degree-high", "gen-degree-low", "number-long", "json-int-long", "json-deep",
        "bool-gen-degree", "bool-char", "bool-var-degree", "d-squared", "nonprime-square",
        "nonprime-product", "nonprime-monomial", "nonprime-principal", "duplicate-complex",
        "duplicate-prime", "sequence-not-generating", "nonprime-pth-power",
        "sequence-not-regular", "zero-generator", "coef-unicode-digit", "d-unknown-generator",
        "coef-f5-denominator"])
def test_cli_rejects_malformed_workspace(capsys, tmp_path, text, message):
    path = tmp_path / "ws.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}:"), err
    assert re.search(message, err.rstrip("\n")), err


_POLY_TEXT = st.text(alphabet="xyz0123456789+-*/^ ", max_size=10)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | _POLY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "gens", "d", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _or_any(strategy):
    """Mostly the schema's type, sometimes any JSON value."""
    return st.one_of(strategy, strategy, _ANY_JSON)


_GEN_NAME = _or_any(st.sampled_from(["u", "v"]))
_WORKSPACE = st.fixed_dictionaries(
    {"ring": _or_any(st.fixed_dictionaries({
        "char": _or_any(st.sampled_from([0, 5])),
        "vars": _or_any(st.just([{"name": "x", "degree": 2}, {"name": "y", "degree": 2}])),
    }))},
    optional={
        "primes": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"name": _or_any(st.sampled_from(["p", "q"])),
             "gens": _or_any(st.lists(_or_any(_POLY_TEXT), max_size=2)),
             "seq": _or_any(st.lists(_or_any(_POLY_TEXT), max_size=2))},
        )), max_size=2)),
        "complexes": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"name": _or_any(st.sampled_from(["a", "b"])),
             "gens": _or_any(st.lists(_or_any(st.fixed_dictionaries(
                 {"name": _GEN_NAME, "degree": _or_any(st.integers(-500, 500))})), max_size=2))},
            optional={"d": _or_any(st.lists(_or_any(st.fixed_dictionaries(
                {"from": _GEN_NAME, "to": _GEN_NAME, "coef": _or_any(_POLY_TEXT)})),
                max_size=2))},
        )), max_size=2)),
    },
)


@settings(derandomize=True, database=None, max_examples=300,
          deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_WORKSPACE)
def test_validate_fuzz_answers_or_exits_2(capsys, tmp_path, workspace):
    """Generated workspaces, well- and ill-typed, either validate or exit 2."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(workspace))
    code, out, err = run_cli(capsys, "validate", "--input", str(path))
    assert code in (0, 2)
    assert (code == 0) == (err == ""), err


def test_cli_validate(capsys, qxy_path):
    code, out, err = run_cli(capsys, "validate", "--input", qxy_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {"name": "pd", "status": "verified-principal"} in payload["primes"]


def test_cli_support_example(capsys, qxy_path):
    code, out, err = run_cli(capsys, "support", "cx", "--input", qxy_path)
    assert code == 0
    assert json.loads(out)["minimal"] == ["(x)"]


def test_cli_residue_example(capsys, qxy_path):
    code, out, err = run_cli(capsys, "residue", "pmax", "--input", qxy_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["generic_rank"] == 1
    table = payload["hilbert"]
    dims = {table["lo"] + i: d for i, d in enumerate(table["dims"])}
    assert dims[0] == 1 and all(v == 0 for k, v in dims.items() if k != 0)


def test_cli_koszul(capsys, qxy_path):
    code, out, err = run_cli(capsys, "koszul", "unit", "x", "y", "--input", qxy_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == ["(x, y)"]


def test_cli_check_exit_codes(capsys, qxy_path):
    code, out, err = run_cli(
        capsys, "check", "homotopy", "--seed", "3", "--n", "4", "--input", qxy_path
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    # missing seed is an input error
    code, out, err = run_cli(capsys, "check", "homotopy", "--input", qxy_path)
    assert code == 2
    assert "seed" in err


def test_cli_unknown_names_are_input_errors(capsys, qxy_path):
    code, out, err = run_cli(capsys, "support", "nope", "--input", qxy_path)
    assert code == 2
    code, out, err = run_cli(capsys, "residue", "nope", "--input", qxy_path)
    assert code == 2
    code, out, err = run_cli(capsys, "check", "nope", "--seed", "1", "--input", qxy_path)
    assert code == 2
    code, out, err = run_cli(capsys, "cohomology", "cx", "--input", "missing.json")
    assert code == 2


def test_cli_byte_identical_reports(capsys, qxy_path):
    _, first, _ = run_cli(
        capsys, "check", "supp-agreement", "--seed", "5", "--n", "2",
        "--input", qxy_path,
    )
    _, second, _ = run_cli(
        capsys, "check", "supp-agreement", "--seed", "5", "--n", "2",
        "--input", qxy_path,
    )
    assert first == second


def test_cli_classify_and_report(capsys, qxy_path):
    code, out, _ = run_cli(capsys, "classify", "--input", qxy_path)
    assert code == 0
    payload = json.loads(out)
    assert any(c["objects"] == ["kxy"] for c in payload["classes"])
    code, out, _ = run_cli(capsys, "report", "--input", qxy_path)
    assert code == 0
    payload = json.loads(out)
    assert {o["name"]: o["support"] for o in payload["objects"]}["cx"] == ["(x)"]


def test_cli_text_format(capsys, qxy_path):
    code, out, _ = run_cli(
        capsys, "check", "homotopy", "--seed", "1", "--n", "2",
        "--format", "text", "--input", qxy_path,
    )
    assert code == 0
    assert "suite homotopy" in out and "pass" in out
    code, out, _ = run_cli(capsys, "support", "cx", "--format", "text",
                           "--input", qxy_path)
    assert code == 0
    assert "minimal" in out


def test_cli_max_degree_override(capsys, qxy_path):
    code, out, _ = run_cli(
        capsys, "cohomology", "unit", "--max-degree", "2", "--input", qxy_path
    )
    table = json.loads(out)["hilbert"]
    assert (table["lo"], table["hi"]) == (-2, 2)


def test_emit_report_canonical():
    assert emit_report({}, "json") == b"{}\n"
    payload = {"b": 1, "a": [1, 2]}
    assert emit_report(payload, "json") == canonical_json(payload).encode()
    assert emit_report(payload, "json") == emit_report(dict(payload), "json")
    with pytest.raises(InputError):
        emit_report({}, "yaml")


def test_cli_warns_when_support_misses_catalogue(capsys, qxy_path, tmp_path):
    spec = json.loads(open(qxy_path).read())
    spec["primes"] = [p for p in spec["primes"] if p["name"] in ("p0", "px")]
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "support", "cy", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"] == []
    assert "outside the declared catalogue" in payload["warning"]
    # a supported object carries no warning
    code, out, _ = run_cli(capsys, "support", "cx", "--input", str(path))
    assert "warning" not in json.loads(out)


def test_f5_fixture_parses_and_validates(capsys, f5xyz_path):
    code, out, _ = run_cli(capsys, "validate", "--input", f5xyz_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"]["char"] == 5
    assert len(payload["primes"]) == 8


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "cx", "--max-degree", "20000"], r"^error: --max-degree: 20000 "),
    (["cohomology", "cx", "--max-degree", "-3"], r"^error: --max-degree: -3 "),
    (["koszul", "unit", "x^5000"],
     r"^error: object unit//\(x\^5000\): probe window \[-4, 10003\] exceeds .*--max-degree"),
    (["check", "nakayama", "--seed", "1", "--n", "100000000"], r"^error: --n: 100000000 "),
    (["check", "nakayama", "--seed", "1", "--n", "-5"], r"^error: --n: -5 "),
    (["koszul", "unit", "x+#"],
     r"^error: koszul element: unexpected character '#' at column 3$"),
], ids=["max-degree-huge", "max-degree-negative", "koszul-window", "n-huge", "n-negative",
        "koszul-parse"])
def test_cli_budgets_reject_before_algebra(capsys, qxy_path, argv, message):
    code, out, err = run_cli(capsys, *argv, "--input", qxy_path)
    assert code == 2
    assert out == ""
    assert re.search(message, err), err


@pytest.mark.parametrize("argv", [
    ["validate", "--n", "0"],
    ["support", "cx", "--max-degree", "3"],
    ["classify", "--seed", "1"],
    ["report", "--n", "5"],
], ids=["validate-n", "support-max-degree", "classify-seed", "report-n"])
def test_cli_rejects_flags_the_command_does_not_read(capsys, qxy_path, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--input", qxy_path])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv, value", [
    (["check", "nakayama", "--seed", "\u0667", "--n", "\u0662"], "\u0667"),
    (["check", "nakayama", "--seed", "1", "--n", "1_0"], "1_0"),
    (["cohomology", "cx", "--max-degree", " 4 "], " 4 "),
], ids=["arabic-indic-digits", "underscore", "spaces"])
def test_cli_numeric_flags_read_ascii_decimals_only(capsys, qxy_path, argv, value):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--input", qxy_path])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert f"invalid int value: {value!r}" in captured.err


def test_cli_budget_limits_are_accepted(capsys, qxy_path, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(_fixture_with(["complexes", 2], {
        "name": "cx", "gens": [{"name": "u", "degree": 400}, {"name": "v", "degree": 1}],
        "d": [{"from": "u", "to": "v", "coef": "x^200"}]}))
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0, err
    code, out, _ = run_cli(capsys, "cohomology", "cx", "--max-degree",
                           str(MAX_PROBE_DEGREE), "--input", qxy_path)
    assert code == 0
    assert json.loads(out)["hilbert"]["hi"] == MAX_PROBE_DEGREE
    code, out, _ = run_cli(capsys, "koszul", "unit", "x^5000", "--max-degree", "4",
                           "--input", qxy_path)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "homotopy", "--seed", "1", "--n", str(MAX_N),
                           "--input", qxy_path)
    assert code == 0
    assert json.loads(out)["n"] == MAX_N
    code, out, _ = run_cli(capsys, "check", "nakayama", "--seed", "-3", "--n", "1",
                           "--input", qxy_path)
    assert code == 0
    assert json.loads(out)["seed"] == -3


_UNIT_ONLY = [{"name": "u", "gens": [{"name": "v", "degree": 0}], "d": []}]
_SUITE_WORKSPACES = {
    "no-variables": json.dumps({
        "ring": {"char": 0, "vars": []},
        "primes": [{"name": "p0", "gens": [], "seq": []}], "complexes": _UNIT_ONLY}),
    "no-primes": _fixture_with(["primes"], []),
    "no-degree-2": json.dumps({
        "ring": {"char": 3, "vars": [{"name": "x", "degree": 8}]},
        "primes": [{"name": "p0", "gens": [], "seq": []},
                   {"name": "px", "gens": ["x"], "seq": ["x"]}],
        "complexes": _UNIT_ONLY}),
}
# With no prime every support is empty, so detection fails each nonzero
# object (ROADMAP item 3); that is a report, not a crash.
_KNOWN_FAILURES = {("no-primes", "detection")}


@pytest.mark.parametrize("workspace", sorted(_SUITE_WORKSPACES))
def test_cli_every_suite_answers_on_edge_workspaces(capsys, tmp_path, workspace):
    """A ring with no variables, a catalogue with no primes and a ring with no
    monomial of degree 2 all validate; every suite then reports, or exits 2
    with one error line, and none raises."""
    path = tmp_path / "ws.json"
    path.write_text(_SUITE_WORKSPACES[workspace])
    assert run_cli(capsys, "validate", "--input", str(path))[0] == 0
    for suite in sorted(SUITES):
        code, out, err = run_cli(capsys, "check", suite, "--seed", "1", "--n", "4",
                                 "--input", str(path))
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, suite
        elif (workspace, suite) not in _KNOWN_FAILURES:
            assert code == 0, (suite, out, err)
        else:
            assert code in (0, 1) and json.loads(out)["suite"] == suite, (suite, err)


@pytest.mark.parametrize("golden", COMMAND_GOLDENS)
def test_command_goldens(capsys, golden):
    command, fixture, name = golden[: -len(".json")].split("-")
    code, out, err = run_cli(capsys, command, name, "--input",
                             str(FIXTURES / f"{fixture}.json"))
    assert code == 0, err
    assert out == (FIXTURES / "golden" / golden).read_text()


@pytest.mark.parametrize("golden", SUMMARY_GOLDENS)
def test_summary_goldens(capsys, golden):
    stem, ext = golden.split(".")
    command, fixture = stem.split("-")
    fmt = {"json": "json", "txt": "text"}[ext]
    code, out, err = run_cli(capsys, command, "--format", fmt, "--input",
                             str(FIXTURES / f"{fixture}.json"))
    assert code == 0, err
    assert out == (FIXTURES / "golden" / golden).read_text()
