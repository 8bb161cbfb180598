import cmath
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from synclcs.cli import main
from synclcs.config import MAX_REPCHECK_P
from synclcs.presets import magic_square_system, one_eq_system, p3_demo_system

TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": .*$', re.MULTILINE)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def strip_volatile(text: str) -> str:
    return TIMESTAMP_LINE.sub("", text)


def write_preset(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    code, _ = run(capsys, ["examples", name, "--out-file", str(path)])
    assert code == 0
    return str(path)


def test_examples_write_canonical_files(capsys, tmp_path):
    for name, builder in [("magic-square", magic_square_system),
                          ("one-eq", one_eq_system),
                          ("p3-demo", p3_demo_system)]:
        path = tmp_path / f"{name}.json"
        code, out = run(capsys, ["examples", name, "--out-file", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["system_digest"] == builder().digest()
        assert json.loads(path.read_text()) == builder().to_json()


def test_examples_unknown_name(capsys, tmp_path):
    code, out = run(capsys, ["examples", "nope", "--out-file", str(tmp_path / "x.json")])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnknownExample"


def test_validate_magic_square_passes_with_warning(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["validate", path])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["verdict"] == "pass"
    assert any("inconsistent" in rec["message"] for rec in report["checks"]
               if rec["level"] == "warning")


def test_validate_composite_modulus_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 6, "A": [[1, 1]], "b": [0]}))
    code, out = run(capsys, ["validate", str(path)])
    assert code == 2
    assert json.loads(out)["summary"]["verdict"] == "fail"


def test_validate_large_prime_is_fast(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 2**61 - 1, "A": [[1, 1]], "b": [0]}))
    start = time.perf_counter()
    code, out = run(capsys, ["validate", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["summary"]["verdict"] == "pass"


def test_validate_modulus_beyond_certified_range(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 2**89 - 1, "A": [[1, 1]], "b": [0]}))
    code, out = run(capsys, ["validate", str(path)])
    assert code == 2
    (record,) = json.loads(out)["checks"]
    assert record["name"] == "modulus-prime" and record["level"] == "failure"
    assert "certified" in record["message"]


def test_graph_modulus_above_int64(capsys, tmp_path):
    # one-variable rows: one solution each, x_j = b_i, adjacent exactly
    # when two rows pin the same variable to different values
    p = 2**64 - 59
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"p": p, "A": [[1, 0], [1, 0], [1, 0], [0, 1]], "b": [p - 1, p - 1, p - 2, 3]}))
    code, out = run(capsys, ["graph", str(path)])
    assert code == 0
    graph = json.loads(out)["graph"]
    assert graph["vertices"] == [f"1:{p - 1},0", f"2:{p - 1},0", f"3:{p - 2},0", "4:0,3"]
    assert graph["edges"] == [[0, 2], [1, 2]]


def test_unexpected_exception_exits_internal(capsys, tmp_path, monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    path = write_preset(capsys, tmp_path, "one-eq")
    monkeypatch.setattr("synclcs.cli.isomorphism_search", overflow)
    code, out = run(capsys, ["iso", path])
    assert code == 5
    report = json.loads(out)  # exactly one JSON document on stdout
    assert report["error"]["type"] == "RecursionError"
    assert report["summary"]["verdict"] == "error"


def test_validate_ragged_rows_is_parse_error(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"p": 2, "A": [[1, 1], [1]], "b": [0, 0]}))
    code, out = run(capsys, ["validate", str(path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_validate_missing_file(capsys, tmp_path):
    code, _ = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 3


def test_analyze_magic_square(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    assert all(row["solutions"] == 4 for row in report["rows"])
    assert report["graphs"]["inhomogeneous"]["vertices"] == 24
    assert report["graphs"]["homogeneous"]["vertices"] == 24
    assert report["classically_solvable"] is False


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Wrap `name` in every synclcs module that binds it; returns the list
    that records one entry per call."""
    original = getattr(sys.modules[f"synclcs.{module}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "synclcs" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_iso_builds_each_graph_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "solvable.json"
    path.write_text(json.dumps({"p": 3, "A": [[1, 2, 0], [0, 1, 1]], "b": [1, 2]}))
    builds = count_calls(monkeypatch, "graphs", "build_game_graph")
    code, out = run(capsys, ["iso", str(path)])
    assert code == 0
    assert json.loads(out)["translation"]["verified"] is True
    assert len(builds) == 2


def test_analyze_enumerates_each_row_once_per_graph(capsys, tmp_path, monkeypatch):
    path = write_preset(capsys, tmp_path, "magic-square")
    calls = count_calls(monkeypatch, "system", "row_solutions")
    code, out = run(capsys, ["analyze", path])
    assert code == 0
    assert [row["solutions"] for row in json.loads(out)["rows"]] == [4] * 6
    assert len(calls) == 2 * magic_square_system().m


def test_solve_consistent_system(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    code, out = run(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["best_value"] == "1"
    assert report["perfect_strategy"] == {"1": "(0,0)"}
    assert report["linear_system"]["consistent"] is True


def test_solve_magic_square_best_value(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["solve", path])
    assert code == 0
    report = json.loads(out)
    assert report["perfect_strategy"] is None
    assert report["best_value"] == "17/18"  # = 34/36


def test_solve_degenerate_zero_row(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p": 2, "A": [[0, 0]], "b": [1]}))
    code, out = run(capsys, ["solve", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["best_value"] == "0"


def test_graph_command_writes_dot(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    dot_path = tmp_path / "g.dot"
    code, out = run(capsys, ["graph", path, "--dot", str(dot_path)])
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"vertices": 24, "edges": 108}
    assert dot_path.read_text().startswith("graph game_graph {")
    code, out = run(capsys, ["graph", path, "--homogeneous"])
    assert json.loads(out)["homogeneous"] is True


def test_iso_magic_square(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["iso", path])
    assert code == 0
    report = json.loads(out)
    assert report["search"]["outcome"] == "exhausted"
    assert "isomorphism" not in report
    assert "translation" not in report


def test_iso_consistent_system(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    code, out = run(capsys, ["iso", path])
    assert code == 0
    report = json.loads(out)
    assert report["search"]["outcome"] == "found"
    assert report["translation"]["verified"] is True
    assert report["translation"]["agrees_with_search"] is True


def test_group_command_formats(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["group", path])
    report = json.loads(out)
    assert code == 0
    assert report["relation_total"] == 43
    assert len(report["presentation"]["relations"]) == 43
    rel_path = tmp_path / "pres.txt"
    code, out = run(capsys, ["group", path, "--format", "relators",
                             "--presentation-out", str(rel_path)])
    assert code == 0
    text = rel_path.read_text()
    assert "g1^2" in text and "[g1,J]" in text


def test_repcheck_pauli_magic_square(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "magic-square")
    code, out = run(capsys, ["repcheck", path, "--rep", "pauli-ms"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["verdict"] == "pass"
    assert report["summary"]["failures"] == 0
    assert report["summary"]["max_residual"] <= 1e-9
    assert report["tolerance"] == 1e-9


def test_repcheck_scalar_solution_exact(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "p3-demo")
    code, out = run(capsys, ["repcheck", path, "--rep", "scalar:1,0,0"])
    assert code == 0
    report = json.loads(out)
    assert all(rec["residual"] == 0.0 for rec in report["checks"])


def test_repcheck_scalar_rejects_non_solution(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    code, out = run(capsys, ["repcheck", path, "--rep", "scalar:1,0"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotASolution"


def test_repcheck_pauli_requires_magic_square(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    code, out = run(capsys, ["repcheck", path, "--rep", "pauli-ms"])
    assert code == 2


def test_repcheck_corrupted_rep_file(capsys, tmp_path):
    from synclcs import pauli_magic_square_rep, representation_to_json

    path = write_preset(capsys, tmp_path, "magic-square")
    doc = representation_to_json(pauli_magic_square_rep())
    # diag entry 1 -> i keeps g1 unitary but breaks its order relation
    doc["generators"]["g1"][0][0] = [0.0, 1.0]
    rep_path = tmp_path / "corrupt.json"
    rep_path.write_text(json.dumps(doc))
    code, out = run(capsys, ["repcheck", path, "--rep", str(rep_path)])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["verdict"] == "fail"
    assert "first_failure" in report["summary"]


def test_repcheck_unparseable_rep_file(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    rep_path = tmp_path / "norep.json"
    rep_path.write_text("{not json")
    code, out = run(capsys, ["repcheck", path, "--rep", str(rep_path)])
    assert code == 3


def test_enum_cap_environment_override(capsys, tmp_path, monkeypatch):
    path = write_preset(capsys, tmp_path, "magic-square")
    monkeypatch.setenv("SYNCLCS_ENUM_CAP", "2")
    code, out = run(capsys, ["analyze", path])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "EnumerationTooLarge"


def test_reports_are_deterministic(capsys, tmp_path):
    commands = []
    for name in ("magic-square", "one-eq", "p3-demo"):
        path = write_preset(capsys, tmp_path, name)
        commands += [
            ["validate", path],
            ["analyze", path],
            ["solve", path],
            ["graph", path],
            ["iso", path],
            ["group", path],
            ["group", path, "--format", "relators"],
        ]
    commands.append(["repcheck", str(tmp_path / "p3-demo.json"), "--rep", "scalar:1,0,0"])
    commands.append(["repcheck", str(tmp_path / "magic-square.json"), "--rep", "pauli-ms"])
    for argv in commands:
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2
        assert strip_volatile(out1) == strip_volatile(out2), argv


def test_report_written_to_out_file(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "one-eq")
    out_path = tmp_path / "report.json"
    code, out = run(capsys, ["--out", str(out_path), "validate", path])
    assert code == 0
    assert out_path.read_text() == out


def test_search_budget_environment_override(capsys, tmp_path, monkeypatch):
    path = write_preset(capsys, tmp_path, "magic-square")
    monkeypatch.setenv("SYNCLCS_SEARCH_BUDGET", "5")
    code, out = run(capsys, ["iso", path])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "SearchBudgetExceeded"


def _reject_constant(token):
    raise ValueError(f"report holds the non-JSON constant {token}")


@pytest.mark.parametrize("bad", [float("nan"), None], ids=["nan", "null"])
def test_repcheck_rep_file_with_bad_entry_is_parse_error(capsys, tmp_path, bad):
    from synclcs import pauli_magic_square_rep, representation_to_json

    path = write_preset(capsys, tmp_path, "magic-square")
    doc = representation_to_json(pauli_magic_square_rep())
    doc["generators"]["g1"][0][0][0] = bad
    rep_path = tmp_path / "bad.json"
    rep_path.write_text(json.dumps(doc))
    code, out = run(capsys, ["repcheck", path, "--rep", str(rep_path)])
    assert code == 3
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["error"]["type"] == "ParseError"


ONE_DIM_REP = {"p": 2, "dim": 1, "omega_convention": "exp(2*pi*i/p)",
               "generators": {"g1": [[[1.0, 0.0]]], "g2": [[[1.0, 0.0]]],
                              "J": [[[-1.0, 0.0]]]}}


def test_repcheck_empty_game_graph(capsys, tmp_path):
    # a zero row with b = 1 has no solutions, so G(A,b) has no vertices
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"p": 2, "A": [[0, 0]], "b": [1]}))
    rep_path = tmp_path / "one.json"
    rep_path.write_text(json.dumps(ONE_DIM_REP))
    code, out = run(capsys, ["repcheck", str(path), "--rep", str(rep_path)])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["first_failure"] == "relation:row-product:row1"
    failing = {rec["name"] for rec in report["checks"] if rec["verdict"] == "fail"}
    # no solution of the empty row can sum to the identity
    assert "iso-sum-over-inhomogeneous:1:(0,0)" in failing


@pytest.mark.parametrize("doc", [
    '{"p": 1e400, "A": [[1, 1]], "b": [0]}',
    '{"p": 2, "A": [[1e400, 1]], "b": [0]}',
    '{"p": 2, "A": [[1, 1]], "b": [1e400]}',
], ids=["p", "A", "b"])
def test_system_with_infinite_number_is_parse_error(capsys, tmp_path, doc):
    path = tmp_path / "inf.json"
    path.write_text(doc)
    code, out = run(capsys, ["validate", str(path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("doc", [
    '{"p": 2.9, "A": ["11", {"1": 0, "0": 1}], "b": [true, "0"]}',
    '{"p": 2.0, "A": [[1, 1]], "b": [0]}',
    '{"p": "2", "A": [[1, 1]], "b": [0]}',
    '{"p": 2, "A": ["11"], "b": [0]}',
    '{"p": 2, "A": [{"1": 0, "0": 1}], "b": [0]}',
    '{"p": 2, "A": [[1, 1.0]], "b": [0]}',
    '{"p": 2, "A": [[1, 1]], "b": [true]}',
], ids=["mixed", "p-float", "p-string", "A-row-string", "A-row-object", "A-float", "b-bool"])
def test_system_with_non_integer_field_is_parse_error(capsys, tmp_path, doc):
    path = tmp_path / "coerced.json"
    path.write_text(doc)
    code, out = run(capsys, ["validate", str(path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("command", ["validate", "analyze", "solve", "graph", "iso", "group"])
def test_system_without_equations(capsys, tmp_path, command):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"p": 2, "A": [], "b": []}))
    code, out = run(capsys, [command, str(path)])
    assert code == 0
    assert json.loads(out)["summary"]["verdict"] == "pass"


@pytest.mark.parametrize("field, value", [
    ("p", "1e400"), ("dim", "1e400"), ("generators", '["J"]'), ("generators", '"J"'),
    ("p", "2.0"), ("p", "true"), ("dim", "1.0"), ("dim", '"1"'),
], ids=["p-infinite", "dim-infinite", "generators-array", "generators-string",
        "p-float", "p-bool", "dim-float", "dim-string"])
def test_repcheck_malformed_rep_document_is_parse_error(capsys, tmp_path, field, value):
    path = write_preset(capsys, tmp_path, "one-eq")
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(dict(ONE_DIM_REP, **{field: "@"})).replace('"@"', value))
    code, out = run(capsys, ["repcheck", path, "--rep", str(rep_path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ParseError"


MERSENNE_61 = 2**61 - 1


def _one_dim_rep(p):
    omega = cmath.exp(2j * cmath.pi / p)
    return {"p": p, "dim": 1, "omega_convention": "exp(2*pi*i/p)",
            "generators": {"g1": [[[1.0, 0.0]]], "J": [[[omega.real, omega.imag]]]}}


@pytest.mark.parametrize("p, rep", [
    (10007, "scalar:0"), (MERSENNE_61, "scalar:0"), (MERSENNE_61, MERSENNE_61), (2, MERSENNE_61),
], ids=["scalar-p10007", "scalar-p2^61-1", "file-p2^61-1", "file-p2^61-1-on-p2"])
def test_repcheck_rejects_modulus_above_cap(tmp_path, p, rep):
    # exact projections and p-th powers cost O(p**2) each: unbounded, the
    # first ran past 60 s, the second raised MemoryError (exit 5) and the
    # float files ran past 20 s; an integer rep is the p of a 1x1 file
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": p, "A": [[1]], "b": [0]}))
    if isinstance(rep, int):
        (tmp_path / "rep.json").write_text(json.dumps(_one_dim_rep(rep)))
        rep = str(tmp_path / "rep.json")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "synclcs.cli", "repcheck", str(path),
                           "--rep", rep], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 4, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"]["type"] == "ModulusTooLarge"
    assert str(MAX_REPCHECK_P) in report["error"]["message"]


def test_repcheck_rejects_representation_of_another_modulus(capsys, tmp_path):
    # before, one-eq (p=2) with this valid p=3 file ran all 34 checks and
    # exited 1 on relation:order-J:J, with nothing naming the mismatch
    path = write_preset(capsys, tmp_path, "one-eq")
    doc = _one_dim_rep(3)
    doc["generators"]["g2"] = doc["generators"]["g1"]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(doc))
    code, out = run(capsys, ["repcheck", path, "--rep", str(rep_path)])
    assert code == 2
    report = json.loads(out)
    assert "checks" not in report and report["summary"] == {"verdict": "fail"}
    assert report["error"] == {
        "type": "DimensionMismatch",
        "message": "representation modulus 3 differs from system modulus 2"}


def test_repcheck_certifies_modulus_at_cap(capsys, tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"p": MAX_REPCHECK_P, "A": [[1]], "b": [0]}))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(_one_dim_rep(MAX_REPCHECK_P)))
    for rep in ("scalar:0", str(rep_path)):
        code, out = run(capsys, ["repcheck", str(path), "--rep", rep])
        assert code == 0
        assert json.loads(out)["representation"]["p"] == MAX_REPCHECK_P


def _rep_doc(n: int, entry: float = 1.0) -> dict:
    generators = {f"g{j}": [[[entry, 0.0]]] for j in range(1, n + 1)}
    generators["J"] = [[[-1.0, 0.0]]]
    return {"p": 2, "dim": 1, "omega_convention": "exp(2*pi*i/p)", "generators": generators}


# inputs that once ended in a traceback, a non-JSON report, two reports or
# the wrong exit code: (environment, argv, exit code, error type, message part)
DEFECTS = {
    "enum-cap-not-integer": ({"SYNCLCS_ENUM_CAP": "abc"}, "validate one.json",
                             3, "ParseError", "SYNCLCS_ENUM_CAP"),
    "search-budget-not-integer": ({"SYNCLCS_SEARCH_BUDGET": "1e3"}, "iso one.json",
                                  3, "ParseError", "SYNCLCS_SEARCH_BUDGET"),
    "tol-inf": ({}, "repcheck one.json --rep scalar:0,0 --tol inf", 3, "ParseError", "--tol"),
    "tol-nan": ({}, "repcheck one.json --rep scalar:0,0 --tol nan", 3, "ParseError", "--tol"),
    "tol-negative": ({}, "repcheck one.json --rep scalar:0,0 --tol -0.001",
                     3, "ParseError", "--tol"),
    "out-in-missing-directory": ({}, "--out missing/r.json validate one.json",
                                 3, "FileNotFoundError", "missing/r.json"),
    "out-in-missing-directory-after-error": ({}, "--out missing/r.json validate absent.json",
                                             3, "FileNotFoundError", "missing/r.json"),
    "system-is-directory": ({}, "validate .", 3, "IsADirectoryError", ""),
    "system-not-utf8": ({}, "solve latin1.json", 3, "UnicodeDecodeError", ""),
    "rep-is-directory": ({}, "repcheck one.json --rep .", 3, "IsADirectoryError", ""),
    "rep-not-utf8": ({}, "repcheck one.json --rep latin1.json", 3, "UnicodeDecodeError", ""),
    "out-file-is-directory": ({}, "examples one-eq --out-file .", 3, "IsADirectoryError", ""),
    "dot-in-missing-directory": ({}, "graph one.json --dot missing/g.dot",
                                 3, "FileNotFoundError", ""),
    "scalar-short": ({}, "repcheck one.json --rep scalar:0", 2, "DimensionMismatch",
                     "1 entries"),
    "scalar-long": ({}, "repcheck one.json --rep scalar:0,0,0", 2, "DimensionMismatch",
                    "3 entries"),
    "rep-file-short": ({}, "repcheck one.json --rep rep1.json", 2, "DimensionMismatch",
                       "1 generators"),
    "rep-file-long": ({}, "repcheck one.json --rep rep3.json", 2, "DimensionMismatch",
                      "3 generators"),
    # unitary within a huge tolerance, so products overflow to an infinite
    # residual, which a JSON report cannot hold
    "residual-overflows": ({}, "repcheck one.json --rep huge.json --tol 1e150",
                           5, "ValueError", ""),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("case", DEFECTS)
def test_defect_input_ends_in_one_report(capsys, tmp_path, monkeypatch, case):
    env, argv, exit_code, error_type, fragment = DEFECTS[case]
    (tmp_path / "one.json").write_text(json.dumps(one_eq_system().to_json()))
    (tmp_path / "latin1.json").write_bytes('{"p": 2, "A": [[1]], "b": [0], "é": 0}'.encode("latin-1"))
    for name, doc in [("rep1.json", _rep_doc(1)), ("rep3.json", _rep_doc(3)),
                      ("huge.json", _rep_doc(2, 1e70))]:
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(argv.split())
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert code == exit_code
    assert report["error"]["type"] == error_type
    assert fragment in report["error"]["message"]
    assert "checks" not in report and "representation" not in report
    assert ("Traceback" in captured.err) == (exit_code == 5)
    assert not (tmp_path / "missing").exists()
