"""The report emitter against its oracle, json.dumps(report, indent=2,
allow_nan=False, default=CheckRecord.to_json): random reports, real
repcheck, validate and graph reports, and refusals of values JSON cannot
hold."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synclcs.cli as cli
import synclcs.reps as reps
from conftest import pentagram_system
from synclcs import LinearSystem
from synclcs.cli import main
from synclcs.presets import magic_square_system, one_eq_system
from synclcs.reporting import CheckRecord


def oracle(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False, default=CheckRecord.to_json) + "\n"


def emitted(report: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(report)
    return buf.getvalue()


# non-ASCII and control characters, a line separator and a character
# outside the BMP, which JSON spells as a surrogate pair
TEXT = st.text(st.characters() | st.sampled_from("\n\t\x00\x1f\"\\é\u2028😀"), max_size=8)
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1, 1e-9]) | st.floats(
    allow_nan=False, allow_infinity=False)
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | FLOATS
          | TEXT)
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=10)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
RECORDS = st.one_of(
    # plain records, which fill the template, with a falsy detail or none
    st.builds(CheckRecord, TEXT, FLOATS, FLOATS,
              st.none() | st.sampled_from([{}, [], 0, "", False])),
    # a detail, nested as deep as VALUES goes
    st.builds(CheckRecord, TEXT, FLOATS, FLOATS, VALUES),
    # a NaN or an infinity, which both refuse; an int, bool or None
    # residual, which json.dumps writes or to_json refuses to compare
    st.builds(CheckRecord, TEXT, NON_FINITE | FLOATS, NON_FINITE | FLOATS),
    st.builds(CheckRecord, TEXT, st.integers() | st.booleans() | st.none(), FLOATS),
    # a name that is not a str
    st.builds(CheckRecord, VALUES.filter(lambda name: type(name) is not str), FLOATS, FLOATS),
    # any other object, such as a validation record
    st.dictionaries(TEXT, VALUES, max_size=4),
)
# a graph value: edges of int pairs, among them pairs holding a bool, and
# other values
EDGES = st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2) | VALUES,
                 max_size=5)
GRAPHS = st.builds(lambda head, edges, tail: {**head, "edges": edges, **tail},
                   st.dictionaries(TEXT, VALUES, max_size=2), EDGES | VALUES,
                   st.dictionaries(TEXT, VALUES, max_size=2))
REPORTS = st.builds(
    lambda items, checks, graph, at: dict(
        items[:at] + [("checks", checks), ("graph", graph)] + items[at:]),
    st.lists(st.tuples(TEXT.filter(lambda key: key not in ("checks", "graph")), VALUES),
             max_size=5),
    st.lists(RECORDS, max_size=6),
    GRAPHS | VALUES,
    st.integers(0, 5))


def outcome(write, report: dict):
    """The text `write` makes of the report, or the type and message of
    the error it raises."""
    try:
        return write(report)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_emitter_writes_the_stdlib_text(report):
    # emitted first: _emit adds the timestamp the oracle then writes too
    assert outcome(emitted, report) == outcome(oracle, report)


# the system of each command that passes, and its argv after the path
REAL_REPORTS = {
    "repcheck-pauli-ms": (magic_square_system(), ["--rep", "pauli-ms"]),
    "graph-magic-square": (magic_square_system(), []),
    "graph-magic-square-homogeneous": (magic_square_system(), ["--homogeneous"]),
    "graph-pentagram": (pentagram_system(), []),
    "graph-pentagram-homogeneous": (pentagram_system(), ["--homogeneous"]),
    # one solution per row on disjoint supports: no edges
    "graph-no-edges": (LinearSystem.from_ints(2, [[1, 0], [0, 1]], [1, 0]), []),
}


@pytest.mark.parametrize("command", [*REAL_REPORTS, "validate-invalid"])
def test_real_reports_equal_the_stdlib_text(capsys, tmp_path, monkeypatch, command):
    path = tmp_path / "system.json"
    if command == "validate-invalid":  # a composite modulus fails validation
        path.write_text(json.dumps({"p": 4, "A": [[1, 2]], "b": [3]}))
        argv, code = ["validate", str(path)], 2
    else:
        system, flags = REAL_REPORTS[command]
        path.write_text(json.dumps(system.to_json()))
        argv, code = [command.split("-")[0], str(path), *flags], 0
    reports = []  # the report dicts main emits
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out_path=None: (
        reports.append(report), emit(report, out_path)))
    out_path = tmp_path / "report.json"
    assert main(["--out", str(out_path), *argv]) == code
    out = capsys.readouterr().out
    assert len(reports) == 1
    if command.startswith("graph"):
        assert (reports[0]["graph"]["edges"] == []) == (command == "graph-no-edges")
    else:
        assert reports[0]["checks"]
    assert out == oracle(reports[0])
    assert out_path.read_text() == out


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_residual_ends_in_one_error_report(capsys, tmp_path, monkeypatch, residual):
    # the refusal comes after 50,000 records that fill the template
    records = [CheckRecord(f"check:{k}", 0.0, 1e-9) for k in range(50_000)]
    records.append(CheckRecord("last", residual, 1e-9))
    monkeypatch.setattr(reps, "run_check_suite", lambda *args, **kwargs: records)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one_eq_system().to_json()))
    out_path = tmp_path / "report.json"
    code = main(["--out", str(out_path), "repcheck", str(path), "--rep", "scalar:0,0"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # refuses a second report after the first
    with pytest.raises(ValueError) as refusal:
        json.dumps(residual, indent=2, allow_nan=False)
    assert code == 5
    assert {key: value for key, value in report.items() if key != "timestamp"} == {
        "command": "repcheck",
        "toolkit_version": cli.__version__,
        "omega_convention": cli.OMEGA_CONVENTION,
        "inputs": {"path": str(path)},
        "error": {"type": "ValueError", "message": str(refusal.value)},
        "summary": {"verdict": "error"},
    }
    assert "Traceback" in captured.err
    assert not out_path.exists()
