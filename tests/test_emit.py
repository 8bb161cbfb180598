"""The report emitter against its oracle, json.dumps(report, indent=2,
allow_nan=False, default=CheckRecord.to_json) with each Checks expanded to
its records: random reports, check blocks, real repcheck, validate and
graph reports, refusals of values JSON cannot hold, and the memory a
repcheck report takes."""

import contextlib
import io
import json
import math
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synclcs.cli as cli
import synclcs.reporting as reporting
import synclcs.scalar as scalar
from conftest import pentagram_system
from rep_oracle import expanded
from synclcs import LinearSystem
from synclcs.cli import main
from synclcs.presets import magic_square_system, one_eq_system
from synclcs.reporting import CheckBlock, CheckRecord, Checks


def default(obj):
    """CheckRecord.to_json, and a Checks as the records it expands to."""
    return expanded(obj) if type(obj) is Checks else CheckRecord.to_json(obj)


def oracle(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False, default=default) + "\n"


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
# a block's residuals: NaN, the infinities, a negative zero, the least
# subnormal, other floats and ints, as a list or, all floats, as an array
RESIDUALS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]) | FLOATS | st.integers()


@st.composite
def blocks(draw) -> CheckBlock:
    """One or two families and label columns (TEXT: non-ASCII, quotes,
    control characters, U+2028) over up to six rows, and a tolerance that
    may be no float."""
    families = tuple(draw(st.lists(TEXT, min_size=1, max_size=2)))
    rows = draw(st.integers(0, 6))
    column = lambda values: st.lists(values, min_size=rows, max_size=rows)  # noqa: E731
    labels = tuple(draw(column(TEXT)) for _ in range(draw(st.integers(1, 2))))
    residuals = tuple(draw(column(RESIDUALS) | column(FLOATS).map(lambda xs: array("d", xs)))
                      for _ in families)
    tolerance = draw(FLOATS | NON_FINITE | st.integers() | st.booleans() | st.none())
    return CheckBlock(families, labels, residuals, tolerance)


SUITES = st.lists(RECORDS | blocks(), max_size=4).map(Checks)
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
    st.lists(RECORDS, max_size=6) | SUITES,
    GRAPHS | VALUES,
    st.integers(0, 5))


# records, suites and [a, b] pairs under any key, at any depth, among
# other values: the writer is chosen by each value's type, not its key
ANYWHERE = st.dictionaries(TEXT, st.recursive(
    LEAVES | RECORDS | SUITES | st.lists(st.integers() | st.booleans(), min_size=2, max_size=2),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8), max_size=4)


def outcome(write, report: dict):
    """The text `write` makes of the report, or the type and message of
    the error it raises."""
    try:
        return write(report)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(REPORTS | ANYWHERE)
def test_emitter_writes_the_stdlib_text(report):
    # emitted first: _emit adds the timestamp the oracle then writes too
    assert outcome(emitted, report) == outcome(oracle, report)


@settings(max_examples=300, deadline=None)
@given(SUITES, st.integers(1, 4))
def test_blocks_write_the_text_of_their_records(checks, chunk):
    # a few records to a piece, so that pieces of one block take both paths
    report = {"checks": checks}
    with mock.patch.object(reporting, "CHUNK", chunk):
        assert outcome(emitted, report) == outcome(oracle, report)
    assert list(map(repr, checks)) == list(map(repr, expanded(checks)))
    assert len(checks) == len(expanded(checks))


# 135 vertices of G(A,b) and 8,802 incompatible pairs, each a psi-orthogonal check
SCALAR_P3 = LinearSystem.from_ints(3, [[1, 1, 1, 1, 1, 0], [0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 1, 1]],
                                   [2, 1, 0])
SCALAR_P3_REP = "scalar:1,2,0,1,1,2"

# the system of each command that passes, and its argv after the path
REAL_REPORTS = {
    "repcheck-pauli-ms": (magic_square_system(), ["--rep", "pauli-ms"]),
    "repcheck-scalar": (SCALAR_P3, ["--rep", SCALAR_P3_REP]),
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
    monkeypatch.setattr(reporting, "CHUNK", 1000)  # the scalar blocks span pieces
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


@pytest.mark.parametrize("residual, in_block", [
    (math.nan, False), (math.inf, False), (-math.inf, False), (math.nan, True)],
    ids=["nan", "inf", "-inf", "nan-in-block"])
def test_non_finite_residual_ends_in_one_error_report(capsys, tmp_path, monkeypatch, residual,
                                                      in_block):
    if in_block:  # the refusal sits in the middle of a 50,000-record block
        residuals = [0.0] * 50_000
        residuals[25_000] = residual
        records = Checks([CheckBlock(("check",), ([str(k) for k in range(50_000)],),
                                     (residuals,), 1e-9)])
    else:  # the refusal comes after 50,000 records
        records = [CheckRecord(f"check:{k}", 0.0, 1e-9) for k in range(50_000)]
        records.append(CheckRecord("last", residual, 1e-9))
    # scalar: representations are certified by synclcs.scalar
    monkeypatch.setattr(scalar, "run_check_suite", lambda *args, **kwargs: records)
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


def test_repcheck_holds_columns_not_records(tmp_path, monkeypatch):
    # measured on SCALAR_P3 (1.45 MB of report): with a CheckRecord and a
    # text piece per check, 1.32 x the report bytes were held when the
    # emitter started and its peak was 2.79 x; with blocks, 0.23 x and 1.37 x
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(SCALAR_P3.to_json()))
    argv = ["repcheck", str(path), "--rep", SCALAR_P3_REP]
    main(argv)  # imports and caches outside the measurement
    held, peak = [], []
    emit = cli._emit

    def measured(report, out_path=None):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        emit(report, out_path)
        peak.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(cli, "_emit", measured)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
    finally:
        tracemalloc.stop()
    size = len(buf.getvalue())
    assert json.loads(buf.getvalue())["summary"]["checks"] > 8802
    assert held[0] <= 0.8 * size
    assert peak[0] <= 2.2 * size
