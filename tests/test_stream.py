"""Streamed check blocks: a report that must be refused is refused before
its first byte, and a streamed repcheck report holds its columns, not its
text, while it is written."""

import contextlib
import json
import math
import tracemalloc
from array import array

import pytest

import synclcs.cli as cli
import synclcs.reporting as reporting
import synclcs.scalar as scalar
from rep_oracle import expanded
from synclcs import LinearSystem
from synclcs.cli import main
from synclcs.presets import one_eq_system
from synclcs.reporting import CheckBlock, CheckRecord, Checks

ROWS = 50_000


def inf_residual() -> CheckBlock:
    residuals = array("d", [0.0] * ROWS)
    residuals[-1] = math.inf
    return CheckBlock(("check",), ([str(k) for k in range(ROWS)],), (residuals,), 1e-9)


def int_label() -> CheckBlock:
    labels = [str(k) for k in range(ROWS)]
    labels[-1] = ROWS - 1
    return CheckBlock(("check",), (labels,), ([0.0] * ROWS,), 1e-9)


def nan_tolerance() -> CheckBlock:
    return CheckBlock(("check",), ([str(k) for k in range(ROWS)],), ([0.0] * ROWS,), math.nan)


def stdlib_refusal(checks) -> dict:
    """The type and message of the error json.dumps raises on the records."""
    with pytest.raises((TypeError, ValueError)) as refusal:
        json.dumps(expanded(checks), indent=2, allow_nan=False, default=CheckRecord.to_json)
    return {"type": type(refusal.value).__name__, "message": str(refusal.value)}


@pytest.mark.parametrize("block", [inf_residual, int_label, nan_tolerance],
                         ids=["inf-residual-last", "int-label-last", "nan-tolerance"])
def test_refused_block_leaves_one_error_report_and_no_file(capsys, tmp_path, monkeypatch,
                                                           block):
    checks = Checks([CheckRecord("first", 0.0, 1e-9), block()])
    monkeypatch.setattr(scalar, "run_check_suite", lambda *args, **kwargs: checks)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one_eq_system().to_json()))
    out_path = tmp_path / "report.json"
    code = main(["--out", str(out_path), "repcheck", str(path), "--rep", "scalar:0,0"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # refuses a second report after the first
    assert code == 5
    assert report["error"] == stdlib_refusal(checks)
    assert report["summary"] == {"verdict": "error"} and "checks" not in report
    assert "Traceback" in captured.err
    assert not out_path.exists()


def test_runs_split_where_the_bits_differ(capsys, monkeypatch):
    # 0.0 and -0.0 are equal but written apart; runs cross the pieces
    residuals = [0.0] * 4 + [-0.0] * 3 + [0.0, 2.0, 2.0, 1e-300]
    checks = Checks([CheckBlock(("a",), ([f"v{k}" for k in range(11)],), (residuals,), 1.0),
                     CheckBlock(("b", "c"), (["x", "y"], ["1", "2"]),
                                ([-0.0, 0.0], array("d", [0.0, 0.0])), 0.0)])
    monkeypatch.setattr(reporting, "CHUNK", 3)
    cli._emit({"checks": checks})
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps({"checks": expanded(checks), "timestamp": report["timestamp"]},
                             indent=2, allow_nan=False, default=CheckRecord.to_json) + "\n"


class Counter:
    """A stdout that keeps no text, only its length."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


# the shape of the benchmark's p = 3 entry: four rows of support 5 over six
# variables, 324 vertices in G(A,b); x* = (1, 2, 0, 1, 1, 2)
P3_LADDER = LinearSystem.from_ints(3, [[0, 1, 2, 1, 1, 1], [1, 0, 1, 2, 1, 1],
                                       [2, 1, 0, 1, 1, 1], [1, 1, 1, 0, 2, 1]], [0, 0, 2, 1])
P3_LADDER_REP = "scalar:1,2,0,1,1,2"


def test_streamed_report_holds_columns_not_text(tmp_path, monkeypatch):
    # the peak above what _emit is handed was 1.01 x the report bytes when
    # the whole text was made before the first byte was written
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(P3_LADDER.to_json()))
    argv = ["repcheck", str(path), "--rep", P3_LADDER_REP]
    with contextlib.redirect_stdout(Counter()):
        assert main(argv) == 0  # imports and caches outside the measurement
    above = []
    emit = cli._emit

    def measured(report, out_path=None):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit(report, out_path)
        above.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(cli, "_emit", measured)
    sink = Counter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert sink.size > 8_000_000
    assert above[0] <= 0.2 * sink.size
