"""The traced benchmark run wraps library functions by name; a rename in
the library must fail here, not as an AttributeError in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import synclcs.cli as cli
import synclcs.reps  # noqa: F401  (loads the modules the tracer patches, as preflight does)
from synclcs.presets import magic_square_system, one_eq_system

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracing):
    # (owner, attribute) -> original: module functions timed as spans, and
    # class methods that are only counted
    originals = {}
    for mod, attr, _ in tracing.SPANS:
        owner = sys.modules[f"synclcs.{mod}"]
        originals[owner, attr] = vars(owner)[attr]
    for mod, cls, method, _ in tracing.COUNTERS:
        owner = getattr(sys.modules[f"synclcs.{mod}"], cls)
        originals[owner, method] = vars(owner)[method]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, attr


# the row enumeration and graph builds of the magic square's two graphs:
# per graph, its 6 rows enumerated, 4 solutions each, and 24 vertices, 108
# edges and 276 vertex pairs
MAGIC_SQUARE_COUNTS = {
    "system.row_solutions.calls": 12,
    "system.row_solutions.vectors": 48,
    "graphs.build_game_graph.calls": 2,
    "graphs.build_game_graph.vertices": 48,
    "graphs.build_game_graph.edges": 216,
    "graphs.build_game_graph.pairs": 552,
}


def traced_magic_square(tracing, tmp_path, capsys, command: str, *options: str):
    """A tracer that ran the command on the magic square."""
    path = tmp_path / "magic-square.json"
    path.write_text(json.dumps(magic_square_system().to_json()))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main([command, str(path), *options]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return tracer


def test_commands_import_the_wrapped_functions(tracing, tmp_path, capsys):
    """A command imports its layer when it runs, so it calls the wrappers
    the tracer installed before it; the counts the benchmark reads on the
    magic square are pinned."""
    tracer = traced_magic_square(tracing, tmp_path, capsys, "iso")
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"graphs.isomorphism_search", "graphs.build_game_graph"} <= recorded
    assert {name: tracer.counts[name] for name in MAGIC_SQUARE_COUNTS} == MAGIC_SQUARE_COUNTS


# the isomorphism-game stages, which the suite hands the family and G(A,0)
ISO_STAGES = {"reps.iso_generator_images", "reps.iso_partition_checks",
              "reps.check_iso_relations", "reps.psi_iso_consistency_checks"}


def test_traced_pauli_repcheck_counts_rows_graphs_and_records(tracing, tmp_path, capsys):
    tracer = traced_magic_square(tracing, tmp_path, capsys, "repcheck", "--rep", "pauli-ms")
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"reps.run_check_suite", "system.row_solutions"} <= recorded
    assert ISO_STAGES <= recorded
    expected = {**MAGIC_SQUARE_COUNTS, "reps.assemble_family.entries": 24, "reps.records": 349}
    assert {name: tracer.counts[name] for name in expected} == expected


def traced_scalar_repcheck(tracing, tmp_path, capsys):
    """A tracer that ran `repcheck --rep scalar:0,0` on one equation, and
    the report."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps(one_eq_system().to_json()))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["repcheck", str(path), "--rep", "scalar:0,0"]) == 0
    finally:
        tracer.uninstall()
    return tracer, json.loads(capsys.readouterr().out)


def test_traced_scalar_repcheck_counts_cyclotomic_work(tracing, tmp_path, capsys):
    """The exact path builds and multiplies cyclotomics through the methods
    the tracer counts, so a constructor that skips __init__ fails here
    rather than reading 0 in the benchmark's counts."""
    tracer, _ = traced_scalar_repcheck(tracing, tmp_path, capsys)
    assert tracer.counts["cyclotomic.new"] > 0
    assert tracer.counts["cyclotomic.mul"] > 0


def test_traced_scalar_repcheck_times_the_graph_core(tracing, tmp_path, capsys):
    """A scalar representation is certified by the one suite, whose stages
    are bound in reps, so the tracer times them and counts the records, as
    it does the row enumeration and the graph builds they call."""
    tracer, report = traced_scalar_repcheck(tracing, tmp_path, capsys)
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"system.row_solutions", "graphs.build_game_graph", "cli.emit"} <= recorded
    assert {"reps.run_check_suite", "reps.projection_family_checks", *ISO_STAGES} <= recorded
    assert tracer.counts["reps.records"] == report["summary"]["checks"] == len(report["checks"])
    assert tracer.counts["graphs.build_game_graph.calls"] == 2
    assert tracer.counts["graphs.build_game_graph.vertices"] == 4
    assert tracer.counts["graphs.build_game_graph.edges"] == 2
