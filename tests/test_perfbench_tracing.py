"""The traced benchmark run wraps library functions by name; a rename in
the library must fail here, not as an AttributeError in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import synclcs.cli as cli
import synclcs.reps  # noqa: F401  (loads the modules the tracer patches, as preflight does)
from synclcs.presets import magic_square_system

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


def test_commands_import_the_wrapped_functions(tracing, tmp_path, capsys):
    """A command imports its layer when it runs, so it calls the wrappers
    the tracer installed before it."""
    path = tmp_path / "magic-square.json"
    path.write_text(json.dumps(magic_square_system().to_json()))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["iso", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"graphs.isomorphism_search", "graphs.build_game_graph"} <= recorded
    assert tracer.counts["graphs.build_game_graph.calls"] == 2
