"""The traced benchmark run wraps library functions by name; a rename in
the library must fail here, not as an AttributeError in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import synclcs.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {(mod, attr): getattr(sys.modules[f"synclcs.{mod}"], attr)
                 for mod, attr, _ in tracing.SPANS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[f"synclcs.{mod}"], attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"synclcs.{mod}"], attr) is fn, attr
