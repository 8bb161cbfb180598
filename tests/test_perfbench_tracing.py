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
