"""The names that the benchmark's tracer patches still exist.

``perfbench/tracing.py`` wraps module attributes of the package, such as
``cli.run_session`` and ``session.resolve_odot``, for a traced run.  A
refactor that removes or renames one breaks the traced benchmark; this test
fails first.  Both benchmark files are imported by path, as
``tests/test_differential.py`` imports them.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


load("reference")  # tracing imports it as the top-level module ``reference``
tracing = load("tracing")


def test_tracer_patches_and_restores_every_name():
    tracer = tracing.Tracer()
    try:
        tracer.install(capture_operands=False)
        patched = list(tracer._patched)
        assert len(patched) == 29
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
