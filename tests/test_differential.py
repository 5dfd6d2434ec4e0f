"""The CLI against the benchmark's independent reference, on generated scripts.

``perfbench/workloads.py`` draws session scripts, and ``perfbench/reference.py``
(plain frozensets of names, sharing no code with the package) predicts each
script's ``eval``, ``eval --json``, ``check`` and ``check --json`` output and
exit code.  Both are imported by path, so these tests follow those files.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from negset import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = load("reference")  # workloads imports it as the top-level module ``reference``
workloads = load("workloads")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential") / "script.ns")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), usize=st.sampled_from((8, 12)),
       n_stmts=st.integers(1, 40), gated=st.booleans())
def test_cli_matches_reference(path, seed, usize, n_stmts, gated):
    script, text, _ = workloads.sessions_script(random.Random(seed), usize, n_stmts, gated)
    Path(path).write_text(text, encoding="utf-8")

    report = ref.run_script(script)
    code = ref.eval_exit_code(report[0], report[1], report[3])
    assert run(["eval", path]) == (code, ref.eval_text(script, report))
    got, out = run(["eval", "--json", path])
    assert (got, json.loads(out)) == (code, ref.eval_json(script, report))

    entries = ref.check_entries(script)
    code = ref.check_exit_code(entries)
    assert run(["check", path]) == (code, ref.check_text(script, entries))
    got, out = run(["check", "--json", path])
    assert (got, json.loads(out)) == (code, ref.check_json(script, entries))
