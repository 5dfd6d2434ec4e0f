"""The CLI and the law oracle against the benchmark's independent reference.

``perfbench/workloads.py`` draws session scripts, and ``perfbench/reference.py``
(plain frozensets of names, sharing no code with the package) predicts each
script's ``eval``, ``eval --json``, ``check`` and ``check --json`` output and
exit code.  The reference also decides every law at two objects, counts the
tuples a sweep visits and the violations of each equation law at any size,
and re-evaluates a printed counterexample.  Both files are imported by path,
so these tests follow them.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from negset import cli, oracle

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


decide_law = cache(ref.decide_law)


def test_law_catalogs_agree():
    assert sorted(oracle.law_ids()) == sorted(ref.LAW_IDS)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("law", oracle.law_ids())
def test_law_matches_reference(law, n):
    report = oracle.check_law(law, n, limit=50)
    assert report.checked == ref.expected_tuples(law, n)
    holds = decide_law(law)
    assert (report.violation_count == 0) == holds
    if law in ref.LAW_PREDICATES:
        assert report.violation_count == (0 if holds else ref.expected_violations(law, n))
    assert len(report.counterexamples) == min(report.violation_count, 50)
    for text in report.counterexamples:
        assert ref.counterexample_violates(law, n, text), text
