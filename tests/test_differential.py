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
from itertools import combinations
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


def assert_cli_matches_reference(path, script, text):
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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), usize=st.sampled_from((8, 12)),
       n_stmts=st.integers(1, 40), gated=st.booleans())
def test_cli_matches_reference(path, seed, usize, n_stmts, gated):
    script, text, _ = workloads.sessions_script(random.Random(seed), usize, n_stmts, gated)
    assert_cli_matches_reference(path, script, text)


def small_expr(draw, names, depth=0):
    kind = draw(st.sampled_from(("name", "name", "not", "bin", "nary"))) if depth < 2 else "name"
    if kind == "name":
        return ("name", draw(st.sampled_from(names)))
    if kind == "not":
        return ("not", small_expr(draw, names, depth + 1))
    if kind == "bin":
        op = draw(st.sampled_from(tuple(ref.BINARY)))
        return ("bin", op, small_expr(draw, names, depth + 1), small_expr(draw, names, depth + 1))
    op = draw(st.sampled_from(("odot", "oplus", "union", "inter")))
    return ("nary", op, [small_expr(draw, names, depth + 1) for _ in range(draw(st.integers(2, 3)))])


@st.composite
def small_scripts(draw):
    """A script the benchmark generator never draws: 1 to 4 objects whose pairs are
    split at random into strong, weak and unrelated ones, a dominance chain over
    some of them, 1 to 4 agents (most made DISC), any of the four policies, and 1 to
    8 statements."""
    objects = list("abcd"[:draw(st.integers(1, 4))])
    pairs = list(combinations(objects, 2))
    kinds = [draw(st.sampled_from((None, "strong", "weak"))) for _ in pairs]
    strong = [p for p, k in zip(pairs, kinds) if k == "strong"]
    weak = [p for p, k in zip(pairs, kinds) if k == "weak"]
    chain = draw(st.permutations(objects))[:draw(st.integers(0, len(objects)))]
    dominance = list(combinations(chain, 2))  # a strict order, total on the chain only
    rel = ref.Relations(ref.Universe(objects), strong, weak, dominance)

    agents = []
    for i in range(draw(st.integers(1, 4))):
        grades = [draw(st.sampled_from((0, 1, 2))) for _ in objects]  # out, admissible, necessary
        a = (frozenset(x for x, g in zip(objects, grades) if g == 2),
             frozenset(x for x, g in zip(objects, grades) if g))
        agents.append((f"A{i}", workloads._make_disc(a, rel) if draw(st.integers(0, 3)) else a))
    names = [n for n, _ in agents]
    policy = (draw(st.sampled_from(("strict", "dominance", "fewest-necessities", "agent-priority"))),)
    if policy[0] == "agent-priority":
        policy += (tuple(draw(st.permutations(names))),)

    script = ref.Script(objects, agents, strong, weak, dominance, policy, [])
    ev = ref.Evaluator(script, script.rel, {n: (v, n) for n, v in agents})
    for i in range(draw(st.integers(1, 8))):
        kind, e = draw(st.sampled_from(("let", "eval", "assert_disc", "expect"))), small_expr(draw, names)
        try:  # a halting or unbound value is never compared: the run halts first
            value = ev.eval(e)
        except (ref.Halt, KeyError):
            value = None
        if kind == "let":
            script.statements.append((kind, f"L{i}", e))
            names.append(f"L{i}")
            if value is not None:
                ev.env[f"L{i}"] = value
        elif kind == "expect":
            nec, adm = value[0] if value else (frozenset(), frozenset())
            if draw(st.integers(0, 4)) == 0:  # a failing expectation now and then
                nec, adm = (frozenset(), adm) if nec else (adm, adm)
            script.statements.append((kind, e, (nec, adm)))
        else:
            script.statements.append((kind, e))
    return script


@settings(max_examples=300, deadline=None)
@given(script=small_scripts())
def test_small_scripts_match_reference(path, script):
    assert_cli_matches_reference(path, script, workloads.script_text(script))


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
