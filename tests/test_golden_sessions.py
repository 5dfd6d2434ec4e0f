"""The hand-written corpus end to end: ``eval``, ``eval --json``, ``check`` and
``check --json`` on every ``sessions/*.ns`` give the recorded stdout, stderr
and exit code byte for byte.

``python tests/test_golden_sessions.py`` rewrites ``tests/golden_sessions.json``
from the current code; only a change that means to alter an output should."""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from negset import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_sessions.json"
COMMANDS = (("eval",), ("eval", "--json"), ("check",), ("check", "--json"))


def cases() -> list[list[str]]:
    scripts = sorted(p.name for p in (ROOT / "sessions").glob("*.ns"))
    return [[command[0], f"sessions/{name}", *command[1:]] for name in scripts for command in COMMANDS]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the recorded argv names each script relative to the repository
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_the_corpus_and_the_recording_match():
    assert [case["argv"] for case in RECORDED] == cases()


@pytest.mark.parametrize("case", RECORDED, ids=[" ".join(c["argv"]) for c in RECORDED])
def test_output_is_byte_identical(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n", encoding="utf-8")
