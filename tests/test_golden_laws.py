"""The law oracle end to end: ``laws --law X --size n --json`` for every law at
n = 1, 2, 3, ``laws --all`` as JSON and as text, ``laws --all --size 4`` as
JSON, and ``fixtures`` as text and JSON give the recorded exit code and
output.  Timings are taken out first: the ``elapsed`` field of each JSON law
report, and the ``(…s)`` of each text line.

``python tests/test_golden_laws.py`` rewrites ``tests/golden_laws.json`` from
the current code; only a change that means to alter an output should."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from negset import cli, oracle

GOLDEN = Path(__file__).resolve().parent / "golden_laws.json"
SECONDS = re.compile(r"\d+\.\d+s\)")


def cases() -> list[list[str]]:
    per_law = [["laws", "--law", law, "--size", str(n), "--json"]
               for law in oracle.law_ids() for n in (1, 2, 3)]
    return per_law + [["laws", "--all", "--json"], ["laws", "--all", "--size", "4", "--json"],
                      ["laws", "--all"], ["fixtures"], ["fixtures", "--json"]]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if "--json" not in argv:
        return {"argv": argv, "code": code, "stdout": SECONDS.sub("…s)", text)}
    doc = json.loads(text)
    for report in doc.get("laws", ()):
        del report["elapsed"]
    return {"argv": argv, "code": code, "doc": doc}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_the_catalog_and_the_recording_match():
    assert [case["argv"] for case in RECORDED] == cases()


@pytest.mark.parametrize("case", RECORDED, ids=[" ".join(c["argv"]) for c in RECORDED])
def test_output_is_identical(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(run(argv), ensure_ascii=False)
                                         for argv in cases()) + "\n]\n", encoding="utf-8")
