"""Command-line entry point: session evaluation, DISC checking, law sweeps."""

import argparse
import functools
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING

from .consistency import disc_violations
from .consistency import make_contradiction_spec  # noqa: F401  perfbench/tracing.py spans it here
from .errors import NegsetError, ScriptUnreadable
from .session import (
    _JSON_BOOL,
    _quote,
    ParseError,
    SessionScript,
    ValidationError,
    eval_bindings,
    eval_expr,  # noqa: F401  kept as cli.eval_expr, which perfbench/tracing.py spans
    json_array,
    json_masks,
    parse_session,
    run_session,
)

if TYPE_CHECKING:  # for annotations; the commands import the oracle on first use
    from . import oracle

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_PARSE = 2
EXIT_RESOLUTION = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 70  # EX_SOFTWARE: a defect in negset, not in its input
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def _load_script(path: str) -> SessionScript:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScriptUnreadable(exc) from exc
    return parse_session(text)


def cmd_eval(path: str, as_json: bool) -> int:
    report = run_session(_load_script(path))
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    if report.halted:
        return EXIT_RESOLUTION if report.halt_kind == "resolution" else EXIT_CONFIG
    return EXIT_OK if report.all_ok else EXIT_FAILED_CHECKS


def cmd_check(path: str, as_json: bool) -> int:
    """Diagnostic mode: evaluate bindings without policy gating, report DISC verdicts."""
    script = _load_script(path)
    entries = []
    all_ok = True
    for name, value in eval_bindings(script):
        violations = disc_violations(value, script.spec)
        all_ok &= not violations
        entries.append((name, value, violations))
    if as_json:
        sys.stdout.write(_check_json(script, entries, all_ok))
    else:
        texts = functools.cache(script.universe.format_masks)
        for name, value, violations in entries:
            verdict = f"NOT DISC [{'; '.join(map(str, violations))}]" if violations else "DISC"
            sys.stdout.write(f"{name} = {texts(value.nec, value.adm)}: {verdict}\n")
    return EXIT_OK if all_ok else EXIT_FAILED_CHECKS


def _check_json(script: SessionScript, entries, all_ok: bool) -> str:
    """The text ``json.dumps(doc, indent=2) + "\\n"`` gives for the check
    report's document, written directly as ``SessionReport.to_json`` writes its own."""
    quoted = [_quote(name) for name in script.universe.objects]
    values, sets = functools.cache(functools.partial(json_masks, quoted)), []
    for name, value, violations in entries:
        found = [
            f'{{\n          "kind": {_quote(v.kind)},\n'
            f'          "pair": {json_array(map(_quote, v.pair), " " * 12)}\n        }}'
            for v in violations
        ]
        sets.append(
            f'{{\n      "name": {_quote(name)},\n      "value": {values(value.nec, value.adm)},\n'
            f'      "disc": {_JSON_BOOL[not violations]},\n'
            f'      "violations": {json_array(found, " " * 8)}\n    }}'
        )
    return (f'{{\n  "universe": {json_array(quoted, "    ")},\n'
            f'  "sets": {json_array(sets, "    ")},\n  "ok": {_JSON_BOOL[all_ok]}\n}}\n')


def _law_line(report: "oracle.LawReport") -> str:
    status = "as expected" if report.matches_expected else "UNEXPECTED"
    line = (
        f"{report.law} n={report.size}: {report.verdict} "
        f"({report.checked} tuples, {report.violation_count} violations, "
        f"{report.elapsed:.2f}s) [{status}]"
    )
    for example in report.counterexamples:
        line += f"\n  counterexample: {example}"
    return line


def _law_object(report: "oracle.LawReport") -> str:
    return (
        f'{{\n      "law": {_quote(report.law)},\n      "size": {report.size},\n'
        f'      "checked": {report.checked},\n      "verdict": {_quote(report.verdict)},\n'
        f'      "counterexamples": {json_array(map(_quote, report.counterexamples), " " * 8)},\n'
        f'      "violation_count": {report.violation_count},\n'
        f'      "elapsed": {report.elapsed!r},\n'
        f'      "matches_expected": {_JSON_BOOL[report.matches_expected]}\n    }}'
    )


def _fixture_line(result: "oracle.FixtureResult") -> str:
    verdict = "pass" if result.passed else "FAIL"
    note = f"  # {result.note}" if result.note else ""
    return f"fixture {result.fixture_id}: {verdict}{note}"


def _fixture_object(result: "oracle.FixtureResult") -> str:
    return (f'{{\n      "fixture": {_quote(result.fixture_id)},\n'
            f'      "passed": {_JSON_BOOL[result.passed]},\n'
            f'      "note": {_quote(result.note)}\n    }}')


def _oracle_report(reports: list | None, fixtures: list, as_json: bool) -> int:
    """Write the report of ``laws``, or of ``fixtures`` when ``reports`` is None, and return
    its exit code; as JSON, it is the text ``json.dumps(doc, indent=2) + "\\n"`` would give."""
    ok = all(r.matches_expected for r in reports or ()) and all(f.passed for f in fixtures)
    if as_json:
        laws = ("" if reports is None
                else f'  "laws": {json_array(map(_law_object, reports), "    ")},\n')
        text = (f'{{\n{laws}  "fixtures": {json_array(map(_fixture_object, fixtures), "    ")},\n'
                f'  "ok": {_JSON_BOOL[ok]}\n}}\n')
    else:
        lines = chain(map(_law_line, reports or ()), map(_fixture_line, fixtures))
        text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FAILED_CHECKS


def cmd_laws(law: str | None, run_all: bool, size: int | None, limit: int, as_json: bool) -> int:
    from . import oracle  # perfbench/tracing.py patches names on this module

    law_ids = oracle.law_ids() if run_all else [law]
    n = oracle.DECIDING_SIZE if size is None else size
    oracle.validate(n, limit)  # before the tables, which list all 3^n sets at once
    tables = oracle._Tables(n)
    reports = [oracle.check_law(law_id, n, limit=limit, tables=tables) for law_id in law_ids]
    fixtures = [oracle.verify_fixture(fid) for fid in oracle.fixture_ids()] if run_all else []
    return _oracle_report(reports, fixtures, as_json)


def cmd_fixtures(fixture: str | None, as_json: bool) -> int:
    from . import oracle

    ids = [fixture] if fixture else oracle.fixture_ids()
    return _oracle_report(None, [oracle.verify_fixture(fid) for fid in ids], as_json)


@functools.cache  # parse_args leaves the parser as it is, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negset", description="negotiation-set algebra toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (("eval", "run a session script"),
                          ("check", "DISC verdicts for every agent and binding")):
        p_script = sub.add_parser(name, help=summary)
        p_script.add_argument("path")
        p_script.add_argument("--json", action="store_true")

    p_laws = sub.add_parser("laws", help="exhaustive law sweeps")
    group = p_laws.add_mutually_exclusive_group(required=True)
    group.add_argument("--law", help="law id to check")
    group.add_argument("--all", action="store_true", dest="run_all")
    p_laws.add_argument("--size", type=int, default=None)
    p_laws.add_argument("--limit", type=int, default=5)
    p_laws.add_argument("--json", action="store_true")

    p_fix = sub.add_parser("fixtures", help="re-derive the worked examples")
    p_fix.add_argument("--fixture", default=None)
    p_fix.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place where an error becomes its message and exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.path, args.json)
        if args.command == "check":
            return cmd_check(args.path, args.json)
        if args.command == "laws":
            return cmd_laws(args.law, args.run_all, args.size, args.limit, args.json)
        return cmd_fixtures(args.fixture, args.json)
    except (NegsetError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, ValidationError, UnicodeDecodeError)):
            return EXIT_PARSE
        # an unreadable script, unknown law or fixture, bad size or limit, or a
        # name that standard output cannot encode
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so that
        # the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    except Exception as exc:  # main reports every NegsetError itself
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    entry()
