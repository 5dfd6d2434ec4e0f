import itertools
import json
import random
import timeit
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import negset as ns
from negset import cli, session
from negset.consistency import AgentPriority, FewestNecessities, ObjectDominance, Strict
from negset.errors import NegsetError
from negset.session import (
    AssertDisc,
    Eval,
    Expect,
    Let,
    ParseError,
    SessionReport,
    StatementResult,
    UnboundName,
    ValidationError,
    parse_session,
    print_expr,
    print_session,
    run_session,
)
from negset.session import _COMMENT, _EOL, _STRAY, _TOKEN, _lex
from neighbourhood import ALPHABET, one_edit_texts

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"

TRIP = (SESSIONS / "trip.ns").read_text()


class TestParsing:
    def test_trip_script(self):
        script = parse_session(TRIP)
        assert len(script.agents) == 3
        assert len(script.universe) == 11
        lets = [s for s in script.statements if isinstance(s, Let)]
        assert [s.name for s in lets] == ["S1", "S2", "S3"]
        assert lets[0].expr == ("A", "B", "odot", "C", "odot")

    def test_left_associative_chain(self):
        script = parse_session("universe a\nagent A = [{} {a}]\neval A odot A oplus A\n")
        (stmt,) = script.statements
        assert stmt.expr == ("A", "A", "odot", "A", "oplus")

    def test_nary_call(self):
        script = parse_session("universe a\nagent A = [{} {a}]\neval odot(A, A, A)\n")
        (stmt,) = script.statements
        assert stmt.expr == ("A", "A", "A", ("odot", 3))

    def test_not_binds_tighter_than_infix(self):
        script = parse_session("universe a\nagent A = [{} {a}]\neval not A odot A\n")
        (stmt,) = script.statements
        assert stmt.expr == ("A", "not", "A", "odot")

    @pytest.mark.parametrize("text,program", [
        ("(A)", ("A",)),
        ("not not A", ("A", "not", "not")),
        ("not (A odot A)", ("A", "A", "odot", "not")),
        ("A odot (A oplus A)", ("A", "A", "A", "oplus", "odot")),
        ("odot(A, not A) minus (A)", ("A", "A", "not", ("odot", 2), "A", "minus")),
        ("not union((A), A inter A)", ("A", "A", "A", "inter", ("union", 2), "not")),
    ])
    def test_groups_and_nots(self, text, program):
        script = parse_session(f"universe a\nagent A = [{{}} {{a}}]\neval {text}\n")
        (stmt,) = script.statements
        assert stmt.expr == program

    def test_policy_variants(self):
        base = "universe a\nagent A = [{} {a}]\nagent B = [{} {}]\n"
        assert parse_session(base + "policy strict\n").policy == Strict()
        assert parse_session(base + "policy dominance\n").policy == ObjectDominance()
        assert parse_session(base + "policy fewest-necessities\n").policy == FewestNecessities()
        assert parse_session(base + "policy agent-priority B > A\n").policy == AgentPriority(("B", "A"))

    def test_comments_and_blank_lines(self):
        script = parse_session("# header\n\nuniverse a b\n  # indented comment\nagent A = [{a} {a b}]\n")
        assert script.agents[0][0] == "A"


class TestParseErrors:
    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_session("universe a b\nagent A = [{a} {a b}\n")
        assert exc.value.line == 2
        assert exc.value.col > 0

    @pytest.mark.parametrize("text", [
        "universe a\nagent A = \n",
        "universe a\nlet = A\n",
        "universe a\neval (A\n",
        "universe a\nexpect A\n",
        "universe a\n@@\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_session(text)


# every symbol, comments, line ends, ASCII and non-ASCII whitespace and name
# characters, and stray characters, _EOL and a lone surrogate among them
LEX_ALPHABET = list("()[]{},=>#\n \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028ab_.-0é²;@!\x00€\ud800")


class TestLexer:
    def test_eol_is_a_stray_character(self):
        assert _STRAY.match(_EOL)

    @settings(max_examples=1000)
    @given(st.text(st.sampled_from(LEX_ALPHABET), max_size=40), st.integers(0, 6))
    def test_tokens_are_the_regex_tokens(self, text, window):
        # windows of a few characters, so that a text of more than one line
        # is read as several
        code = _COMMENT.sub(lambda c: " " * len(c.group()), text) + "\n"
        stray = _STRAY.search(code)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "_WINDOW", window)
            if stray is None:
                tokens = [_EOL if token == "\n" else token for token in _TOKEN.findall(code)]
                lexed, windows = _lex(text)
                windows = list(windows)
                assert lexed == code
                assert [token for w in windows for token in w] == tokens
                assert all(w[-1] == _EOL for w in windows)  # whole lines only
            else:
                at = stray.start()
                with pytest.raises(ParseError) as info:
                    _lex(text)
                assert (info.value.line, info.value.col) == (
                    code.count("\n", 0, at) + 1, at - code.rfind("\n", 0, at))
                assert info.value.reason == f"unexpected character {stray.group()!r}"


def wide_text() -> str:
    """About 420 KB: 2,000 objects, 20,000 strong and weak pairs and a total
    dominance order of 80 objects."""
    rng, names = random.Random(3), [f"o{i}" for i in range(2000)]
    pairs = set()
    while len(pairs) < 20000:
        pairs.add(tuple(sorted(rng.sample(range(2000), 2))))
    pairs = sorted(pairs)
    lines = ["universe " + " ".join(names), "agent A = [{o0} {o0 o1}]", "agent B = [{} {o2}]"]
    lines += [f"strong {names[i]} {names[j]}" for i, j in pairs[::2]]
    lines += [f"weak {names[i]} {names[j]}" for i, j in pairs[1::2]]
    order = names[100:180]
    lines += [f"dominance {x} > {y}" for k, x in enumerate(order) for y in order[k + 1:]]
    lines += ["policy dominance", "let S = A odot B", "assert_disc S"]
    return "\n".join(lines) + "\n"


class TestWindows:
    """A script is lexed one window of lines at a time; windows of a few
    characters read every script as the one window of the default size does,
    and report every error at the same place with the same text."""

    HEAD = "universe " + " ".join(f"o{i}" for i in range(40)) + "\nagent A = [{o1} {o1 o2}]\n"

    SCRIPTS = [
        # a relation run of each kind, across many windows
        HEAD + "".join(f"strong o{i} o{i + 20}\n" for i in range(20))
        + "".join(f"weak o{i} o{i + 1}\n" for i in range(20, 39, 2))
        + "".join(f"dominance o0 > o{i}\n" for i in range(20, 40)) + "policy dominance\n",
        # a long agent literal and a long let, each longer than a window
        HEAD + "agent B = [{" + " ".join(f"o{i}" for i in range(0, 40, 2)) + "} {"
        + " ".join(f"o{i}" for i in range(40)) + "}]\n"
        + "let S = " + " oplus ".join(["not (A odot B)"] * 12) + "\neval union(S, A, B)\n",
        # comments and blank lines around the window ends
        HEAD + "# note\n\n\nstrong o3 o4 # a pair\n\n" * 5 + "eval A\n",
    ]

    @staticmethod
    def parsed(text, window):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "_WINDOW", window)
            return parse_session(text)

    @pytest.mark.parametrize("idx", range(len(SCRIPTS)))
    @pytest.mark.parametrize("window", [0, 5, 17, 64])
    def test_small_windows_parse_to_the_same_script(self, idx, window):
        text = self.SCRIPTS[idx]
        assert self.parsed(text, window) == parse_session(text)

    def test_parse_peak_memory(self):
        # with one token list for the whole text the peak was about 6.7 MB
        # (Python 3.11.7); windows of tokens and index columns keep it near 2.3 MB
        text = wide_text()
        tracemalloc.start()
        try:
            script = parse_session(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(script.strong) + len(script.weak) == 20000 and len(script.dominance) == 3160
        assert peak < 3.5e6

    PAD = "eval A\n" * 6000  # past the first window of the default size

    @pytest.mark.parametrize("tail,message", [
        ("eval A @ A\n", "6003:8: unexpected character '@'"),
        ("strong o1 o2\nstrong o1\nstrong o3 o4\n", "6004:10: expected object name, found 'NEWLINE'"),
        ("dominance o1 o2\n", "6003:14: expected '>', found 'o2'"),
        ("eval (A\n", "6003:8: expected ')', found 'NEWLINE'"),
        ("weak o1 o2\nweak o3 zz\n", "line 6004: object 'zz' not in universe"),
        # the first run of a kind with an unknown object is reported, strong before weak
        ("weak o1 zz\nweak o3 o4\neval A\nweak o3 yy\n", "line 6003: object 'zz' not in universe"),
        ("weak o1 zz\nstrong o2 o3\nstrong o4 yy\n", "line 6005: object 'yy' not in universe"),
        ("eval A odot Z\n", "line 6003: unknown name 'Z'"),
        ("policy strict\npolicy dominance\n", "line 6004: duplicate policy declaration"),
        # comments, blank lines and a ranking checked after the last window
        ("# note\n\nweak o1 zz  # trailing\n", "line 6005: object 'zz' not in universe"),
        ("agent B = [{o1} # open\n", "6003:23: expected '{', found 'NEWLINE'"),
        ("policy agent-priority A > Q\n" + "eval A\n" * 4,
         "line 6003: ranking names undeclared agents: ['Q']"),
    ])
    @pytest.mark.parametrize("window", [None, 3])
    def test_errors_past_the_first_window(self, tail, message, window):
        text = self.HEAD + self.PAD + tail
        assert len(text) > session._WINDOW
        with pytest.raises((ParseError, ValidationError)) as info:
            parse_session(text) if window is None else self.parsed(text, window)
        assert str(info.value) == message


class TestValidation:
    def test_agent_before_universe(self):
        with pytest.raises(ValidationError):
            parse_session("agent A = [{a} {a}]\nuniverse a\n")

    def test_non_double_agent(self):
        with pytest.raises(ValidationError):
            parse_session("universe a\nagent A = [{a} {}]\n")

    def test_duplicate_agent(self):
        with pytest.raises(ValidationError):
            parse_session("universe a\nagent A = [{} {a}]\nagent A = [{} {}]\n")

    def test_unknown_name_in_expr(self):
        with pytest.raises(ValidationError):
            parse_session("universe a\nagent A = [{} {a}]\neval A odot Z\n")

    def test_binding_must_reference_earlier_names(self):
        with pytest.raises(ValidationError):
            parse_session("universe a\nagent A = [{} {a}]\nlet X = Y\nlet Y = A\n")

    @pytest.mark.parametrize("name", ["not", "odot", "let", "expect"])
    def test_keyword_agent_name_rejected(self, name):
        with pytest.raises(ValidationError) as info:
            parse_session(f"universe a b\nagent {name} = [{{a}} {{a b}}]\n")
        assert str(info.value) == f"line 2: keyword {name!r} cannot be bound"

    def test_relation_object_must_exist(self):
        with pytest.raises(ValidationError):
            parse_session("universe a b\nagent A = [{} {a}]\nstrong a z\n")

    def test_ranking_must_cover_agents(self):
        with pytest.raises(ValidationError):
            parse_session(
                "universe a\nagent A = [{} {a}]\nagent B = [{} {}]\npolicy agent-priority A\n"
            )

    def test_overlapping_contradiction_kinds(self):
        with pytest.raises(ValidationError):
            parse_session("universe a b\nagent A = [{} {}]\nstrong a b\nweak b a\n")


class TestRelationRuns:
    """Consecutive relation lines are read as one run; a run reports what
    reading its lines one by one reports, at the same line and column."""

    HEAD = "universe " + " ".join(f"o{i}" for i in range(100)) + "\nagent A = [{} {o0}]\n"

    @staticmethod
    def lines(kind, n=50):
        arrow = " >" if kind == "dominance" else ""
        return [f"{kind} o{i}{arrow} o{i + 50}" for i in range(n)]

    @staticmethod
    def malformed(kind, case, i):
        """A bad line i of a run, the column of its error and the message."""
        arrow = " >" if kind == "dominance" else ""
        if case == "missing-name":
            line = f"{kind} o{i}{arrow}"
            return line, len(line) + 1, "expected object name, found 'NEWLINE'"
        if case == "extra-token":
            line = f"{kind} o{i}{arrow} o{i + 50} o99"
            return line, len(line) - 2, "unexpected trailing token 'o99'"
        if case == "arrow":  # dominance without one, the others with one
            if kind == "dominance":
                return f"{kind} o{i} o{i + 50}", len(f"{kind} o{i} ") + 1, f"expected '>', found 'o{i + 50}'"
            return f"{kind} o{i} > o{i + 50}", len(f"{kind} o{i} ") + 1, "expected object name, found '>'"
        if case == "symbol-for-arrow":
            line, col = f"{kind} o{i} = o{i + 50}", len(f"{kind} o{i} ") + 1
            return line, col, "expected '>', found '='" if arrow else "expected object name, found '='"
        line = f"{kind} o{i}{arrow} {{}}"  # a symbol as a name
        return line, len(line) - 1, "expected object name, found '{'"

    @pytest.mark.parametrize("kind", ["strong", "weak", "dominance"])
    @pytest.mark.parametrize("case", ["missing-name", "extra-token", "arrow", "symbol-for-arrow",
                                      "symbol"])
    @pytest.mark.parametrize("at", [0, 24, 49])
    def test_malformed_line_in_a_run(self, kind, case, at):
        lines = self.lines(kind)
        lines[at], col, message = self.malformed(kind, case, at)
        with pytest.raises(ParseError) as info:
            parse_session(self.HEAD + "\n".join(lines) + "\n")
        assert str(info.value) == f"{at + 3}:{col}: {message}"

    def test_first_malformed_line_wins(self):
        lines = self.lines("strong")
        lines[40] = "strong o40"
        lines[10] = "strong o10 o60 o1"
        with pytest.raises(ParseError) as info:
            parse_session(self.HEAD + "\n".join(lines) + "\n")
        assert str(info.value) == "13:16: unexpected trailing token 'o1'"

    @pytest.mark.parametrize("kind", ["strong", "weak", "dominance"])
    @pytest.mark.parametrize("at", [0, 24, 49])
    def test_unknown_object_reports_its_line(self, kind, at):
        lines = self.lines(kind)
        lines[at] = lines[at].replace(f"o{at + 50}", "zz")
        if at < 49:  # a later unknown name is not the one reported
            lines[49] = lines[49].replace("o49", "yy")
        with pytest.raises(ValidationError) as info:
            parse_session(self.HEAD + "\n".join(lines) + "\n")
        assert str(info.value) == f"line {at + 3}: object 'zz' not in universe"

    def test_parse_error_beats_unknown_object_in_a_run(self):
        lines = self.lines("weak")
        lines[7] = "weak o7 zz"
        with pytest.raises(ParseError) as info:
            parse_session(self.HEAD + "\n".join(lines) + "\neval (A\n")
        assert str(info.value) == "53:8: expected ')', found 'NEWLINE'"

    def test_broken_runs_parse_to_the_same_script(self):
        lines = self.lines("strong", 20) + self.lines("dominance", 20)
        lines += [f"weak o{i} o{i + 21}" for i in range(20)]
        expected = parse_session(self.HEAD + "\n".join(lines) + "\n")
        assert len(expected.strong) == len(expected.dominance) == len(expected.weak) == 20
        variants = [
            "\n\n".join(lines),
            "\n# note\n".join(lines),
            " # note\n".join(lines),
            "\n".join(lines[::2] + lines[1::2]),
            "\n".join(line for pair in zip(lines[:30], lines[30:]) for line in pair),
            "\n".join(reversed(lines)),
        ]
        for text in variants:
            assert parse_session(self.HEAD + text + "\n") == expected


def corpus() -> list[str]:
    scripts = [p.read_text() for p in sorted(SESSIONS.glob("*.ns"))]
    base = "universe a b c d\nagent A = [{a} {a b}]\nagent B = [{b} {b c}]\n"
    extra_statements = [
        "eval A odot B\n",
        "eval A oplus B\n",
        "eval A union B\n",
        "eval A inter B\n",
        "eval A minus B\n",
        "eval not A\n",
        "eval not (A odot B)\n",
        "eval (A oplus B) odot A\n",
        "eval odot(A, B, A)\n",
        "eval oplus(A, B)\n",
        "eval union(A, B, B)\n",
        "let X = A odot B\nexpect X = [{} {a b c}]\n",
        "let X = not A\nlet Y = X inter B\neval Y\n",
        "assert_disc A union B\n",
        "strong a c\npolicy dominance\ndominance a > c\nassert_disc A\n",
        "weak b d\nlet X = A oplus B\nassert_disc X\n",
        "policy agent-priority B > A\neval A oplus B\n",
    ]
    scripts.extend(base + s for s in extra_statements)
    return scripts


class TestRoundTrip:
    @pytest.mark.parametrize("idx", range(len(corpus())))
    def test_parse_print_parse_identity(self, idx):
        text = corpus()[idx]
        script = parse_session(text)
        printed = print_session(script)
        assert parse_session(printed) == script
        # printing is a fixpoint
        assert print_session(parse_session(printed)) == printed

    def test_corpus_is_large_enough(self):
        assert len(corpus()) >= 20

    def test_relations_are_compared_views_of_the_spec(self):
        base = "universe a b c\nagent A = [{} {a}]\nstrong c a\nweak c b\ndominance c > a\n"
        script = parse_session(base + "strong b a\n")
        assert script.strong == (("a", "b"), ("a", "c"))
        assert script.weak == (("b", "c"),)
        assert script.dominance == (("c", "a"),)
        assert script != parse_session(base)

    def test_scripts_equal_only_when_their_specs_are(self):
        head = "universe a b c\nagent A = [{} {a}]\n"
        one = parse_session(head + "strong a b\nstrong c b\ndominance a > b\n")
        other = parse_session(head + "strong b c\nstrong b a\nstrong a b\ndominance a > b\n")
        assert one.spec == other.spec and hash(one.spec) == hash(other.spec)
        assert one == other
        for changed in ("strong a b\nweak c b\ndominance a > b\n", "strong a b\nstrong c b\n"):
            script = parse_session(head + changed)
            assert script.spec != one.spec and script != one


class TestEvaluation:
    def test_eval_expr_reports_an_unbound_name(self):
        u = ns.make_universe(["a"])
        env = {"A": ns.negset_of(u, [], ["a"])}
        with pytest.raises(UnboundName, match="^unbound name: B$"):
            ns.eval_expr(("A", "B", "odot"), env, ns.make_contradiction_spec(u))

    def test_trip_report(self):
        report = run_session(parse_session(TRIP))
        assert report.all_ok
        values = [r for r in report.results if r.kind == "let"]
        assert str(values[0].value) == "[{a} {a b d f g h i k l}]"
        assert str(values[1].value) == "[{a d} {a d}]"

    def test_failing_expect_continues(self):
        text = (
            "universe a b\nagent A = [{a} {a b}]\n"
            "expect A = [{a} {a}]\neval A\n"
        )
        report = run_session(parse_session(text))
        assert not report.halted
        assert [r.ok for r in report.results] == [False, True]
        assert "expected" in report.results[0].detail

    def test_strict_conflict_halts(self):
        report = run_session(parse_session((SESSIONS / "disc_fail_strict.ns").read_text()))
        assert report.halted
        assert report.halt_kind == "resolution"
        assert "(a, b)" in report.halt_reason

    def test_dominance_resolution_notes_drops(self):
        report = run_session(parse_session((SESSIONS / "disc_dominance.ns").read_text()))
        assert report.all_ok
        assert report.results[0].notes == ("dropped {b}",)

    @pytest.mark.parametrize("binding,halts", [
        ("A", False),
        ("(A)", False),
        ("odot(A)", True),
        ("not not A", True),
    ], ids=["name", "paren", "nary", "not-not"])
    def test_agent_priority_through_binding_provenance(self, tmp_path, binding, halts):
        # only a bare name carries its agent's provenance into the binding
        text = (
            "universe a b\nagent A = [{a} {a}]\nagent B = [{b} {b}]\n"
            "strong a b\npolicy agent-priority B > A\n"
            f"let X = {binding}\nlet R = X odot B\nexpect R = [{{}} {{b}}]\n"
        )
        report = run_session(parse_session(text))
        path = tmp_path / "priority.ns"
        path.write_text(text)
        code = cli.main(["eval", str(path)])
        if halts:
            assert report.halt_reason == "resolution failed: ambiguous provenance [(a, b)]"
            assert code == 3
        else:
            assert report.all_ok and code == 0

    def test_agent_priority_coalition_operand_fails(self):
        text = (
            "universe a b c\nagent A = [{a} {a}]\nagent B = [{b} {b}]\nagent C = [{} {c}]\n"
            "strong a b\npolicy agent-priority A > B > C\n"
            "let R = (A union C) odot B\n"
        )
        report = run_session(parse_session(text))
        assert report.halted
        assert "ambiguous" in report.halt_reason

    def test_gated_n_ary_odot_depends_on_argument_order(self):
        # odot(A, B, C) is the left fold, and each step is gated (README,
        # "Session scripts"): the dominance loser of each step's strong pair goes
        text = (
            "universe a b c\nagent A = [{} {a}]\nagent B = [{} {b}]\nagent C = [{} {c}]\n"
            "strong a b\nstrong b c\n"
            "dominance a > b\ndominance b > c\ndominance a > c\npolicy dominance\n"
            "eval odot(A, B, C)\neval odot(C, B, A)\n"
        )
        report = run_session(parse_session(text))
        assert report.all_ok
        assert report.to_text().splitlines() == [
            "eval odot(A, B, C) = [{} {a c}]  # dropped {b}",
            "eval odot(C, B, A) = [{} {a}]  # dropped {c}; dropped {b}",
        ]

    def test_note_lists_dropped_objects_in_universe_order(self):
        # x loses (x, y) and wins (x, z); z loses (x, z): the note follows the
        # universe's order z x y, not the names' order x z
        text = (
            "universe z x y\nagent A = [{} {x}]\nagent B = [{} {y z}]\n"
            "strong x y\nstrong x z\n"
            "dominance y > x\ndominance x > z\ndominance y > z\npolicy dominance\n"
            "eval A odot B\n"
        )
        report = run_session(parse_session(text))
        assert report.to_text() == "eval A odot B = [{} {y}]  # dropped {z x}\n"

    def test_assert_disc_failure_is_not_fatal(self):
        report = run_session(parse_session((SESSIONS / "check_demo.ns").read_text()))
        # strict policy gates the odot inside `let`, so this script halts there
        assert report.halted

    def test_assert_disc_reports_violations(self):
        text = (
            "universe x y\nagent A = [{} {x y}]\n"
            "weak x y\nassert_disc A\neval A\n"
        )
        report = run_session(parse_session(text))
        assert report.results[0].ok  # weak pair without necessity is fine
        assert not report.halted

    def test_oplus_needs_no_resolution(self):
        text = (
            "universe a b\nagent A = [{a} {a}]\nagent B = [{b} {b}]\n"
            "strong a b\npolicy strict\neval A oplus B\n"
        )
        report = run_session(parse_session(text))
        assert report.all_ok
        assert str(report.results[0].value) == "[{} {}]"

    def test_determinism(self):
        text = (SESSIONS / "nary.ns").read_text()
        first = run_session(parse_session(text))
        second = run_session(parse_session(text))
        assert first.to_text() == second.to_text()
        assert first.to_json() == second.to_json()

    def test_json_shape(self):
        report = run_session(parse_session(TRIP))
        doc = json.loads(report.to_json())
        assert doc["universe"] == list("abcdefghikl")
        assert doc["ok"] is True
        entry = doc["statements"][0]
        assert set(entry) == {"kind", "source", "ok", "value", "detail", "notes"}
        assert entry["value"]["necessity"] == ["a"]
        assert entry["value"]["admissibility"] == list("abdfghikl")


class TestJsonWriter:
    """``to_json`` writes the text ``json.dumps(indent=2)`` gives for the report's document."""

    @staticmethod
    def dumped(report):
        doc = {
            "universe": list(report.universe.objects),
            "statements": [
                {
                    "kind": r.kind,
                    "source": r.source,
                    "ok": r.ok,
                    "value": None if r.value is None else {
                        "necessity": list(r.value.necessity.names()),
                        "admissibility": list(r.value.admissibility.names()),
                    },
                    "detail": r.detail,
                    "notes": list(r.notes),
                }
                for r in report.results
            ],
            "halted": report.halted,
            "halt_reason": report.halt_reason,
            "halt_kind": report.halt_kind,
            "ok": report.all_ok,
        }
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(p.name for p in SESSIONS.glob("*.ns")))
    def test_every_example_session(self, name):
        report = run_session(parse_session((SESSIONS / name).read_text()))
        assert report.to_json() == self.dumped(report)

    def test_halted_report_with_notes(self):
        report = run_session(parse_session((SESSIONS / "disc_dominance.ns").read_text()))
        assert any(r.notes for r in report.results)
        report = run_session(parse_session((SESSIONS / "disc_fail_strict.ns").read_text()))
        assert report.halted and report.to_json() == self.dumped(report)

    def test_empty_report(self):
        report = SessionReport(universe=ns.make_universe(["a"]))
        assert report.to_json() == self.dumped(report)

    def test_non_ascii_names_and_escapes(self):
        script = parse_session(
            "universe \u00e9 b \u4e2d\nagent \u00c9 = [{\u00e9} {\u00e9 \u4e2d}]\n"
            "agent B = [{} {}]\nlet S = \u00c9 union B\nexpect S = [{} {}]\n"
        )
        report = run_session(script)
        assert report.to_json() == self.dumped(report)
        assert '"\\u00e9"' in report.to_json()
        u = script.universe
        extra = StatementResult(
            "eval", 'eval "\\ \u00e9', False, ns.negset_of(u, [], []), "tab\there\n", ("a\"b", "\x00")
        )
        report = SessionReport(u, (*report.results, extra), True, "\u4e2d \"x\"", "error")
        assert report.to_json() == self.dumped(report)


def binding_script(names, sets):
    """A script binding one agent per ``(nec, adm)`` mask pair over ``names``,
    then binding each agent again, forwards and then backwards."""
    def text(mask):
        return " ".join(name for i, name in enumerate(names) if mask >> i & 1)

    lines = ["universe " + " ".join(names)]
    lines += [f"agent A{i} = [{{{text(nec)}}} {{{text(adm)}}}]" for i, (nec, adm) in enumerate(sets)]
    order = list(range(len(sets)))
    lines += [f"let L{k} = A{i}" for k, i in enumerate(order + order[::-1])]
    return "\n".join(lines) + "\n"


def sparse_and_dense(size):
    """Object names and (nec, adm) mask pairs over ``size`` objects whose masks
    ``iter_bits`` reads both ways: bit by bit when sparse, digit by digit otherwise."""
    names = ["a"] if size == 1 else [f"o{i:03d}" for i in range(size)]
    rng = random.Random(size)
    few = sum(1 << i for i in rng.sample(range(size), max(1, size // 16)))
    masks = [0, 1 << (size - 1), (1 << size) - 1, rng.getrandbits(size), few]
    assert {m.bit_count() * 8 <= m.bit_length() for m in masks} == {True, False}
    return names, [(nec, adm) for adm in masks for nec in {0, adm, adm & rng.getrandbits(size)}]


class TestRenderTable:
    """A render call writes each distinct (nec, adm) pair once, and what it writes
    is what ``format_negset`` and ``json.dumps`` give for each value."""

    @staticmethod
    def rendered_as_reference(report):
        text = "".join(f"{r.source} = {ns.format_negset(r.value)}\n" for r in report.results)
        assert report.to_text() == text
        assert report.to_json() == TestJsonWriter.dumped(report)

    def test_one_necessity_with_several_admissibilities(self):
        sets = [(0b001, 0b001), (0b001, 0b011), (0b001, 0b111), (0b001, 0b101), (0, 0b001)]
        report = run_session(parse_session(binding_script(["a", "b", "c"], sets)))
        assert len({str(r.value) for r in report.results}) == len(sets)
        self.rendered_as_reference(report)

    def test_same_masks_over_two_universes(self):
        sets = [(0b01, 0b11), (0, 0b10), (0b11, 0b11)]
        first, second = (run_session(parse_session(binding_script(names, sets)))
                         for names in (["a", "b"], ["x", "y", "z"]))
        for report in (first, second, first):
            self.rendered_as_reference(report)
        assert first.to_text() != second.to_text()

    @pytest.mark.parametrize("size", [1, 64, 200])
    def test_sparse_and_dense_masks(self, size):
        script = binding_script(*sparse_and_dense(size))
        self.rendered_as_reference(run_session(parse_session(script)))


class TestEvaluatorAgreesWithAlgebra:
    BASE = "universe a b c\nagent A = [{} {}]\nagent B = [{} {}]\nagent C = [{} {}]\n"

    def test_random_expressions_without_relations(self):
        rng = random.Random(7)
        u = ns.make_universe(["a", "b", "c"])
        binary = {
            "odot": ns.odot, "oplus": ns.oplus,
            "union": lambda x, y: ns.union_all([x, y]),
            "inter": lambda x, y: ns.inter_all([x, y]),
            "minus": ns.difference,
        }
        nary = {"odot": ns.odot_all, "oplus": ns.oplus_all,
                "union": ns.union_all, "inter": ns.inter_all}

        def rand_set():
            adm = rng.randrange(u.full_mask + 1)
            nec = rng.randrange(u.full_mask + 1) & adm
            return ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm))

        def operand(text, infix):
            # an infix operand needs its parentheses; any other may have some
            return f"({text})" if infix or rng.random() < 0.2 else text

        def rand_expr(depth):
            """Source text, whether it is an infix form, and its value by core's operators."""
            if depth == 0 or rng.random() < 0.3:
                name = rng.choice("ABC")
                return name, False, env[name]
            kind = rng.randrange(3)
            if kind == 0:
                text, infix, value = rand_expr(depth - 1)
                return f"not {operand(text, infix)}", False, ns.complement(value)
            if kind == 1:
                op = rng.choice(sorted(binary))
                (ltext, linfix, left), (rtext, rinfix, right) = rand_expr(depth - 1), rand_expr(depth - 1)
                # the operators associate to the left, so a left chain may go bare
                ltext = operand(ltext, False) if linfix and rng.random() < 0.5 else ltext
                return f"{ltext} {op} {operand(rtext, rinfix)}", True, binary[op](left, right)
            op = rng.choice(sorted(nary))
            items = [rand_expr(depth - 1) for _ in range(rng.randint(1, 3))]
            return f"{op}({', '.join(t for t, _, _ in items)})", False, nary[op]([v for *_, v in items])

        spec = ns.make_contradiction_spec(u)
        for _ in range(300):
            env = {"A": rand_set(), "B": rand_set(), "C": rand_set()}
            text, _, value = rand_expr(3)
            (stmt,) = parse_session(f"{self.BASE}eval {text}\n").statements
            (again,) = parse_session(f"{self.BASE}eval {print_expr(stmt.expr)}\n").statements
            assert again.expr == stmt.expr, text
            assert ns.eval_expr(stmt.expr, env, spec) == value, text


ABC = ns.make_universe(["a", "b", "c"])
GROUPINGS = tuple(stmt.expr for stmt in parse_session(
    "universe a b c\nagent A = [{} {}]\nagent B = [{} {}]\nagent C = [{} {}]\n"
    "eval (A odot B) odot C\neval A odot (B odot C)\n").statements)


def disc_triples(dominance=()):
    """Each of the 27 labelings of the pairs of ``a b c`` as strong, weak or
    none, strong labels first, with its spec, which also holds the
    ``dominance`` pairs, and its DISC triples as environments of ``A``, ``B``
    and ``C``."""
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    sets = [ns.NegotiationSet(ns.FiniteSet(ABC, nec), ns.FiniteSet(ABC, adm))
            for adm in range(8) for nec in range(8) if nec & ~adm == 0]
    for labels in itertools.product(("strong", "weak", "none"), repeat=3):
        strong = [p for p, label in zip(pairs, labels) if label == "strong"]
        weak = [p for p, label in zip(pairs, labels) if label == "weak"]
        spec = ns.make_contradiction_spec(ABC, strong, weak, dominance)
        disc = [s for s in sets if ns.is_disc(s, spec)]
        yield labels, spec, (dict(zip("ABC", t)) for t in itertools.product(disc, repeat=3))


def groupings(env, spec, policy):
    """The outcome of each grouping as the session evaluator runs it: its
    value, or the pairs that its failing step names."""
    def outcome(program):
        try:
            return ns.eval_expr(program, env, spec, policy)
        except session.ResolutionFailed as exc:
            return exc.pairs
    return [outcome(program) for program in GROUPINGS]


def test_gated_odot_is_associative_under_strict_at_three_objects():
    """``(A odot B) odot C`` and ``A odot (B odot C)``, as the session
    evaluator runs them under ``strict``, give the same value or both fail,
    for every DISC triple over ``a b c`` under each of the 27 strong/weak
    labelings of its three pairs.

    Under ``strict`` a step fails when its minimalization admits both
    members of a strong pair, and otherwise is the ungated ``odot``, which
    is associative.  Admissibilities join, so every step of either grouping
    admits a subset of what ``A odot B odot C`` admits, and the last step of
    each admits all of it.  A grouping therefore fails exactly when the
    union of the three admissibilities holds a strong pair.  Whether one
    pair is violated depends on its two objects alone, so a counterexample
    would show on one pair; three objects also let two pairs share an
    object, which is where the groupings can fail on different pairs: the
    first step to fail names only its own pairs.
    """
    cases = other_pairs = 0
    for labels, spec, envs in disc_triples():
        for env in envs:
            one, other = groupings(env, spec, Strict())
            cases += 1
            if isinstance(one, tuple) and isinstance(other, tuple):
                other_pairs += one != other
            else:
                assert one == other, (labels, env)
    assert (cases, other_pairs) == (75_294, 816)


ORDERS = ["".join(order) for order in itertools.permutations("abc")]
NON_STRICT = {  # dominance over an order of a b c, ranking of A B C, or neither
    **{f"dominance-{o}": (ObjectDominance(), tuple(itertools.combinations(o, 2))) for o in ORDERS},
    **{f"agent-priority-{o.upper()}": (AgentPriority(tuple(o.upper())), ()) for o in ORDERS},
    "fewest-necessities": (FewestNecessities(), ()),
}


@pytest.mark.parametrize("policy,dominance", NON_STRICT.values(), ids=list(NON_STRICT))
def test_gated_odot_is_not_associative_at_three_objects(policy, dominance):
    """Under every total order of ``a b c`` with ``dominance``, every ranking
    of ``A B C`` with ``agent-priority``, and ``fewest-necessities``, some DISC
    triple over ``a b c`` gives the two groupings different outcomes, and not
    two failures: one such triple decides that gated ``odot`` is not
    associative there.  The sweep is the ``strict`` test's, stopped at the
    first such triple."""
    def differ(one, other):
        return one != other and not (isinstance(one, tuple) and isinstance(other, tuple))

    found = next(((labels, env) for labels, spec, envs in disc_triples(dominance) for env in envs
                  if differ(*groupings(env, spec, policy))), None)
    assert found is not None


class TestDeepChains:
    """A left-deep chain is evaluated and printed at any length."""

    TERMS = 3000

    def chain(self):
        program = ["A"]
        for i in range(1, self.TERMS):
            program += ("AB"[i % 2], "odot")
        return tuple(program)

    def test_print_expr_round_trips(self):
        chain = self.chain()
        text = print_expr(chain)
        assert text.startswith("(" * (self.TERMS - 2) + "A odot B) odot A) odot B)")
        script = parse_session(
            f"universe a b\nagent A = [{{a}} {{a}}]\nagent B = [{{b}} {{b}}]\neval {text}\n"
        )
        (stmt,) = script.statements
        assert stmt.expr == chain
        assert print_expr(stmt.expr) == text

    def test_evaluates_to_one_odot(self):
        script = parse_session(
            "universe a b c\nagent A = [{a} {a b}]\nagent B = [{a c} {a c}]\n"
            f"let S = {print_expr(self.chain())}\n"
        )
        report = run_session(script)
        a, b = (value for _, value in script.agents)
        assert report.all_ok
        assert report.results[0].value == ns.odot(a, b)


class TestDeepNesting:
    """Nesting on the left, on the right, in the n-ary forms and under ``not``
    parses, evaluates and prints at any depth under the default recursion
    limit."""

    DEPTH = 100_000

    @pytest.mark.parametrize("expr,value", [
        (" odot ".join("AB" * (DEPTH // 2)), "[{a} {a b c}]"),
        ("A odot (" * DEPTH + "B" + ")" * DEPTH, "[{a} {a b c}]"),
        ("odot(A, " * DEPTH + "B" + ")" * DEPTH, "[{a} {a b c}]"),
        ("not (" * DEPTH + "B" + ")" * DEPTH, "[{a c} {a c}]"),
    ], ids=["left", "right", "nary", "not-paren"])
    def test_parses_evaluates_and_round_trips(self, expr, value):
        script = parse_session(
            f"universe a b c\nagent A = [{{a}} {{a b}}]\nagent B = [{{a c}} {{a c}}]\nlet S = {expr}\n"
        )
        report = run_session(script)
        assert report.all_ok
        assert str(report.results[0].value) == value
        assert parse_session(print_session(script)) == script

    @pytest.mark.parametrize("shape", [
        lambda d: ["A"] + ["B", "odot"] * (d - 1),
        lambda d: ["A"] * d + ["B"] + ["odot"] * d,
        lambda d: ["A"] * d + ["B"] + [("odot", 2)] * d,
        lambda d: ["B"] + ["not"] * d,
    ], ids=["left", "right", "nary", "not"])
    def test_prints_in_linear_time(self, shape):
        # 8 times the depth takes about 8-10 times as long; a printer that
        # copied the whole text so far at each step took 40-90 times as long
        def best(depth):
            program = shape(depth)
            return min(timeit.repeat(lambda: print_expr(program), number=1, repeat=3))

        assert best(self.DEPTH) < 24 * best(self.DEPTH // 8)


def pieces_print(program) -> str:
    """``print_expr`` with every text kept as nested pieces and joined once at
    the end: the reference for texts on either side of ``session._SHORT``."""
    stack: list = []
    for item in program:
        if item.__class__ is tuple:
            op, k = item
            pieces = [f"{op}("]
            for piece, _ in stack[-k:]:
                pieces += (piece, ", ")
            pieces[-1] = ")"
            del stack[-k:]
            stack.append((pieces, pieces))
        elif item == "not":
            pieces = ["not ", stack.pop()[1]]
            stack.append((pieces, pieces))
        elif item in session.BINARY_OPS:
            right, left = stack.pop()[1], stack.pop()[1]
            pieces = [left, f" {item} ", right]
            stack.append((pieces, ["(", pieces, ")"]))
        else:
            stack.append((item, item))
    out, todo = [], [stack[0][0]]
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


class TestShortBound:
    """``print_expr`` writes a text shorter than ``session._SHORT`` as one
    string and a longer one as pieces; texts that cross the bound partway,
    and names on either side of it, print as the pieces-only printer prints
    them and parse back to their program."""

    NAMES = ("A", "Bb", "C" * 40, "D" * (session._SHORT - 1), "E" * session._SHORT, "F" * 300)
    AGENTS = "".join(f"agent {name} = [{{a}} {{a b}}]\n" for name in NAMES)

    def round_trips(self, program):
        text = print_expr(program)
        assert text == pieces_print(program)
        (stmt,) = parse_session(f"universe a b\n{self.AGENTS}eval {text}\n").statements
        assert stmt.expr == tuple(program)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("terms", [2, 7, 40, 120])
    def test_chains(self, name, terms):
        other = self.NAMES[0]
        left = [name] + [other, "odot"] * (terms - 1)
        right = [name] * terms + ["oplus"] * (terms - 1)
        nots = [name] + ["not"] * terms
        nary = [name] + [other, ("union", 2)] * (terms - 1)
        wide = [name] * terms + [("inter", terms)]
        mixed = [name] + [other, "not", "minus", name, ("odot", 2)] * terms
        for program in (left, right, nots, nary, wide, mixed):
            self.round_trips(program)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=120))
    def test_random_programs(self, steps):
        program, depth = [], 0
        for step, pick in steps:
            if step == 0 or depth == 0:
                program.append(self.NAMES[pick % len(self.NAMES)])
                depth += 1
            elif step == 1:
                program.append("not")
            elif step == 2 and depth >= 2:
                program.append(session.BINARY_OPS[pick % len(session.BINARY_OPS)])
                depth -= 1
            else:
                k = 1 + pick % min(depth, 4)
                program.append((session.NARY_OPS[pick % len(session.NARY_OPS)], k))
                depth -= k - 1
        program += ["odot"] * (depth - 1)
        if program:
            self.round_trips(program)


# --- the one-edit neighbourhood of the corpus, decided ---

# together these hold all ten statement keywords and all four policies
NEIGHBOURHOOD = ["disc_dominance.ns", "weak_demo.ns", "gated_grouping_fewest.ns",
                 "disc_priority.ns", "disc_fail_strict.ns"]


def parses_runs_and_round_trips(text: str) -> bool:
    """False if ``text`` ends in a NegsetError; a script it parses to must run
    with no exception and come back from its printed text."""
    try:
        script = parse_session(text)
    except NegsetError:
        return False
    run_session(script)
    assert parse_session(print_session(script)) == script
    return True


def test_one_edit_neighbourhood_parses_or_fails_cleanly():
    texts = [(SESSIONS / name).read_text() for name in NEIGHBOURHOOD]
    scripts = [parse_session(text) for text in texts]
    words = {word for text in texts for word in _TOKEN.findall(_COMMENT.sub("", text))}
    assert session._STATEMENTS <= words
    assert {type(script.policy) for script in scripts} == {
        Strict, ObjectDominance, AgentPriority, FewestNecessities}
    assert len(ALPHABET) == len(set(ALPHABET)) == 35
    edited = parsed = 0
    for text in texts:
        for new in sorted(one_edit_texts(text)):
            try:
                parsed += parses_runs_and_round_trips(new)
            except Exception as exc:
                raise AssertionError(f"one-edit text {new!r}") from exc
            edited += 1
    assert (edited, parsed) == (19_479, 765)
