"""The exact error line of every way a script can fail to load.

Each case is one malformed script and the single ``error: ...`` line that
``negset eval`` and ``negset check`` print for it, with exit code 2.  The
table pins the lexer, parser and validation paths, and which error wins
when a script has two.  Property tests then feed the parser arbitrary
text.
"""

import ast
import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negset import cli, session
from negset.session import _STATEMENTS, ParseError, ValidationError, parse_session, print_session

U = "universe a b c\nagent A = [{a} {a b}]\nagent B = [{b} {b c}]\n"

CASES = [
    # lexer
    ("bad-character", U + "eval A @ B\n", "4:8: unexpected character '@'"),
    ("unicode-space-is-space", "universe\u3000a b\xa0@\n", "1:14: unexpected character '@'"),
    ("zero-width-space", "universe a\u200bb\n", "1:11: unexpected character '\\u200b'"),
    # the CLI reads text with universal newlines, so "\r" and "\r\n" end a line
    ("carriage-return-ends-a-line", "universe a b\ragent A = [{a} {a b}\r\n",
     "2:21: expected ']', found 'NEWLINE'"),
    ("trailing-space-counts", "universe a b\nagent A = [{a} {a b} \t\x0b\n",
     "2:24: expected ']', found 'NEWLINE'"),
    ("newline-after-comment", "universe a b\nagent A = [{a} # open\n",
     "2:22: expected '{', found 'NEWLINE'"),
    ("newline-in-set", "universe a b\nagent A = [{a} {a b\n",
     "2:20: expected object name, found 'NEWLINE'"),
    ("last-line-without-newline", U + "eval A odot", "4:12: expected expression, found 'NEWLINE'"),
    ("comment-only-script", "# nothing here\n\n", "script declares no universe"),
    ("empty-script", "", "script declares no universe"),
    # parser
    ("trailing-token", U + "eval A B\n", "4:8: unexpected trailing token 'B'"),
    ("trailing-symbol", "universe a b\nagent A = [{a} {a b}] ]\n",
     "2:23: unexpected trailing token ']'"),
    ("statement-starts-with-symbol", U + "( eval A\n", "4:1: expected statement keyword, found '('"),
    ("unknown-statement", U + "frobnicate A\n", "4:1: unknown statement keyword 'frobnicate'"),
    ("keyword-as-name", U + "eval A odot let\n", "4:13: keyword 'let' cannot be used as a name"),
    ("missing-operand", U + "eval A odot\n", "4:12: expected expression, found 'NEWLINE'"),
    ("nary-unclosed", U + "eval odot(A, B\n", "4:15: expected ')', found 'NEWLINE'"),
    ("paren-unclosed", U + "eval ((A odot B) union A\n", "4:25: expected ')', found 'NEWLINE'"),
    ("empty-parens", U + "eval (A odot ()) union B\n", "4:15: expected expression, found ')'"),
    ("expect-missing-target", U + "expect A\n", "4:9: expected '=', found 'NEWLINE'"),
    ("strong-missing-object", U + "strong a\n", "4:9: expected object name, found 'NEWLINE'"),
    ("dominance-missing-arrow", U + "dominance a b\n", "4:13: expected '>', found 'b'"),
    # a relation line cut short at the end of the text, in a run or alone
    ("truncated-last-relation-line", U + "strong a b\nstrong a",
     "5:9: expected object name, found 'NEWLINE'"),
    ("truncated-last-relation-line-with-newline", U + "strong a b\nstrong a\n",
     "5:9: expected object name, found 'NEWLINE'"),
    ("truncated-last-dominance-line", U + "dominance a > b\ndominance b >",
     "5:14: expected object name, found 'NEWLINE'"),
    ("relation-keyword-alone-at-end", U + "weak", "4:5: expected object name, found 'NEWLINE'"),
    ("unknown-policy", U + "policy bogus\n", "4:8: unknown policy 'bogus'"),
    # statements
    ("statement-before-universe", "agent A = [{} {}]\nuniverse a\n",
     "line 1: the universe must be declared first"),
    ("duplicate-universe", "universe a\nuniverse b\n", "line 2: duplicate universe declaration"),
    ("empty-universe", "universe\n", "line 1: universe must contain at least one object"),
    ("duplicate-object", "universe a b a\n", "line 1: duplicate object name: 'a'"),
    ("unknown-name-deep", U + "let X = (A odot not (B union odot(A, not (B minus Z), A)))\n",
     "line 4: unknown name 'Z'"),
    ("first-unknown-name-wins", U + "eval odot(A, Q) union (not Z)\n", "line 4: unknown name 'Q'"),
    ("duplicate-let", U + "let X = A\nlet X = B\n", "line 5: duplicate name 'X'"),
    ("line-after-blank-lines", "universe a\n\n  \n# note\nagent A = [{} {}]\nlet A = A\n",
     "line 6: duplicate name 'A'"),
    ("duplicate-beats-unknown-name", U + "let A = Z\n", "line 4: duplicate name 'A'"),
    ("keyword-binding", U + "let not = A\n", "line 4: keyword 'not' cannot be bound"),
    ("keyword-agent", "universe a\nagent odot = [{} {}]\n", "line 2: keyword 'odot' cannot be bound"),
    ("agent-not-double", "universe a b\nagent A = [{a b} {a}]\n",
     "line 2: agent A: necessity {a b} not contained in admissibility {a}"),
    ("agent-unknown-object", "universe a b\nagent A = [{a} {a z}]\n",
     "line 2: agent A: object not in universe: 'z'"),
    ("expect-unknown-object", U + "expect A = [{z} {z}]\n", "line 4: object not in universe: 'z'"),
    ("expect-not-double", U + "expect A = [{a} {}]\n",
     "line 4: necessity {a} not contained in admissibility {}"),
    ("duplicate-policy", U + "policy strict\npolicy strict\n", "line 5: duplicate policy declaration"),
    # relations and ranking
    ("strong-unknown-object", U + "strong a z\n", "line 4: object 'z' not in universe"),
    ("weak-unknown-object", U + "weak z a\n", "line 4: object 'z' not in universe"),
    ("dominance-unknown-object", U + "dominance a > z\n", "line 4: object 'z' not in universe"),
    ("strong-reflexive", U + "strong a a\n", "contradiction pair may not be reflexive: (a, a)"),
    ("weak-reflexive", U + "weak b b\n", "contradiction pair may not be reflexive: (b, b)"),
    ("dominance-reflexive", U + "dominance a > a\n", "(a, a) is reflexive"),
    ("overlapping-kinds", U + "strong a c\nweak c a\n",
     "pair (a, c) declared both strongly and weakly contradictory"),
    ("dominance-both-directions", U + "dominance a > b\ndominance b > a\n",
     "(a, b) declared in both directions"),
    ("dominance-not-transitive", U + "dominance a > b\ndominance b > c\n",
     "missing transitive pair (a, c)"),
    ("ranking-ties", U + "policy agent-priority A > B > A\n", "line 4: priority ranking contains ties"),
    ("ranking-undeclared", U + "policy agent-priority A > B > C\n",
     "line 4: ranking names undeclared agents: ['C']"),
    ("ranking-uncovered", U + "policy agent-priority A\n",
     "line 4: ranking does not cover agents: ['B']"),
    # which of two errors wins
    ("strong-checked-before-weak", U + "weak q a\nstrong a z\n", "line 5: object 'z' not in universe"),
    ("weak-checked-before-dominance", U + "dominance q > a\nweak a z\n",
     "line 5: object 'z' not in universe"),
    ("lowest-reflexive-pair-wins", U + "strong c c\nstrong a a\n",
     "contradiction pair may not be reflexive: (a, a)"),
    ("strong-reflexive-before-weak", U + "weak a a\nstrong c c\n",
     "contradiction pair may not be reflexive: (c, c)"),
    ("lowest-reflexive-dominance-wins", U + "dominance c > c\ndominance b > b\n",
     "(b, b) is reflexive"),
    ("ties-beat-undeclared", U + "policy agent-priority C > C\n",
     "line 4: priority ranking contains ties"),
    ("parse-error-beats-unknown-object", U + "strong a z\neval (A\n",
     "5:8: expected ')', found 'NEWLINE'"),
    ("unknown-object-beats-ranking", U + "policy agent-priority A\nstrong a z\n",
     "line 5: object 'z' not in universe"),
    ("ranking-beats-reflexive", U + "strong a a\npolicy agent-priority A\n",
     "line 5: ranking does not cover agents: ['B']"),
    ("unknown-name-beats-later-parse-error", U + "eval Z\neval (\n", "line 4: unknown name 'Z'"),
]


@pytest.mark.parametrize("text,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_error_line(tmp_path, text, message):
    path = tmp_path / "script.ns"
    path.write_bytes(text.encode("utf-8"))
    for command in ("eval", "check"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("window", [0, 5, 17, 64])
def test_error_line_does_not_depend_on_the_window(tmp_path, monkeypatch, window):
    """The parser reads a few lines at a time and reports every error at a
    token's index in the whole text, so each case gives the same error line
    whatever the window size: with 0, every line is a window of its own."""
    monkeypatch.setattr(session, "_WINDOW", window)
    path = tmp_path / "script.ns"
    for name, text, message in CASES:
        path.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval", str(path)])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n"), name


def test_carriage_return_inside_a_line_is_space():
    # only parse_session sees a "\r" that is not a line break
    for text, message in [
        ("universe a\rb @\n", "1:14: unexpected character '@'"),
        ("universe a b\nagent A = [{a} {a b}\r\n", "2:22: expected ']', found 'NEWLINE'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_session(text)
        assert str(info.value) == message


# Fragments that make up most valid scripts, so that random text often parses.
_FRAGMENTS = [
    "universe a b c\n", "agent A = [{a} {a b}]\n", "agent B = [{} {b c}]\n",
    "strong a c\n", "weak b c\n", "dominance a > b\n", "policy dominance\n",
    "policy agent-priority A > B\n", "let X = ", "eval ", "assert_disc ", "expect ",
    "A", "B", "X", " odot ", " oplus ", " union ", " inter ", " minus ", "not ",
    "(", ")", "odot(", ", ", "[{a} {a b}]", " = ", "\n", "# note\n", "{", "}", "a", " ",
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_FRAGMENTS)).map("".join)))
def test_any_text_parses_or_raises_and_round_trips(text):
    try:
        script = parse_session(text)
    except (ParseError, ValidationError):
        return
    assert parse_session(print_session(script)) == script


# A ParseError that names what it found: the quoted text is the last thing
# in the message, or comes right after "keyword".
_NAMED = re.compile(r"(character|found|token|keyword|policy) ('.*'|\".*\")(?: cannot be used as a name)?$")
_TOKEN_AT = re.compile(r"[()\[\]{},=>]|[\w.-]+")


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(alphabet="ab AB{}[]()=>,#\n\t\r\u00e9@'"),
    st.lists(st.sampled_from(_FRAGMENTS + ["#c", "@", "\u00e9"])).map("".join),
    st.lists(st.sampled_from(_FRAGMENTS + ["#c"])).map(lambda parts: U + "".join(parts)),
))
def test_error_position_points_at_the_named_token(text):
    """A parse error's line:col, worked out only when it is raised, is at the
    token its message names; a line end is just past the line as written,
    comment included."""
    try:
        parse_session(text)
    except ParseError as exc:
        error = exc
    except ValidationError:
        return
    else:
        return
    match = _NAMED.search(error.reason)
    assert match, error.reason
    kind, named = match.group(1), ast.literal_eval(match.group(2))
    line = text.split("\n")[error.line - 1]
    rest = line[error.col - 1:]
    if kind == "character":
        assert rest[:1] == named
    elif rest:
        assert _TOKEN_AT.match(rest).group() == named
    else:
        assert (named, error.col) == ("NEWLINE", len(line) + 1)


# Lines that fail validation: unknown objects in relation lines and runs, names
# declared twice, and rankings that add an agent, miss one or repeat one.
_INVALID = [
    "strong a z\n", "weak z b  # pair\n", "dominance a > z\n", "strong a b\nstrong b c\nstrong z c\n",
    "dominance c > a\ndominance c > z\n", "universe a\n", "agent A = [{} {}]\n",
    "let A = B\n", "eval A odot Y\n", "policy agent-priority A > B > Q\n",
    "policy agent-priority B # only\n", "policy agent-priority A > A\n",
]
_LINES = ["strong a c\n", "weak b c\n", "dominance a > b\n", "policy dominance\n", "\n", "# note\n",
          "let X = A oplus B\n", "eval X\n", *_INVALID]  # after U
_QUOTED = re.compile(r"'([^']*)'")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_LINES), max_size=8).map(lambda lines: U + "".join(lines)),
    st.lists(st.sampled_from(_FRAGMENTS + _INVALID)).map(lambda parts: U + "".join(parts)),
    st.lists(st.sampled_from(_FRAGMENTS + _INVALID)).map("".join),
))
def test_validation_line_is_the_statement_it_names(text):
    """A validation error's line, worked out only when it is raised, is the
    statement it is about: once its comment is removed, the line starts with
    a statement keyword and holds every name the message quotes."""
    try:
        parse_session(text)
    except ValidationError as exc:
        error = exc
    except ParseError:
        return
    else:
        return
    if error.line is None:
        return
    message = str(error).split(": ", 1)[1]
    words = _TOKEN_AT.findall(text.split("\n")[error.line - 1].split("#")[0])
    if message != "the universe must be declared first":
        assert words[0] in _STATEMENTS, (message, words)
    if "does not cover" not in message:
        for name in _QUOTED.findall(message):
            assert name in words, (message, words)
