import codecs
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from negset import cli
from negset.consistency import disc_violations
from negset.session import eval_bindings, format_negset, parse_session
from test_session import binding_script, sparse_and_dense

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def run(argv):
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    @pytest.mark.parametrize("name,code", [
        ("trip.ns", 0),
        ("demorgan.ns", 0),
        ("disc_dominance.ns", 0),
        ("disc_priority.ns", 0),
        ("nary.ns", 0),
        ("weak_demo.ns", 0),
        ("failing_expect.ns", 1),
        ("disc_fail_strict.ns", 3),
        ("disc_fewest.ns", 3),
        ("check_demo.ns", 3),
    ])
    def test_exit_codes(self, name, code):
        got, _, _ = run(["eval", str(SESSIONS / name)])
        assert got == code

    def test_trip_output(self):
        code, out, _ = run(["eval", str(SESSIONS / "trip.ns")])
        assert code == 0
        assert "[{a} {a b d f g h i k l}]" in out

    def test_strict_conflict_names_the_pair(self):
        code, out, _ = run(["eval", str(SESSIONS / "disc_fail_strict.ns")])
        assert code == 3
        assert "(a, b)" in out

    def test_json_output(self):
        code, out, _ = run(["eval", "--json", str(SESSIONS / "trip.ns")])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["statements"][0]["value"]["necessity"] == ["a"]

    def test_text_and_json_carry_same_values(self):
        _, text, _ = run(["eval", str(SESSIONS / "nary.ns")])
        _, raw, _ = run(["eval", "--json", str(SESSIONS / "nary.ns")])
        doc = json.loads(raw)
        for entry in doc["statements"]:
            if entry["value"] is not None:
                nec = "{" + " ".join(entry["value"]["necessity"]) + "}"
                adm = "{" + " ".join(entry["value"]["admissibility"]) + "}"
                assert f"[{nec} {adm}]" in text

    def test_missing_file(self):
        code, _, err = run(["eval", "/no/such/file.ns"])
        assert code == 4
        assert "error" in err

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ns"
        bad.write_text("universe a\nagent A = [{a} {}]\n")
        code, _, err = run(["eval", str(bad)])
        assert code == 2
        assert "line 2" in err


class TestCheck:
    def test_all_disc(self):
        code, out, _ = run(["check", str(SESSIONS / "trip.ns")])
        assert code == 0
        assert "S1" in out and "NOT DISC" not in out

    def test_raw_odot_flagged(self):
        code, out, _ = run(["check", str(SESSIONS / "check_demo.ns")])
        assert code == 1
        assert "R = [{} {a b}]: NOT DISC [strong-in-admissibility (a, b)]" in out

    def test_weak_with_necessity_flagged(self, tmp_path):
        script = tmp_path / "weak.ns"
        script.write_text("universe x y\nagent A = [{x} {x y}]\nweak x y\n")
        code, out, _ = run(["check", str(script)])
        assert code == 1
        assert "weak-with-necessity" in out

    def test_json(self):
        code, out, _ = run(["check", "--json", str(SESSIONS / "check_demo.ns")])
        assert code == 1
        doc = json.loads(out)
        flagged = [s for s in doc["sets"] if not s["disc"]]
        assert [s["name"] for s in flagged] == ["R"]
        assert flagged[0]["violations"] == [
            {"kind": "strong-in-admissibility", "pair": ["a", "b"]}
        ]


    def test_one_evaluator_per_run(self, tmp_path, monkeypatch):
        import negset.session

        built = []

        class Counting(negset.session._Evaluator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(negset.session, "_Evaluator", Counting)
        lets = "".join(f"let L{i} = A odot B\n" for i in range(30))
        script = tmp_path / "lets.ns"
        script.write_text("universe a b\nagent A = [{a} {a}]\nagent B = [{b} {b}]\n" + lets)
        code, out, _ = run(["check", str(script)])
        assert code == 0
        assert out.count(": DISC") == 32
        assert len(built) == 1

    DIRECTORY = object()  # the path names a directory

    @pytest.mark.parametrize("text,code,message", [
        (None, 4, "error: [Errno 2] No such file or directory"),
        (DIRECTORY, 4, "error: [Errno 21] Is a directory"),
        ("universe a\nagent A = [{a} {}]\n", 2, "error: line 2: agent A:"),
        ("universe a\nagent A = [{a}\n", 2, "error: 2:15: expected '{'"),
        (b"universe a\xff b\n", 2,
         "error: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ])
    def test_load_errors_match_eval(self, tmp_path, text, code, message):
        path = tmp_path / "script.ns"
        if text is self.DIRECTORY:
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        for command in ("eval", "check"):
            got, out, err = run([command, str(path)])
            assert (got, out) == (code, "")
            assert err.startswith(message)


class TestByteOrderMark:
    """A script saved with a leading UTF-8 byte-order mark, as some editors
    write it, reads as the same script; a mark anywhere else is a stray
    character."""

    @pytest.mark.parametrize("argv", [["eval"], ["eval", "--json"], ["check"], ["check", "--json"]])
    def test_marked_copy_runs_as_the_plain_file(self, tmp_path, argv):
        path = tmp_path / "trip.ns"
        path.write_bytes(codecs.BOM_UTF8 + (SESSIONS / "trip.ns").read_bytes())
        assert run([*argv, str(path)]) == run([*argv, str(SESSIONS / "trip.ns")])

    @pytest.mark.parametrize("text,message", [
        ("universe a b\n\ufeffagent A = [{a} {a}]\n", "2:1: unexpected character '\\ufeff'"),
        ("universe a\ufeff b\n", "1:11: unexpected character '\\ufeff'"),
        ("\ufeffuniverse a\n", "1:1: unexpected character '\\ufeff'"),
    ], ids=["line-start", "inside-a-line", "second-mark"])
    def test_a_later_mark_is_a_stray_character(self, tmp_path, text, message):
        path = tmp_path / "script.ns"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        for command in ("eval", "check"):
            assert run([command, str(path)]) == (2, "", f"error: {message}\n")


class TestCheckJson:
    """``check --json`` writes the text ``json.dumps(indent=2)`` gives for its document."""

    @staticmethod
    def dumped(path):
        script = parse_session(Path(path).read_text(encoding="utf-8"))
        entries = [(name, value, disc_violations(value, script.spec))
                   for name, value in eval_bindings(script)]
        doc = {
            "universe": list(script.universe.objects),
            "sets": [
                {
                    "name": name,
                    "value": {
                        "necessity": list(value.necessity.names()),
                        "admissibility": list(value.admissibility.names()),
                    },
                    "disc": not violations,
                    "violations": [{"kind": v.kind, "pair": list(v.pair)} for v in violations],
                }
                for name, value, violations in entries
            ],
            "ok": not any(violations for _, _, violations in entries),
        }
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(p.name for p in SESSIONS.glob("*.ns")))
    def test_every_example_session(self, name):
        _, out, _ = run(["check", "--json", str(SESSIONS / name)])
        assert out == self.dumped(SESSIONS / name)

    def test_non_ascii_names(self, tmp_path):
        path = tmp_path / "names.ns"
        path.write_text(
            "universe \u00e9 b \u4e2d\nagent \u00c9 = [{\u00e9} {\u00e9 \u4e2d b}]\n"
            "agent B = [{b} {b}]\nstrong \u00e9 b\nlet S = \u00c9 union B\n",
            encoding="utf-8",
        )
        code, out, _ = run(["check", "--json", str(path)])
        assert code == 1
        assert out == self.dumped(path)
        assert '"\\u00e9"' in out and '"\\u00c9"' in out


class TestCheckRenderTable:
    """``check`` and ``check --json`` write each distinct (nec, adm) pair once per
    run, and what they write is what ``format_negset`` and ``json.dumps`` give."""

    @staticmethod
    def checked(tmp_path, names, sets):
        path = tmp_path / "bindings.ns"
        path.write_text(binding_script(names, sets), encoding="utf-8")
        script = parse_session(path.read_text(encoding="utf-8"))
        text = "".join(f"{name} = {format_negset(value)}: DISC\n" for name, value
                       in eval_bindings(script))
        assert run(["check", str(path)]) == (0, text, "")
        assert run(["check", "--json", str(path)]) == (0, TestCheckJson.dumped(path), "")
        return text

    def test_one_necessity_with_several_admissibilities(self, tmp_path):
        sets = [(0b001, 0b001), (0b001, 0b011), (0b001, 0b111), (0b001, 0b101), (0, 0b001)]
        text = self.checked(tmp_path, ["a", "b", "c"], sets)
        assert "L1 = [{a} {a b}]: DISC" in text and "L2 = [{a} {a b c}]: DISC" in text

    def test_same_masks_over_two_universes(self, tmp_path):
        sets = [(0b01, 0b11), (0, 0b10), (0b11, 0b11)]
        first = self.checked(tmp_path, ["a", "b"], sets)
        assert self.checked(tmp_path, ["x", "y", "z"], sets) != first
        assert self.checked(tmp_path, ["a", "b"], sets) == first

    @pytest.mark.parametrize("size", [1, 64, 200])
    def test_sparse_and_dense_masks(self, tmp_path, size):
        self.checked(tmp_path, *sparse_and_dense(size))


class TestSpecBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        # every spec is built by consistency._build_spec: the parser calls it
        # directly and make_contradiction_spec after looking up the names
        import negset.consistency
        import negset.session

        calls = []
        original = negset.consistency._build_spec

        def counting(universe, *relations):
            relations = [list(pairs) for pairs in relations]
            calls.append(any(relations))
            return original(universe, *relations)

        for module in (negset.consistency, negset.session):
            monkeypatch.setattr(module, "_build_spec", counting)
        return calls

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_eval_builds_spec_once(self, builds, flags):
        code, _, _ = run(["eval", *flags, str(SESSIONS / "disc_dominance.ns")])
        assert code == 0
        assert builds == [True]

    def test_check_builds_relations_once(self, builds):
        # the second build is the relation-free spec for ungated evaluation
        run(["check", str(SESSIONS / "check_demo.ns")])
        assert sorted(builds) == [False, True]


class TestLaws:
    def test_single_law_holds(self):
        code, out, _ = run(["laws", "--law", "associativity-oplus", "--size", "3"])
        assert code == 0
        assert "holds-everywhere" in out

    def test_refuted_law_expected(self):
        code, out, _ = run(["laws", "--law", "absorption-odot-oplus", "--size", "2"])
        assert code == 0
        assert "counterexamples" in out

    def test_unknown_law(self):
        assert run(["laws", "--law", "bogus"]) == (4, "", "error: no such law: 'bogus'\n")

    def test_size_above_old_cap_accepted(self):
        code, _, _ = run(["laws", "--law", "idempotence-odot", "--size", "5"])
        assert code == 0

    @pytest.mark.parametrize("size", ["-1", "0", "6", "13"])
    def test_size_out_of_range_rejected(self, size):
        code, out, err = run(["laws", "--law", "idempotence-odot", "--size", size])
        assert code == 4
        assert out == ""
        assert err == f"error: universe size {size} out of range 1..5\n"

    def test_size_at_default_universe_accepted(self):
        # the default universe of size 5 holds every object a sweep names
        code, out, _ = run(["laws", "--law", "commutativity-odot", "--size", "5", "--json"])
        assert code == 0
        report, = json.loads(out)["laws"]
        assert (report["size"], report["checked"]) == (5, 243 ** 2)

    def test_limit_flag(self):
        code, out, _ = run(["laws", "--law", "absorption-odot-oplus", "--size", "2",
                            "--limit", "1"])
        assert code == 0
        assert out.count("counterexample:") == 1

    @pytest.mark.parametrize("which", [["--law", "absorption-odot-oplus"], ["--all"]])
    def test_negative_limit_rejected(self, which):
        # a negative limit once listed no counterexample and still exited 0
        code, out, err = run(["laws", *which, "--limit", "-1"])
        assert code == 4
        assert out == ""
        assert err == "error: counterexample limit -1 is negative\n"

    @pytest.mark.parametrize("which, listed", [
        (["--law", "absorption-odot-oplus"], 17), (["--all"], 17 + 200 + 104)])
    def test_limit_past_any_count_lists_every_violation(self, which, listed):
        # a limit past islice's range (sys.maxsize) once ended in an internal error, exit 70
        code, out, err = run(["laws", *which, "--limit", "99999999999999999999"])
        assert (code, err) == (0, "")
        assert out.count("\n  counterexample: ") == listed

    def test_limit_zero_counts_without_listing(self):
        code, out, _ = run(["laws", "--law", "absorption-odot-oplus", "--limit", "0"])
        assert code == 0
        assert "17 violations" in out and "counterexample:" not in out

    def test_all_at_a_size_past_the_cap_exits_before_any_table(self, monkeypatch):
        from negset import oracle

        def unbuilt(n):
            raise AssertionError(f"tables built for size {n}")

        monkeypatch.setattr(oracle, "_Tables", unbuilt)
        for size in (0, -1, *range(6, 13), 40):
            for which in (["--all"], ["--all", "--json"], ["--law", "idempotence-odot"]):
                assert run(["laws", *which, "--size", str(size)]) == (
                    4, "", f"error: universe size {size} out of range 1..5\n")

    def test_all_json_at_deciding_size(self):
        code, out, _ = run(["laws", "--all", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [r["size"] for r in doc["laws"]] == [2] * len(doc["laws"])

    def test_json(self):
        code, out, _ = run(["laws", "--json", "--law", "commutativity-odot", "--size", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["laws"][0]["verdict"] == "holds-everywhere"


class TestFixtures:
    def test_all(self):
        code, out, _ = run(["fixtures"])
        assert code == 0
        assert "FAIL" not in out
        assert "trip-oplus-chain" in out

    def test_single(self):
        code, out, _ = run(["fixtures", "--fixture", "disc-failure"])
        assert code == 0
        assert "pass" in out

    def test_unknown(self):
        # an empty id names no fixture, as "laws --law ''" names no law
        for fixture in ("bogus", ""):
            assert run(["fixtures", "--fixture", fixture]) == (
                4, "", f"error: no such fixture: {fixture!r}\n")

    def test_json(self):
        code, out, _ = run(["fixtures", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert all(f["passed"] for f in doc["fixtures"])


class TestOracleJson:
    """``laws --json`` and ``fixtures --json`` write the text ``json.dumps(indent=2)``
    gives for their documents, ``elapsed`` as json writes a float included."""

    @pytest.mark.parametrize("argv", [
        ["laws", "--all", "--json", "--size", "1"],
        ["laws", "--all", "--json", "--size", "2"],
        ["laws", "--all", "--json", "--size", "3"],
        ["laws", "--law", "distributivity-oplus-over-odot", "--json", "--limit", "0"],
        ["laws", "--law", "distributivity-oplus-over-odot", "--json", "--limit", "50"],
        ["fixtures", "--json"],
        ["fixtures", "--json", "--fixture", "trip-oplus-chain"],
    ])
    def test_text_is_the_json_dumps_text(self, argv):
        _, out, _ = run(argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_counterexamples_are_listed_up_to_the_limit(self):
        listed = {}
        for limit in ("0", "50"):
            _, out, _ = run(["laws", "--law", "distributivity-oplus-over-odot", "--json",
                             "--limit", limit])
            (report,) = json.loads(out)["laws"]
            listed[limit] = report["counterexamples"]
            assert isinstance(report["elapsed"], float)
        assert listed["0"] == [] and 0 < len(listed["50"]) <= 50

    def test_elapsed_is_within_the_wall_time_of_the_command(self):
        start = time.perf_counter()
        _, out, _ = run(["laws", "--all", "--json", "--size", "3"])
        wall = time.perf_counter() - start
        elapsed = [report["elapsed"] for report in json.loads(out)["laws"]]
        assert min(elapsed) >= 0 and sum(elapsed) <= wall  # the sweeps run one after another


class TestDeepChain:
    @pytest.fixture
    def script(self, tmp_path):
        chain = " odot ".join("AB"[i % 2] for i in range(3000))
        path = tmp_path / "chain.ns"
        path.write_text(
            "universe a b c\nagent A = [{a} {a b}]\nagent B = [{a c} {a c}]\n"
            f"let S = {chain}\neval {chain}\n"
        )
        return path

    def test_eval(self, script):
        code, out, err = run(["eval", str(script)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "let S = [{a} {a b c}]"
        assert lines[1].startswith("eval " + "(" * 2998 + "A odot B) odot A)")
        assert lines[1].endswith(") odot B = [{a} {a b c}]")

    def test_eval_json(self, script):
        code, out, _ = run(["eval", "--json", str(script)])
        assert code == 0
        values = [s["value"] for s in json.loads(out)["statements"]]
        assert values == [{"necessity": ["a"], "admissibility": ["a", "b", "c"]}] * 2

    def test_check(self, script):
        code, out, _ = run(["check", str(script)])
        assert code == 0
        assert out.splitlines()[-1] == "S = [{a} {a b c}]: DISC"


class TestDeepNesting:
    """A run of nots and nesting on the right, in the n-ary forms and under
    ``not`` are read, evaluated and printed at any depth."""

    HEAD = "universe a b c\nagent A = [{a} {a b}]\nagent B = [{a c} {a c}]\n"
    NOTS = "not " * 2001 + "A"

    def write(self, tmp_path, expr):
        path = tmp_path / "deep.ns"
        path.write_text(f"{self.HEAD}let S = {expr}\neval {expr}\n")
        return str(path)

    def test_not_run_eval(self, tmp_path):
        code, out, err = run(["eval", self.write(tmp_path, self.NOTS)])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["let S = [{c} {b c}]", f"eval {self.NOTS} = [{{c}} {{b c}}]"]

    def test_not_run_eval_json(self, tmp_path):
        code, out, _ = run(["eval", "--json", self.write(tmp_path, self.NOTS)])
        assert code == 0
        values = [s["value"] for s in json.loads(out)["statements"]]
        assert values == [{"necessity": ["c"], "admissibility": ["b", "c"]}] * 2

    def test_not_run_check(self, tmp_path):
        code, out, _ = run(["check", self.write(tmp_path, self.NOTS)])
        assert code == 0
        assert out.splitlines()[-1] == "S = [{c} {b c}]: DISC"

    DEPTH = 3 * sys.getrecursionlimit()

    @pytest.mark.parametrize("expr,nec,adm", [
        ("A odot (" * DEPTH + "B" + ")" * DEPTH, ["a"], ["a", "b", "c"]),
        ("odot(A, " * DEPTH + "B" + ")" * DEPTH, ["a"], ["a", "b", "c"]),
        ("not (" * DEPTH + "B" + ")" * DEPTH, ["a", "c"], ["a", "c"]),
    ], ids=["right", "nary", "not-paren"])
    @pytest.mark.parametrize("argv", [["eval"], ["eval", "--json"], ["check"]])
    def test_too_deep_is_one_error_line(self, tmp_path, expr, nec, adm, argv):
        # nesting far past the recursion limit is no error: every command succeeds
        code, out, err = run([*argv, self.write(tmp_path, expr)])
        assert (code, err) == (0, "")
        value = f"[{{{' '.join(nec)}}} {{{' '.join(adm)}}}]"
        if argv == ["eval"]:
            let, evaluated = out.splitlines()
            assert let == f"let S = {value}" and evaluated.endswith(f" = {value}")
        elif argv == ["check"]:
            assert out.splitlines()[-1] == f"S = {value}: DISC"
        else:
            values = [s["value"] for s in json.loads(out)["statements"]]
            assert values == [{"necessity": nec, "admissibility": adm}] * 2


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["eval", str(SESSIONS / "trip.ns")],
        ["eval", "--json", str(SESSIONS / "trip.ns")],
        ["check", str(SESSIONS / "trip.ns")],
        ["check", "--json", str(SESSIONS / "trip.ns")],
        ["laws", "--all"],
        ["laws", "--all", "--json"],
        ["fixtures"],
    ])
    def test_exits_141_without_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run([sys.executable, "-m", "negset.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestUnencodableStdout:
    @pytest.mark.parametrize("command", ["eval", "check"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_text_exits_4_and_json_escapes(self, tmp_path, command, as_json):
        path = tmp_path / "accent.ns"
        path.write_text("universe é b\nagent A = [{é} {é b}]\neval A\n", encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
        argv = [command, *(["--json"] if as_json else []), str(path)]
        proc = subprocess.run([sys.executable, "-m", "negset.cli", *argv], capture_output=True,
                              env=env, timeout=60)
        if as_json:
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert b'"\\u00e9"' in proc.stdout
        else:
            assert (proc.returncode, proc.stdout) == (4, b"")
            assert proc.stderr.startswith(b"error: 'ascii' codec can't encode character '\\xe9'")
            assert proc.stderr.count(b"\n") == 1


class TestInternalError:
    def test_unexpected_exception_is_one_line_and_exit_70(self, monkeypatch, capsys):
        def broken(argv=None):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "main", broken)
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 70
        assert capsys.readouterr() == ("", "internal error: ValueError: boom\n")


class TestParserReuse:
    def test_bad_argv_then_good_argv_in_one_process(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["eval"])  # no path: argparse exits with 2
        assert info.value.code == 2
        assert "the following arguments are required: path" in capsys.readouterr().err
        assert run(["eval", str(SESSIONS / "trip.ns")])[0] == 0
        assert run(["check", str(SESSIONS / "trip.ns")])[0] == 0
        assert cli.build_parser() is cli.build_parser()


# --- any edit of a working script ends in a documented exit code ---

SCRIPTS = sorted(p.read_text(encoding="utf-8") for p in SESSIONS.glob("*.ns"))
EDIT_CHARS = st.one_of(
    st.sampled_from(list("()[]{},=>#.-_ \n\t\rabé;@'")),
    st.characters(blacklist_categories=("Cs",)),  # UTF-8 has no lone surrogate
)


@st.composite
def edited_scripts(draw):
    """A sessions/*.ns script with one to four characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(SCRIPTS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(text) - (kind != "insert")))
        new = "" if kind == "delete" else draw(EDIT_CHARS)
        text = text[:at] + new + text[at + (kind != "insert"):]
    return text


@settings(max_examples=500, deadline=None)
@given(edited_scripts())
def test_edited_scripts_end_in_a_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "edited.ns"
    path.write_text(text, encoding="utf-8")
    for argv in (["eval"], ["eval", "--json"], ["check"], ["check", "--json"]):
        code, _, err = run([*argv, str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_FAILED_CHECKS, cli.EXIT_PARSE,
                        cli.EXIT_RESOLUTION, cli.EXIT_CONFIG), (argv, text)
        assert "Traceback" not in err
