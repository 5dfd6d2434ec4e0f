import io
import json
from pathlib import Path

import pytest

from negset import cli

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

    @pytest.mark.parametrize("text,code,message", [
        (None, 4, "error: [Errno 2] No such file or directory"),
        ("universe a\nagent A = [{a} {}]\n", 2, "error: line 2: agent A:"),
        ("universe a\nagent A = [{a}\n", 2, "error: 2:15: expected '{'"),
    ])
    def test_load_errors_match_eval(self, tmp_path, text, code, message):
        path = tmp_path / "script.ns"
        if text is not None:
            path.write_text(text)
        for command in ("eval", "check"):
            got, out, err = run([command, str(path)])
            assert (got, out) == (code, "")
            assert err.startswith(message)


class TestSpecBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        import negset.consistency
        import negset.session

        calls = []
        original = negset.consistency.make_contradiction_spec

        def counting(universe, *relations, **named):
            calls.append(any(relations) or any(named.values()))
            return original(universe, *relations, **named)

        for module in (negset.consistency, negset.session, cli):
            monkeypatch.setattr(module, "make_contradiction_spec", counting)
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
        code, _, err = run(["laws", "--law", "bogus"])
        assert code == 4
        assert "bogus" in err

    def test_size_above_old_cap_accepted(self):
        code, _, _ = run(["laws", "--law", "idempotence-odot", "--size", "7"])
        assert code == 0

    @pytest.mark.parametrize("size", ["-1", "0", "13"])
    def test_size_out_of_range_rejected(self, size):
        code, out, err = run(["laws", "--law", "idempotence-odot", "--size", size])
        assert code == 4
        assert out == ""
        assert err == f"error: universe size {size} out of range 1..12\n"

    def test_size_at_default_universe_accepted(self):
        code, _, _ = run(["laws", "--law", "idempotence-odot", "--size", "12"])
        assert code == 0

    def test_limit_flag(self):
        code, out, _ = run(["laws", "--law", "absorption-odot-oplus", "--size", "2",
                            "--limit", "1"])
        assert code == 0
        assert out.count("counterexample:") == 1

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
        code, _, err = run(["fixtures", "--fixture", "bogus"])
        assert code == 4
        assert "bogus" in err

    def test_json(self):
        code, out, _ = run(["fixtures", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert all(f["passed"] for f in doc["fixtures"])
