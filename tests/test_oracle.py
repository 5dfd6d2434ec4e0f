import contextlib
import io
import json
import time
import tracemalloc
from collections import defaultdict
from functools import reduce
from itertools import combinations, permutations, product
from operator import eq, getitem, or_
from pathlib import Path

import pytest

import negset as ns
from negset import cli, core, oracle, session
from negset.consistency import WEAK_WITH_NECESSITY
from negset.core import complement_masks, odot_masks, oplus_masks
from negset.errors import (
    NegativeLimit, NegsetError, SizeOutOfRange, UnknownFixture, UnknownLaw)
from refimpl import as_pair, ref_complement, ref_odot, ref_oplus

GOLDEN_SIZE5 = Path(__file__).resolve().parent / "golden_laws_size5.json"
A, B, E, U = (0, 1), (0, 2), (0, 0), (3, 3)  # [{} {a}], [{} {b}], [∅ ∅] and [U U] at n = 2


class TestEnumeration:
    def test_size_one(self):
        u = ns.make_universe(["x"])
        sets = oracle.enumerate_negsets(u)
        assert [str(a) for a in sets] == ["[{} {}]", "[{} {x}]", "[{x} {x}]"]

    @pytest.mark.parametrize("n,count", [(1, 3), (2, 9), (3, 27), (4, 81)])
    def test_counts_are_three_to_the_n(self, n, count):
        u = oracle.default_universe(n)
        sets = oracle.enumerate_negsets(u)
        assert len(sets) == count
        assert len(set(sets)) == count

    def test_count_matches_subset_pair_enumeration(self):
        # independent route: count pairs (N, P) with N ⊆ P over explicit subsets
        n = 4
        universe = list(range(n))
        subsets = []
        for r in range(n + 1):
            subsets.extend(frozenset(c) for c in combinations(universe, r))
        pairs = sum(1 for p in subsets for q in subsets if q <= p)
        assert pairs == len(oracle.enumerate_negsets(oracle.default_universe(n)))

    def test_all_emitted_values_well_formed(self):
        for a in oracle.enumerate_negsets(oracle.default_universe(3)):
            assert a.necessity.issubset(a.admissibility)

    def test_cap(self):
        with pytest.raises(SizeOutOfRange):
            oracle.enumerate_negsets(ns.make_universe([f"o{i}" for i in range(13)]))

    def test_six_objects_are_over_the_cap(self):
        with pytest.raises(SizeOutOfRange, match=r"^universe size 6 out of range 1\.\.5$"):
            oracle.enumerate_negsets(ns.make_universe([f"o{i}" for i in range(6)]))
        assert len(oracle.enumerate_negsets(oracle.default_universe(5))) == 3 ** 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mask_pairs_are_numbered_by_admissibility_then_necessity(self, n):
        pairs = oracle.enumerate_mask_pairs(n)
        assert len(set(pairs)) == len(pairs) == 3 ** n
        assert all(nec & ~adm == 0 for nec, adm in pairs)
        assert pairs == sorted(pairs, key=lambda p: (p[1], p[0]))

    def test_mask_pairs_at_two_objects(self):
        assert oracle.enumerate_mask_pairs(2) == [
            (0, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)]

    def test_deterministic_order(self):
        u = oracle.default_universe(3)
        assert oracle.enumerate_negsets(u) == oracle.enumerate_negsets(u)


class TestCheckLaw:
    @pytest.mark.parametrize("law", [l for l in oracle.law_ids()
                                     if not oracle.LAWS[l].expects_counterexample])
    def test_proved_laws_hold(self, law):
        report = oracle.check_law(law, 3)
        assert report.verdict == oracle.HOLDS
        assert report.violation_count == 0
        assert report.matches_expected

    @pytest.mark.parametrize("law", [l for l in oracle.law_ids()
                                     if oracle.LAWS[l].expects_counterexample])
    def test_refuted_laws_fail(self, law):
        report = oracle.check_law(law, 3)
        assert report.verdict == oracle.COUNTEREXAMPLES
        assert report.violation_count > 0
        assert report.matches_expected

    def test_associativity_exhausts_all_triples(self):
        report = oracle.check_law("associativity-oplus", 3)
        assert report.checked == 27 ** 3
        assert report.verdict == oracle.HOLDS

    def test_absorption_counterexample_found_at_two(self):
        report = oracle.check_law("absorption-odot-oplus", 2)
        assert report.verdict == oracle.COUNTEREXAMPLES
        # the classic witness: two disjoint full points
        u = oracle.default_universe(2)
        a = ns.special(u, ns.SpecialKind.POINT_FULL, "a")
        b = ns.special(u, ns.SpecialKind.POINT_FULL, "b")
        assert ns.odot(a, ns.oplus(a, b)) != a

    def test_counterexamples_truncated_but_counted(self):
        report = oracle.check_law("absorption-odot-oplus", 2, limit=2)
        assert len(report.counterexamples) == 2
        assert report.violation_count == 17

    def test_counterexamples_reverify(self):
        report = oracle.check_law("distributivity-odot-over-oplus", 2, limit=3)
        u = oracle.default_universe(2)
        for example in report.counterexamples:
            sets = {}
            for chunk in example.split("] "):
                name, rest = chunk.split("=[", 1)
                nec_part, adm_part = rest.rstrip("]").split("} {")
                nec = nec_part.strip("{ ").split()
                adm = adm_part.strip("} ").split()
                sets[name.strip()] = ns.negset_of(u, nec, adm)
            a, b, c = sets["A"], sets["B"], sets["C"]
            assert ns.odot(a, ns.oplus(b, c)) != ns.oplus(ns.odot(a, b), ns.odot(a, c))

    def test_disc_sweep_full_labelings(self):
        report = oracle.check_law("disc-closure-oplus", 3)
        assert report.verdict == oracle.HOLDS
        report = oracle.check_law("disc-odot-weak-partial", 3)
        assert report.verdict == oracle.HOLDS

    def test_weak_pairs_alone_decide_weak_with_necessity(self):
        # the verdict of disc-odot-weak-partial: DISC under a labeling's weak
        # pairs alone is having no weak-with-necessity violation under it all;
        # and the DISC sets that both DISC laws read from masks found per pair:
        # DISC under a labeling is DISC under each labeled pair alone
        for n in (3, 4):
            u = oracle.default_universe(n)
            sets, pairs = oracle.enumerate_negsets(u), list(combinations(u.objects, 2))
            alone = {(p, kind): [ns.is_disc(a, ns.make_contradiction_spec(
                u, **{f"{kind}_pairs": [p]})) for a in sets]
                for p in pairs for kind in ("strong", "weak")}
            for labels in product((None, "strong", "weak"), repeat=len(pairs)):
                strong, weak = ([p for p, label in zip(pairs, labels) if label == kind]
                                for kind in ("strong", "weak"))
                spec = ns.make_contradiction_spec(u, strong, weak)
                weak_only = ns.make_contradiction_spec(u, (), weak)
                per_pair = [alone[p, label] for p, label in zip(pairs, labels) if label]
                for a, *each in zip(sets, *per_pair):
                    kinds = {v.kind for v in ns.disc_violations(a, spec)}
                    assert ns.is_disc(a, weak_only) is (WEAK_WITH_NECESSITY not in kinds)
                    assert ns.is_disc(a, spec) is (not kinds) is all(each)

    def test_disc_closure_fails_on_a_wrong_oplus(self):
        t = oracle._Tables(2)
        t.oplus = t.odot
        report = oracle.check_law("disc-closure-oplus", 2, tables=t, limit=3)
        assert (report.checked, report.violation_count) == (142, 8)
        assert report.counterexamples[0] == "A=[{} {a}] B=[{} {b}] strong=[(0, 1)] weak=[]"

    def test_disc_weak_judge_ignores_strong_labels(self):
        # every odot is [{a b} {a b}], which any labeled pair bars: the weak
        # labeling's 36 pairs fail; a judge that read strong labels would also
        # fail the strong labeling's 25, 61 in all
        t = oracle._Tables(2)
        top = t._number[(3, 3)]
        t.odot = [[top] * len(t.pairs) for _ in t.pairs]
        report = oracle.check_law("disc-odot-weak-partial", 2, tables=t, limit=3)
        assert (report.checked, report.violation_count) == (142, 36)
        assert report.counterexamples[0] == "A=[{} {}] B=[{} {}] strong=[] weak=[(0, 1)]"

    @pytest.mark.parametrize("n, violations", [(2, 8), (5, 80)])
    def test_point_lemmas_sweep_two_objects_per_row(self, n, violations, monkeypatch):
        # odot right whenever an operand is [∅ ∅], wrong on two non-empty ones:
        # every tuple must hold two non-empty points
        def odot_on_empty(nec, adm, nec2, adm2):
            return odot_masks(nec, adm, nec2, adm2) if not (adm and adm2) else (0, 0)

        monkeypatch.setattr(oracle, "odot_masks", odot_on_empty)
        report = oracle.check_law("point-lemmas", n, limit=0)
        assert report.checked == report.violation_count == violations

    def test_identity_lemmas_need_both_operators(self, monkeypatch):
        # oplus with [∅ ∅] gives the other operand: only [∅ ∅] itself holds
        def oplus_keeps(nec, adm, nec2, adm2):
            return (nec, adm) if (nec2, adm2) == (0, 0) else oplus_masks(nec, adm, nec2, adm2)

        monkeypatch.setattr(oracle, "oplus_masks", oplus_keeps)
        report = oracle.check_law("identity-lemmas", 2, limit=0)
        assert (report.checked, report.violation_count) == (9, 8)

    @pytest.mark.parametrize("law, table, value, violations", [
        ("bounds-upper", "odot", (3, 3), 171),   # A1 odot A2 = [U U], not within A1 ∪ A2
        ("bounds-upper", "union", (3, 3), 115),  # A1 ∪ A2 = [U U], not within most B
        ("bounds-lower", "oplus", (0, 0), 171),  # A1 oplus A2 = [∅ ∅], not above A1 ∩ A2
        ("bounds-lower", "inter", (0, 0), 115),  # A1 ∩ A2 = [∅ ∅], not above most B
    ])
    def test_bounds_laws_need_both_inclusions(self, law, table, value, violations):
        # each corruption breaks one inclusion of op(A1, A2) ⊑ bound(A1, A2) ⊑ B and
        # keeps the other, so a law that accepted either inclusion alone would hold
        t = oracle._Tables(2)
        setattr(t, table, [[t._number[value]] * len(t.pairs) for _ in t.pairs])
        report = oracle.check_law(law, 2, tables=t, limit=0)
        assert (report.checked, report.violation_count) == (729, violations)

    @pytest.mark.parametrize("law, target, at, value, violations", [
        ("commutativity-odot", "odot", (A, B), U, 2),
        ("commutativity-oplus", "oplus", (A, B), U, 2),
        ("associativity-odot", "odot", (A, B), U, 20),
        ("associativity-oplus", "oplus", (A, B), U, 14),
        ("absorption-oplus-odot", "odot", (A, B), U, 1),
        ("demorgan-weak-1", "complement", (E,), E, 8),
        ("demorgan-weak-2", "odot", (E, E), U, 1),
        ("demorgan-weak-3", "oplus", (E, E), U, 1),
        ("demorgan-weak-4", "complement", (A,), E, 4),
        ("idempotence-odot", "odot_masks", A, U, 1),
        ("idempotence-oplus", "oplus_masks", A, U, 1),
        ("complement-involution", "complement_masks", A, U, 2),  # at A and at its complement
    ])
    def test_each_holding_law_fails_on_one_wrong_value(self, law, target, at, value,
                                                       violations, monkeypatch):
        # one table entry, or a mask operator on one operand set, is ``value``: the
        # law's sweep must see it, so a sweep that could not fail would fail here
        t = oracle._Tables(2)
        if target.endswith("_masks"):  # the one-set laws call the operator itself
            real = getattr(oracle, target)
            monkeypatch.setattr(oracle, target,
                                lambda *args: value if args[-2:] == at else real(*args))
        else:
            *row, k = map(t._number.__getitem__, at)
            table = [list(r) for r in getattr(t, target)] if row else list(t.complement)
            (table[row[0]] if row else table)[k] = t._number[value]
            setattr(t, target, table)
        report = oracle.check_law(law, 2, tables=t, limit=0)
        assert report.violation_count == violations

    @pytest.mark.parametrize("n, at, value, violations", [
        (2, (7, 1), 8, {"odot": 13, "oplus": 11}),
        (3, (20, 4), 26, {"odot": 69, "oplus": 28}),
    ])
    @pytest.mark.parametrize("op", ["odot", "oplus"])
    def test_fold_law_fails_on_one_wrong_table_value(self, op, n, at, value, violations):
        # table[i][j] is set ``value``: every family of one to three sets whose left fold
        # through that table differs from core's fold of its masks is a violation.  A row
        # shared by prefixes with the same accumulator alone, or the same fold alone,
        # would miss some (at n = 2, 8 of 13 for odot and 4 of 11 for oplus)
        t = oracle._Tables(n)
        table = [list(r) for r in getattr(t, op)]
        table[at[0]][at[1]] = value
        setattr(t, op, table)
        report = oracle.check_law(f"fold-agreement-{op}", n, tables=t, limit=1)
        step, pairs = getattr(core, f"{op}_masks"), t.pairs
        fmt = oracle.default_universe(n).format_masks
        wrong = [f for k in (1, 2, 3) for f in product(range(len(pairs)), repeat=k)
                 if pairs[reduce(lambda x, y: table[x][y], f)]
                 != reduce(lambda acc, a: step(*acc, *a), [pairs[i] for i in f])]
        assert report.violation_count == len(wrong) == violations[op]
        assert report.counterexamples == (" ".join(fmt(*pairs[i]) for i in wrong[0]),)

    def test_elapsed_is_within_the_wall_time_of_the_call(self):
        start = time.perf_counter()
        report = oracle.check_law("associativity-odot", 3)
        assert 0 <= report.elapsed <= time.perf_counter() - start

    def test_size_over_old_cap_accepted(self):
        assert oracle.check_law("idempotence-odot", 5).verdict == oracle.HOLDS
        assert oracle.check_law("commutativity-odot", 5).checked == 243 ** 2
        oracle.check_law("fold-agreement-odot", 3)

    @pytest.mark.parametrize("law", oracle.law_ids())
    def test_size_six_is_rejected(self, law, monkeypatch):
        def unbuilt(n):
            raise AssertionError(f"tables built for size {n}")

        monkeypatch.setattr(oracle, "_Tables", unbuilt)
        with pytest.raises(SizeOutOfRange, match=r"^universe size 6 out of range 1\.\.5$"):
            oracle.check_law(law, 6)

    def test_limit_is_keyword_only(self):
        # a stale call passing a spec third must not be read as a limit
        with pytest.raises(TypeError):
            oracle.check_law("absorption-odot-oplus", 2, 5)

    @pytest.mark.parametrize("law", oracle.law_ids())
    def test_default_size_decides(self, law):
        report = oracle.check_law(law)
        assert report.size == 2
        assert report.verdict == oracle.check_law(law, 3).verdict
        assert report.matches_expected

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            oracle.check_law("no-such-law", 2)

    @pytest.mark.parametrize("tables", [None, oracle._Tables(2)])
    def test_negative_limit_rejected(self, tables):
        # it once reported 17 violations and listed none
        with pytest.raises(NegativeLimit) as info:
            oracle.check_law("absorption-odot-oplus", 2, limit=-1, tables=tables)
        assert isinstance(info.value, NegsetError)
        assert str(info.value) == "counterexample limit -1 is negative"

    def test_limit_zero_counts_without_listing(self):
        report = oracle.check_law("absorption-odot-oplus", 2, limit=0)
        assert (report.counterexamples, report.violation_count) == ((), 17)

    def test_reports_deterministic(self):
        a = oracle.check_law("absorption-odot-oplus", 2)
        b = oracle.check_law("absorption-odot-oplus", 2)
        assert (a.checked, a.counterexamples, a.violation_count) == (
            b.checked, b.counterexamples, b.violation_count
        )


class TestMaskOperators:
    def test_agree_with_core(self):
        # the mask arithmetic that core and the sweeps share, against the
        # frozenset reference, on every pair at n = 3
        u = oracle.default_universe(3)
        full = frozenset(u.objects)
        sets = oracle.enumerate_negsets(u)

        def masks(a):
            return a.necessity.mask, a.admissibility.mask

        def names(nec, adm):
            return frozenset(u.names_of(nec)), frozenset(u.names_of(adm))

        for a in sets:
            pa = as_pair(a)
            assert names(*complement_masks(u.full_mask, *masks(a))) == ref_complement(full, pa)
            for b in sets:
                pb = as_pair(b)
                assert names(*odot_masks(*masks(a), *masks(b))) == ref_odot(pa, pb)
                assert names(*oplus_masks(*masks(a), *masks(b))) == ref_oplus(pa, pb)


class TestTables:
    """The operator tables that every sweep over two or more sets reads."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_are_core_mask_arithmetic(self, n):
        t = oracle._Tables(n)
        pairs = t.pairs
        assert pairs == oracle.enumerate_mask_pairs(n)
        for i, a in enumerate(pairs):
            assert pairs[t.complement[i]] == complement_masks((1 << n) - 1, *a)
            for j, b in enumerate(pairs):
                assert pairs[t.odot[i][j]] == odot_masks(*a, *b)
                assert pairs[t.oplus[i][j]] == oplus_masks(*a, *b)
                # the bounds laws' tables: componentwise union, intersection, inclusion
                assert pairs[t.union[i][j]] == (a[0] | b[0], a[1] | b[1])
                assert pairs[t.inter[i][j]] == (a[0] & b[0], a[1] & b[1])
                below = a[0] & ~b[0] == 0 and a[1] & ~b[1] == 0
                assert t.le[i][j] is t.ge[j][i] is below

    @pytest.mark.parametrize("law, odot_calls, oplus_calls, complement_calls", [
        ("idempotence-odot", 9, 0, 0),
        ("complement-involution", 0, 0, 18),
        ("commutativity-odot", 81, 0, 0),
        ("commutativity-oplus", 0, 81, 0),
        ("associativity-odot", 81, 0, 0),
        ("distributivity-odot-over-oplus", 81, 81, 0),
        ("demorgan-weak-1", 81, 81, 9),
        ("bounds-upper", 81, 0, 0),
        ("fold-agreement-oplus", 0, 81, 0),
    ])
    def test_one_mask_call_per_table_entry_and_per_call(
            self, law, odot_calls, oplus_calls, complement_calls, monkeypatch):
        # a one-set law calls the mask arithmetic per set and builds no table;
        # a law over more sets builds only the tables it reads, once per call
        calls = {"odot": 0, "oplus": 0, "complement": 0}
        for name in calls:
            def counted(*masks, _name=name, _op=getattr(oracle, f"{name}_masks")):
                calls[_name] += 1
                return _op(*masks)
            monkeypatch.setattr(oracle, f"{name}_masks", counted)
        for rounds in (1, 2):
            oracle.check_law(law, 2)
            assert calls == {"odot": rounds * odot_calls, "oplus": rounds * oplus_calls,
                             "complement": rounds * complement_calls}

    @staticmethod
    def count_mask_calls(monkeypatch):
        calls = {"odot": 0, "oplus": 0, "complement": 0}
        for name in calls:
            def counted(*masks, _name=name, _op=getattr(oracle, f"{name}_masks")):
                calls[_name] += 1
                return _op(*masks)
            monkeypatch.setattr(oracle, f"{name}_masks", counted)
        return calls

    def test_one_table_set_per_laws_command(self, monkeypatch):
        # with every table built beforehand, only the one-set laws and the point
        # lemmas call the mask arithmetic; a command adds one call per entry of
        # the odot, oplus and complement tables (9 sets at n = 2), and a second
        # command builds them again
        ready = oracle._Tables(2)
        for name in ("odot", "oplus", "complement", "union", "inter", "le", "ge"):
            getattr(ready, name)
        calls = self.count_mask_calls(monkeypatch)
        for law in oracle.law_ids():
            before = dict(calls)
            oracle.check_law(law, 2, tables=ready)
            if law not in ("idempotence-odot", "idempotence-oplus", "complement-involution",
                           "identity-lemmas", "point-lemmas"):
                assert calls == before, law
        sweeps = dict(calls)
        built = []
        monkeypatch.setattr(oracle, "_Tables", lambda n, _t=oracle._Tables: (
            built.append(n) or _t(n)))
        for rounds in (1, 2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["laws", "--all"]) == 0
            assert built == [2] * rounds
            assert calls == {"odot": (rounds + 1) * sweeps["odot"] + rounds * 81,
                             "oplus": (rounds + 1) * sweeps["oplus"] + rounds * 81,
                             "complement": (rounds + 1) * sweeps["complement"] + rounds * 9}

    def test_one_size_n_context_per_laws_command(self, monkeypatch):
        # a laws command builds at most one universe and, for both DISC laws together,
        # one spec per object pair and kind: 2·C(2, 2) = 2 at n = 2; a second command
        # builds its own, and a command without a DISC law builds no spec
        calls = {"default_universe": 0, "make_contradiction_spec": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(oracle, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(oracle, name, counted)
        for rounds in (1, 2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["laws", "--all", "--json"]) == 0
            assert calls == {"default_universe": rounds, "make_contradiction_spec": 2 * rounds}
        # a law that holds over one set needs no universe; one that shows counterexamples
        # builds it for their text
        for law, universes in (("idempotence-odot", 2), ("absorption-odot-oplus", 3)):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["laws", "--law", law]) == 0
            assert calls == {"default_universe": universes, "make_contradiction_spec": 4}

    @pytest.mark.parametrize("n, checked", [(1, 9), (2, 142), (3, 4796), (4, 392436),
                                            (5, 83275686)])
    def test_disc_laws_check_what_the_pair_masks_count(self, n, checked):
        # a DISC law checks |D_L|² pairs per labeling L, D_L the sets that no mask of
        # L's labeled pairs bars: the sum is counted from popcounts, without a sweep
        t = oracle._Tables(n)
        every = (1 << len(t.pairs)) - 1
        counted = sum((every & ~reduce(or_, map(getitem, t.disc_masks, labels), 0)).bit_count() ** 2
                      for labels in product(range(3), repeat=len(t.disc_masks)))
        disc_laws = ("disc-closure-oplus", "disc-odot-weak-partial")
        if n < 5:
            sweeps = [oracle.check_law(law, n, tables=t).checked for law in disc_laws]
        else:  # from the recorded size-5 report: the two sweeps take about 10 s
            golden = json.loads(GOLDEN_SIZE5.read_text(encoding="utf-8"))["doc"]["laws"]
            sweeps = [law["checked"] for law in golden if law["law"] in disc_laws]
        assert sweeps == [counted, counted] and counted == checked

    def test_check_law_without_tables_builds_its_own(self, monkeypatch):
        built = []
        monkeypatch.setattr(oracle, "_Tables", lambda n, _t=oracle._Tables: (
            built.append(n) or _t(n)))
        for law in ("associativity-odot", "associativity-odot", "fold-agreement-oplus"):
            oracle.check_law(law, 2)
        assert built == [2, 2, 2]

    def test_tables_of_another_size_are_not_read(self):
        report = oracle.check_law("commutativity-odot", 3, tables=oracle._Tables(2))
        own = oracle.check_law("commutativity-odot", 3)
        assert report._values()[:-1] == own._values()[:-1]  # all but elapsed
        assert report.checked == 27 ** 2

    def test_laws_over_one_set_build_no_square_table(self, monkeypatch):
        assert oracle.check_law("commutativity-odot", 1).verdict == oracle.HOLDS

        def unbuilt(self, op):
            raise AssertionError("an s×s table was built")

        monkeypatch.setattr(oracle._Tables, "_binary", unbuilt)
        for law in ("commutativity-odot", "fold-agreement-oplus", "disc-closure-oplus"):
            with pytest.raises(AssertionError, match="s×s table"):
                oracle.check_law(law, 2)
        for law in ("idempotence-odot", "complement-involution", "identity-lemmas",
                    "point-lemmas"):  # these read no s×s table
            assert oracle.check_law(law, 2).matches_expected

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("law", oracle.law_ids())
    def test_each_verdict_describes_its_own_tuple(self, law, n):
        # every position of every row names one tuple, none twice, and the
        # positions are what check_law counts; a row's two sides are bytes of one length
        rows, describe = oracle.LAWS[law].cases(n, oracle._Tables(n))
        texts = []
        for key, got, want in rows:
            assert type(got) is type(want) is bytes and len(got) == len(want)
            texts += [describe(key, k) for k in range(len(got))]
        assert len(set(texts)) == len(texts) == oracle.check_law(law, n).checked

    @pytest.mark.parametrize("law", ["associativity-odot", "fold-agreement-oplus",
                                     "disc-closure-oplus"])
    def test_a_sweep_holds_one_row_at_a_time(self, law):
        # 81 sets at n = 4: the verdicts would take over 2 MB as one list (the
        # sweeps over three sets check 81³ = 531,441, disc-closure-oplus
        # 392,436); a row (key, got, want) holds two byte strings of 81² bytes
        # at most, and the oplus fold law keeps its 4^4 + 1 distinct rows of 81
        oracle.check_law(law, 4, tables=oracle._Tables(4))  # import and warm up
        rows, _ = oracle.LAWS[law].cases(4, oracle._Tables(4))
        assert max(len(got) + len(want) for _, got, want in rows) <= 2 * 81 ** 2
        tracemalloc.start()
        try:
            report = oracle.check_law(law, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == oracle.HOLDS and report.checked * 8 > 2 << 20
        assert peak < 1 << 19

    @pytest.mark.parametrize("op, built", [("odot", 3 ** 3 + 1), ("oplus", 4 ** 3 + 1)])
    def test_fold_law_builds_one_row_per_fold_and_accumulator(self, op, built):
        # at n = 3 a fold law yields 1 + 27 + 27² rows, one per prefix; the prefixes that
        # share a fold and an accumulator share one row: the empty prefix's, and one per
        # odot accumulator (each names a set) or oplus accumulator (any two masks)
        rows, _ = oracle.LAWS[f"fold-agreement-{op}"].cases(3, oracle._Tables(3))
        rows = [(got, want) for _, got, want in rows]
        assert len(rows) == 1 + 27 + 27 ** 2
        assert len({id(got) for got, _ in rows}) == built
        assert {want for _, want in rows} == {b"\1" * 27}  # each verdict against a 1

    @pytest.mark.parametrize("op", ["odot", "oplus"])
    def test_n_ary_forms_equal_the_left_fold(self, op):
        # the library agreement that the fold laws decide from the definitions
        n_ary, binary = getattr(ns, f"{op}_all"), getattr(ns, op)
        sets = oracle.enumerate_negsets(oracle.default_universe(2))
        families = [f for k in (1, 2, 3) for f in product(sets, repeat=k)]
        assert len(families) == 9 + 81 + 729
        for family in families:
            assert n_ary(list(family)) == reduce(binary, family)

    @pytest.mark.parametrize("op, step", [
        # odot with the union of necessities
        ("odot", lambda acc, a: (acc[0] | a[0], acc[1] | a[1])),
        # oplus without the clip into the shared admissibility
        ("oplus", lambda acc, a: (acc[0] | a[0], acc[1] & a[1])),
    ])
    def test_fold_law_refutes_a_wrong_n_ary_form(self, op, step, monkeypatch):
        # a wrong accumulator step, finished as it stands
        def masks(a):
            return a.nec, a.adm

        def grow(acc, pairs):
            return [step(acc, a) for a in pairs]

        law_id = f"fold-agreement-{op}"
        monkeypatch.setitem(oracle.LAWS, law_id,
                            oracle.LawSpec(law_id, False, oracle._fold(op, grow)))
        report = oracle.check_law(law_id, 2, limit=1)
        fold = getattr(ns, op)
        sets = oracle.enumerate_negsets(oracle.default_universe(2))
        expected = [f for k in (1, 2, 3) for f in product(sets, repeat=k)
                    if masks(reduce(fold, f)) != reduce(step, [masks(a) for a in f])]
        assert report.verdict == oracle.COUNTEREXAMPLES
        assert not report.matches_expected
        assert report.violation_count == len(expected) > 0
        assert report.counterexamples == (" ".join(str(a) for a in expected[0]),)


def _direct_pairs(n):
    """The 3^n mask pairs (nec, adm) with nec ⊆ adm, sorted by adm, then nec."""
    return sorted(((nec, adm) for adm in range(1 << n) for nec in range(1 << n)
                   if not nec & ~adm), key=lambda p: (p[1], p[0]))


def _within(x, y):
    return not (x[0] & ~y[0] or x[1] & ~y[1])


# each law decided as a kernel over byte rows, as (arity, holds): holds(op, A, B, C) reads
# the binary mask operators op["odot"], op["oplus"], op["union"] and op["inter"]
DIRECT_LAWS = {
    "commutativity-odot": (2, lambda op, a, b: op["odot"](a, b) == op["odot"](b, a)),
    "commutativity-oplus": (2, lambda op, a, b: op["oplus"](a, b) == op["oplus"](b, a)),
    "absorption-oplus-odot": (2, lambda op, a, b: op["oplus"](a, op["odot"](a, b)) == a),
    "absorption-odot-oplus": (2, lambda op, a, b: op["odot"](a, op["oplus"](a, b)) == a),
    "associativity-odot": (3, lambda op, a, b, c: (
        op["odot"](op["odot"](a, b), c) == op["odot"](a, op["odot"](b, c)))),
    "associativity-oplus": (3, lambda op, a, b, c: (
        op["oplus"](op["oplus"](a, b), c) == op["oplus"](a, op["oplus"](b, c)))),
    "distributivity-oplus-over-odot": (3, lambda op, a, b, c: (
        op["oplus"](a, op["odot"](b, c)) == op["odot"](op["oplus"](a, b), op["oplus"](a, c)))),
    "distributivity-odot-over-oplus": (3, lambda op, a, b, c: (
        op["odot"](a, op["oplus"](b, c)) == op["oplus"](op["odot"](a, b), op["odot"](a, c)))),
    "bounds-upper": (3, lambda op, a1, a2, b: not (_within(a1, b) and _within(a2, b)) or (
        _within(op["odot"](a1, a2), op["union"](a1, a2)) and _within(op["union"](a1, a2), b))),
    "bounds-lower": (3, lambda op, a1, a2, b: not (_within(b, a1) and _within(b, a2)) or (
        _within(op["inter"](a1, a2), op["oplus"](a1, a2)) and _within(b, op["inter"](a1, a2)))),
}


def mask_operators(**wrong):
    """core's binary mask operators on mask pairs, each entry of ``wrong`` replacing one."""
    ops = {name: lambda x, y, _f=getattr(core, f"{name}_masks"): _f(*x, *y)
           for name in ("odot", "oplus", "union", "inter")}
    return {**ops, **wrong}


def decide_directly(law, n, op, limit=5):
    """(checked, violation count, the first ``limit`` counterexamples) of ``law`` at size n,
    every tuple decided from the mask operators ``op``, in the sweep's order."""
    arity, holds = DIRECT_LAWS[law]
    fmt = ns.make_universe(list("abcde"[:n])).format_masks
    checked, wrong = 0, []
    for sets in product(_direct_pairs(n), repeat=arity):
        checked += 1
        if not holds(op, *sets):
            wrong.append(" ".join(f"{name}={fmt(*x)}" for name, x in zip("ABC", sets)))
    return checked, len(wrong), tuple(wrong[:limit])


class TestByteRows:
    """The laws decided as whole-row kernels over the tables' byte forms, against each
    tuple decided straight from core's mask operators."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("law", sorted(DIRECT_LAWS))
    def test_kernel_agrees_with_each_tuple_decided_directly(self, law, n):
        report = oracle.check_law(law, n)
        assert (report.checked, report.violation_count, report.counterexamples) == (
            decide_directly(law, n, mask_operators()))

    @pytest.mark.parametrize("law, name, at, value", [
        ("distributivity-oplus-over-odot", "odot", (A, B), U),
        ("distributivity-oplus-over-odot", "oplus", (B, U), A),
        ("distributivity-odot-over-oplus", "oplus", (A, B), U),
        ("distributivity-odot-over-oplus", "odot", (U, E), B),
        ("absorption-odot-oplus", "oplus", (A, B), U),
        ("absorption-odot-oplus", "odot", (U, U), E),
    ])
    def test_one_wrong_entry_changes_a_refuted_law_as_decided_directly(self, law, name, at,
                                                                       value):
        # a refuted law already has violations: one wrong table entry must add or remove
        # exactly the tuples that the same wrong operator changes when decided directly
        t = oracle._Tables(2)
        table = [list(row) for row in getattr(t, name)]
        table[t._number[at[0]]][t._number[at[1]]] = t._number[value]
        setattr(t, name, table)
        report = oracle.check_law(law, 2, tables=t)
        right = mask_operators()
        wrong = mask_operators(**{name: lambda x, y: value if (x, y) == at else right[name](x, y)})
        expected = decide_directly(law, 2, wrong)
        assert (report.checked, report.violation_count, report.counterexamples) == expected
        assert expected[1] != decide_directly(law, 2, right)[1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_byte_table_decodes_to_its_list_table(self, n):
        t = oracle._Tables(n)
        s = len(t.pairs)
        for name in ("odot", "oplus", "le", "ge"):
            rows, translate, flat = getattr(t, f"{name}_bytes")
            assert [list(row) for row in rows] == getattr(t, name)
            assert flat == b"".join(rows) and len(flat) == s * s
            assert all(len(tr) == 256 and tr[:s] == row and not any(tr[s:])
                       for row, tr in zip(rows, translate))

    def test_size_five_matches_the_recorded_report(self):
        # the laws decided on whole rows, and the fold laws, at the widest size: the
        # counts and counterexamples that CI also checks through the command line
        golden = json.loads(GOLDEN_SIZE5.read_text(encoding="utf-8"))["doc"]["laws"]
        laws = sorted(DIRECT_LAWS) + ["fold-agreement-odot", "fold-agreement-oplus"]
        t = oracle._Tables(5)
        for entry in golden:
            if entry["law"] in laws:
                doc = json.loads(cli._law_object(oracle.check_law(entry["law"], 5, tables=t)))
                del doc["elapsed"]
                assert doc == entry, entry["law"]
                laws.remove(entry["law"])
        assert laws == []


class TestFixtures:
    @pytest.mark.parametrize("fixture_id", oracle.fixture_ids())
    def test_all_pass(self, fixture_id):
        result = oracle.verify_fixture(fixture_id)
        assert result.passed, fixture_id

    def test_trip_oplus_divergence_note(self):
        result = oracle.verify_fixture("trip-oplus-chain")
        assert "[{a} {a d}]" in result.note

    def test_unknown(self):
        with pytest.raises(UnknownFixture):
            oracle.verify_fixture("bogus")

    @pytest.mark.parametrize("fixture_id, index", [
        (fixture_id, i) for fixture_id, (script, _, _) in oracle.FIXTURES.items()
        for i, stmt in enumerate(script.statements) if isinstance(stmt, session.Expect)])
    def test_every_expect_line_decides(self, monkeypatch, fixture_id, index):
        script, note, halt = oracle.FIXTURES[fixture_id]
        u, statements = script.universe, list(script.statements)
        empty = ns.negset_of(u, [], [])
        target = statements[index].target
        other = empty if target != empty else ns.negset_of(u, [], u.objects)
        statements[index] = session.Expect(statements[index].expr, other)
        changed = ns.SessionScript(u, script.agents, script.policy, tuple(statements),
                                   script.spec)
        monkeypatch.setitem(oracle.FIXTURES, fixture_id, (changed, note, halt))
        assert not oracle.verify_fixture(fixture_id).passed

    def test_disc_failure_needs_its_strong_pair(self, monkeypatch):
        script, note, halt = oracle.FIXTURES["disc-failure"]
        text = ns.print_session(script)
        assert "strong a b\n" in text
        for text, passed in ((text, True), (text.replace("strong a b\n", ""), False)):
            entry = (ns.parse_session(text), note, halt)
            monkeypatch.setitem(oracle.FIXTURES, "disc-failure", entry)
            assert oracle.verify_fixture("disc-failure").passed is passed

    @pytest.mark.parametrize("halt", ["", "resolution failed: strong conflict [(b, a)]",
                                      "resolution failed: strong conflict"])
    def test_disc_failure_needs_its_halt_reason(self, monkeypatch, halt):
        script, note, _ = oracle.FIXTURES["disc-failure"]
        monkeypatch.setitem(oracle.FIXTURES, "disc-failure", (script, note, halt))
        assert not oracle.verify_fixture("disc-failure").passed

    def test_disc_failure_must_halt_at_its_last_statement(self, monkeypatch):
        script, note, halt = oracle.FIXTURES["disc-failure"]
        early = script.statements[-1:] + script.statements
        changed = ns.SessionScript(script.universe, script.agents, script.policy, early,
                                   script.spec)
        monkeypatch.setitem(oracle.FIXTURES, "disc-failure", (changed, note, halt))
        assert not oracle.verify_fixture("disc-failure").passed

    def test_runs_its_script_on_every_call(self, monkeypatch):
        calls, run = [], oracle.run_session
        monkeypatch.setattr(oracle, "run_session", lambda script: calls.append(script) or run(script))
        for fixture_id in oracle.fixture_ids():
            for _ in range(2):
                assert oracle.verify_fixture(fixture_id).passed
        assert calls == [oracle.FIXTURES[f][0] for f in oracle.fixture_ids() for _ in range(2)]


# The premise of DECIDING_SIZE: every mask operator of core acts on each
# object separately, so its result projected onto one object is the operator
# applied to the operands projected onto that object.
MASK_OPS = sorted(name for name in vars(core) if name.endswith("_masks") and name[0] != "_")


def test_every_mask_operator_is_checked():
    assert {"odot_masks", "oplus_masks", "complement_masks", "union_masks",
            "inter_masks", "difference_masks"} <= set(MASK_OPS)


@pytest.mark.parametrize("name", MASK_OPS)
def test_mask_operators_act_on_each_object_separately(name):
    op = getattr(core, name)
    # (full, nec, adm) for the complement, (nec1, adm1, nec2, adm2) for the rest
    takes_full, arity = op.__code__.co_argcount % 2, op.__code__.co_argcount // 2
    n = oracle.DECIDING_SIZE
    full = (1 << n) - 1
    checked = 0
    for operands in product(oracle.enumerate_mask_pairs(n), repeat=arity):
        masks = [m for pair in operands for m in pair]
        nec, adm = op(*[full] * takes_full, *masks)
        for i in range(n):
            projected = [m >> i & 1 for m in masks]
            assert (nec >> i & 1, adm >> i & 1) == op(*[1] * takes_full, *projected), (operands, i)
        checked += 1
    assert checked == 3 ** (n * arity)


# The three-valued reading (README): a set grades each object 1 (necessary),
# H = ½ (admissible only) or 0; each table is the README's, row by left grade.
H = "½"
GRADE_MASKS = {0: (0, 0), H: (0, 1), 1: (1, 1)}
GRADES = list(GRADE_MASKS)
GRADE_TABLES = {
    "odot_masks": [[0, H, H], [H, H, H], [H, H, 1]],
    "oplus_masks": [[0, 0, 0], [0, H, 1], [0, 1, 1]],
    "union_masks": [[0, H, 1], [H, H, 1], [1, 1, 1]],
    "inter_masks": [[0, 0, 0], [0, H, H], [0, H, 1]],
    "difference_masks": [[0, 0, 0], [H, H, 0], [1, H, 0]],
}


def grade_of(masks):
    return next(g for g, m in GRADE_MASKS.items() if m == masks)


@pytest.mark.parametrize("name", sorted(GRADE_TABLES))
def test_grade_table_of_each_binary_operator(name):
    op = getattr(core, name)
    table = [[grade_of(op(*GRADE_MASKS[x], *GRADE_MASKS[y])) for y in GRADES] for x in GRADES]
    assert table == GRADE_TABLES[name]


def test_grade_table_of_not():
    assert [grade_of(complement_masks(1, *GRADE_MASKS[x])) for x in GRADES] == [1, H, 0]


# Equations between two of core's operators.  Every operator acts on each object
# alone, so an equation holds on every universe iff it holds over the three
# grades (README's three-valued reading); each one found is checked at n = 2 too.
OPERATORS = {"odot": odot_masks, "oplus": oplus_masks, "union": core.union_masks,
             "inter": core.inter_masks, "minus": core.difference_masks}
LAW_SHAPES = {  # shape: (operands, both sides), for binary f and g and complement c
    "left-distributivity": (3, lambda f, g, c, a, b, d: (f(a, g(b, d)), g(f(a, b), f(a, d)))),
    "right-distributivity": (3, lambda f, g, c, a, b, d: (f(g(b, d), a), g(f(b, a), f(d, a)))),
    "absorption": (2, lambda f, g, c, a, b: (f(a, g(a, b)), a)),
    "demorgan": (2, lambda f, g, c, a, b: (c(f(a, b)), g(c(a), c(b)))),
}
HOLDING_LAWS = [
    "absorption-inter-union", "absorption-oplus-odot", "absorption-union-inter",
    "absorption-union-minus", "demorgan-inter-union", "demorgan-odot-odot",
    "demorgan-union-inter",
    "left-distributivity-inter-over-odot", "left-distributivity-inter-over-oplus",
    "left-distributivity-inter-over-union", "left-distributivity-minus-over-odot",
    "left-distributivity-odot-over-inter", "left-distributivity-odot-over-union",
    "left-distributivity-oplus-over-inter", "left-distributivity-oplus-over-union",
    "left-distributivity-union-over-inter", "left-distributivity-union-over-odot",
    "right-distributivity-inter-over-odot", "right-distributivity-inter-over-oplus",
    "right-distributivity-inter-over-union", "right-distributivity-minus-over-inter",
    "right-distributivity-minus-over-odot", "right-distributivity-minus-over-oplus",
    "right-distributivity-minus-over-union", "right-distributivity-odot-over-inter",
    "right-distributivity-odot-over-union", "right-distributivity-oplus-over-inter",
    "right-distributivity-oplus-over-union", "right-distributivity-union-over-inter",
    "right-distributivity-union-over-odot",
]


def holding_laws(full, points):
    """The sorted names of the laws that hold at every tuple of ``points``, mask pairs
    within ``full``.  Only a De Morgan law may pair an operator with itself."""
    def binary(op):
        return lambda x, y: op(*x, *y)

    def c(x):
        return complement_masks(full, *x)

    found = []
    for (f, fop), (g, gop) in product(OPERATORS.items(), repeat=2):
        fb, gb = binary(fop), binary(gop)
        for shape, (arity, sides) in LAW_SHAPES.items():
            if f == g and shape != "demorgan":
                continue
            if all(eq(*sides(fb, gb, c, *xs)) for xs in product(points, repeat=arity)):
                found.append(f"{shape}-{f}-over-{g}" if "distributivity" in shape
                             else f"{shape}-{f}-{g}")
    return sorted(found)


def test_equations_between_two_operators_over_the_grades():
    assert holding_laws(1, GRADE_MASKS.values()) == HOLDING_LAWS
    # the catalog states one of them; its distributivity laws are left ones
    stated = {law.replace("left-", "") for law in HOLDING_LAWS} & set(oracle.law_ids())
    assert stated == {"absorption-oplus-odot"}


def test_equations_between_two_operators_hold_at_two_objects():
    assert holding_laws(3, oracle.enumerate_mask_pairs(2)) == HOLDING_LAWS


# Terms over A, B and C with at most three operators from odot, oplus and not.  A
# term's table over the 27 grade assignments is its value over 27 objects: object
# i grades A, B and C by the base-3 digits of i, from the most significant.
TERM_FULL = (1 << 27) - 1


def variable_masks(digit):
    """The masks of the variable graded at object i by base-3 digit ``digit`` of i."""
    grades = [GRADE_MASKS[GRADES[i // 3 ** digit % 3]] for i in range(27)]
    return tuple(sum(bits[side] << i for i, bits in enumerate(grades)) for side in (0, 1))


def terms_by_operator_count():
    """One dict per operator count, 0 to 3, from each term to its table."""
    counts = [{"A": variable_masks(2), "B": variable_masks(1), "C": variable_masks(0)}]
    for k in range(1, 4):
        terms = {("not", t): complement_masks(TERM_FULL, *v) for t, v in counts[k - 1].items()}
        for i in range(k):
            for (x, xv), (y, yv) in product(counts[i].items(), counts[k - 1 - i].items()):
                terms[("odot", x, y)] = odot_masks(*xv, *yv)
                terms[("oplus", x, y)] = oplus_masks(*xv, *yv)
        counts.append(terms)
    return counts


# the two sides of each catalog law on three operators or fewer, as terms
CATALOG_EQUATIONS = {
    "idempotence-odot": (("odot", "A", "A"), "A"),
    "idempotence-oplus": (("oplus", "A", "A"), "A"),
    "complement-involution": (("not", ("not", "A")), "A"),
    "commutativity-odot": (("odot", "A", "B"), ("odot", "B", "A")),
    "commutativity-oplus": (("oplus", "A", "B"), ("oplus", "B", "A")),
    "absorption-oplus-odot": (("oplus", "A", ("odot", "A", "B")), "A"),
    "absorption-odot-oplus": (("odot", "A", ("oplus", "A", "B")), "A"),
    "associativity-odot": (
        ("odot", ("odot", "A", "B"), "C"), ("odot", "A", ("odot", "B", "C"))),
    "associativity-oplus": (
        ("oplus", ("oplus", "A", "B"), "C"), ("oplus", "A", ("oplus", "B", "C"))),
    "distributivity-oplus-over-odot": (
        ("oplus", "A", ("odot", "B", "C")), ("odot", ("oplus", "A", "B"), ("oplus", "A", "C"))),
    "distributivity-odot-over-oplus": (
        ("odot", "A", ("oplus", "B", "C")), ("oplus", ("odot", "A", "B"), ("odot", "A", "C"))),
}


def test_terms_with_three_operators_fall_into_197_classes():
    counts = terms_by_operator_count()
    assert [len(terms) for terms in counts] == [3, 21, 273, 4431]
    table = {t: v for terms in counts for t, v in terms.items()}
    assert len(table) == 4728 and len(set(table.values())) == 197
    holding = {law for law, (x, y) in CATALOG_EQUATIONS.items() if table[x] == table[y]}
    assert holding == {law for law in CATALOG_EQUATIONS
                       if not oracle.LAWS[law].expects_counterexample}
    assert holding == {
        "idempotence-odot", "idempotence-oplus", "commutativity-odot", "commutativity-oplus",
        "associativity-odot", "associativity-oplus", "complement-involution",
        "absorption-oplus-odot"}
    assert set(CATALOG_EQUATIONS) - holding == {
        "absorption-odot-oplus", "distributivity-oplus-over-odot",
        "distributivity-odot-over-oplus"}


# Identities among those terms that the 8 holding catalog equations do not explain,
# one per line up to renaming A, B and C.
UNEXPLAINED_IDENTITIES = [
    (("oplus", "A", ("odot", "B", ("not", "B"))), "A"),
    (("odot", "A", ("not", "A")), ("odot", "B", ("not", "B"))),
    (("not", ("odot", "A", "B")), ("odot", ("not", "A"), ("not", "B"))),
    (("odot", "A", ("not", "B")), ("not", ("odot", "B", ("not", "A")))),
    (("odot", "A", ("odot", "B", ("oplus", "A", "B"))), ("odot", "A", "B")),
    (("oplus", "A", ("odot", "B", ("oplus", "A", "B"))), ("oplus", "A", "B")),
    (("oplus", "A", ("odot", "B", "C")), ("oplus", "A", ("odot", "B", ("oplus", "A", "C")))),
    (("odot", "A", ("odot", "B", ("oplus", "A", "C"))),
     ("odot", "A", ("odot", "B", ("oplus", "B", "C")))),
    (("odot", "A", ("oplus", "B", ("not", "A"))), ("odot", "B", ("oplus", "A", ("not", "B")))),
]


def operands(form, op):
    """The operands of a normal form that is an ``op``, else the form alone."""
    return form[1] if form[0] == op else frozenset([form])


def normal_form(term):
    """``term`` reduced by the 8 catalog equations that hold.  Nested odots, and nested
    opluses, become one set of operands (commutativity, associativity, idempotence);
    not not cancels (involution); and an oplus drops each odot operand whose operands
    include all the parts of another of its operands (absorption-oplus-odot)."""
    if isinstance(term, str):
        return term
    op, *args = term
    if op == "not":
        inner = normal_form(args[0])
        return inner[1] if inner[0] == "not" else ("not", inner)
    parts = frozenset().union(*(operands(normal_form(x), op) for x in args))
    if op == "oplus":
        parts = frozenset(y for y in parts  # "<": an operand never absorbs itself
                          if not any(operands(x, "odot") < operands(y, "odot") for x in parts))
    return next(iter(parts)) if len(parts) == 1 else (op, parts)


def rename(term, names):
    if isinstance(term, str):
        return names[term]
    return (term[0], *(rename(x, names) for x in term[1:]))


def test_normal_forms_leave_nine_identities_unexplained():
    table = {t: v for terms in terms_by_operator_count() for t, v in terms.items()}
    normal = {term: normal_form(term) for term in table}
    forms = defaultdict(set)  # per table, the normal forms of its terms
    for term, form in normal.items():
        forms[table[term]].add(form)
    # 250 normal forms, and none in two classes: the reduction joins only equal terms
    assert len(set(normal.values())) == sum(map(len, forms.values())) == 250
    unexplained = [f for f in forms.values() if len(f) > 1]
    assert len(unexplained) == 28
    instances = []  # each identity under each renaming, as its two sides' normal forms
    for x, y in UNEXPLAINED_IDENTITIES:
        for names in permutations("ABC"):
            x_, y_ = (rename(side, dict(zip("ABC", names))) for side in (x, y))
            pair = {normal_form(x_), normal_form(y_)}
            assert table[x_] == table[y_] and len(pair) == 2, (x_, y_)
            instances.append(pair)
    for f in unexplained:
        assert any(pair <= f for pair in instances), f


def evaluate(term, env, full):
    """The value of ``term`` with its variables at the mask pairs of ``env``."""
    if isinstance(term, str):
        return env[term]
    masks = [m for arg in term[1:] for m in evaluate(arg, env, full)]
    if term[0] == "not":
        return complement_masks(full, *masks)
    return (odot_masks if term[0] == "odot" else oplus_masks)(*masks)


def test_unexplained_identities_hold_at_two_objects():
    for values in product(oracle.enumerate_mask_pairs(2), repeat=3):
        env = dict(zip("ABC", values))
        for x, y in UNEXPLAINED_IDENTITIES:
            assert evaluate(x, env, 3) == evaluate(y, env, 3), (x, y, values)


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_disc_in_grades(kind):
    # a strong pair may not have both grades >= ½; a weak pair may not have
    # both grades >= ½ with either grade 1
    u = ns.make_universe(["a", "b"])
    spec = ns.make_contradiction_spec(u, **{f"{kind}_pairs": [("a", "b")]})
    for x, y in product(GRADES, repeat=2):
        (nx, ax), (ny, ay) = GRADE_MASKS[x], GRADE_MASKS[y]
        a = core._from_masks(u, nx | ny << 1, ax | ay << 1)
        both_admitted = x != 0 and y != 0
        expected = not both_admitted if kind == "strong" else not (both_admitted and 1 in (x, y))
        assert ns.is_disc(a, spec) == expected, (x, y)


@pytest.mark.parametrize("law,counterexample", [
    ("absorption-odot-oplus", "A=[{a} {a}] B=[{} {}]"),
    ("distributivity-oplus-over-odot", "A=[{a} {a}] B=[{} {}] C=[{} {a}]"),
    ("distributivity-odot-over-oplus", "A=[{a} {a}] B=[{} {}] C=[{a} {a}]"),
])
def test_refuted_laws_fail_on_one_object(law, counterexample):
    assert counterexample in oracle.check_law(law, 1, limit=50).counterexamples
