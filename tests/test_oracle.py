import contextlib
import io
import time
import tracemalloc
from functools import reduce
from itertools import combinations, product
from operator import eq

import pytest

import negset as ns
from negset import cli, core, oracle, session
from negset.consistency import WEAK_WITH_NECESSITY
from negset.core import complement_masks, odot_masks, oplus_masks
from negset.errors import (
    NegativeLimit, NegsetError, SizeOutOfRange, UnknownFixture, UnknownLaw)
from refimpl import as_pair, ref_complement, ref_odot, ref_oplus

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
        # positions are what check_law counts
        rows, describe = oracle.LAWS[law].cases(n, oracle._Tables(n))
        texts = [describe(key, k) for key, row in rows for k in range(len(row))]
        assert len(set(texts)) == len(texts) == oracle.check_law(law, n).checked

    @pytest.mark.parametrize("law", ["associativity-odot", "fold-agreement-oplus",
                                     "disc-closure-oplus"])
    def test_a_sweep_holds_one_row_at_a_time(self, law):
        # 81 sets at n = 4: the verdicts would take over 2 MB as one list (the
        # sweeps over three sets check 81³ = 531,441, disc-closure-oplus
        # 392,436); a DISC law's row per labeling holds at most 81² of them
        oracle.check_law(law, 4, tables=oracle._Tables(4))  # import and warm up
        tracemalloc.start()
        try:
            report = oracle.check_law(law, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == oracle.HOLDS and report.checked * 8 > 2 << 20
        assert peak < 1 << 20

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
