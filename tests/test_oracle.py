from itertools import combinations

import pytest

import negset as ns
from negset import oracle
from negset.errors import SizeOutOfRange, UnknownFixture, UnknownLaw


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

    def test_disc_with_explicit_spec(self):
        u = oracle.default_universe(2)
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        report = oracle.check_law("disc-closure-oplus", 2, spec=spec)
        assert report.verdict == oracle.HOLDS

    def test_size_over_old_cap_accepted(self):
        assert oracle.check_law("idempotence-odot", 7).verdict == oracle.HOLDS
        oracle.check_law("fold-agreement-odot", 3)

    @pytest.mark.parametrize("law", oracle.law_ids())
    def test_default_size_decides(self, law):
        report = oracle.check_law(law)
        assert report.size == 2
        assert report.verdict == oracle.check_law(law, 3).verdict
        assert report.matches_expected

    def test_unknown_law(self):
        with pytest.raises(UnknownLaw):
            oracle.check_law("no-such-law", 2)

    def test_reports_deterministic(self):
        a = oracle.check_law("absorption-odot-oplus", 2)
        b = oracle.check_law("absorption-odot-oplus", 2)
        assert (a.checked, a.counterexamples, a.violation_count) == (
            b.checked, b.counterexamples, b.violation_count
        )


class TestMaskOperators:
    def test_agree_with_core(self):
        # the sweeps' mask operators against the library's, on every pair at n = 3
        u = oracle.default_universe(3)
        sets = oracle.enumerate_negsets(u)

        def masks(a):
            return a.necessity.mask, a.admissibility.mask

        for a in sets:
            assert oracle._compl(u.full_mask, *masks(a)) == masks(ns.complement(a))
            for b in sets:
                assert oracle._odot(*masks(a), *masks(b)) == masks(ns.odot(a, b))
                assert oracle._oplus(*masks(a), *masks(b)) == masks(ns.oplus(a, b))


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
