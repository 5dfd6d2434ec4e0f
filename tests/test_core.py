import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, strategies as st

import negset as ns
from negset import SpecialKind, InclusionMode
from negset.core import items_at, iter_bits
from negset.errors import (
    DuplicateName,
    EmptyFamily,
    EmptyUniverse,
    InvalidName,
    NotDouble,
    UniverseMismatch,
    UnknownObject,
)

from refimpl import (
    as_pair,
    ref_complement,
    ref_difference,
    ref_inter,
    ref_odot,
    ref_oplus,
    ref_union,
)

LETTERS = "abcdef"


@st.composite
def sets_over_universe(draw, k=1, max_size=4):
    n = draw(st.integers(1, max_size))
    u = ns.make_universe(list(LETTERS[:n]))
    out = []
    for _ in range(k):
        adm = draw(st.integers(0, u.full_mask))
        nec = draw(st.integers(0, u.full_mask)) & adm
        out.append(ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm)))
    return u, out


class TestUniverse:
    def test_make(self):
        u = ns.make_universe(["a", "b", "c"])
        assert len(u) == 3
        assert u.index("b") == 1
        assert "a" in u
        assert "z" not in u

    def test_empty(self):
        with pytest.raises(EmptyUniverse):
            ns.make_universe([])

    def test_duplicate(self):
        with pytest.raises(DuplicateName):
            ns.make_universe(["a", "a"])

    @pytest.mark.parametrize("bad", ["", "a b", "x\t"])
    def test_invalid_name(self, bad):
        with pytest.raises(InvalidName):
            ns.make_universe(["a", bad])

    def test_declaration_order_is_stable(self):
        u = ns.make_universe(["z", "a", "m"])
        assert u.objects == ("z", "a", "m")

    @pytest.mark.parametrize("names,error", [
        (["a", "a", "b c"], DuplicateName("a")),
        (["a", "b c", "a"], InvalidName("b c")),
        (["a", "", "a"], InvalidName("")),
        (["a", "a\tb"], InvalidName("a\tb")),
        (["a\xa0", "b"], InvalidName("a\xa0")),
        (["a", "b", "\x1cc"], InvalidName("\x1cc")),
        (["a", "b", "c", "b"], DuplicateName("b")),
        (["a", None], InvalidName(None)),
    ], ids=repr)
    def test_first_bad_name_is_reported(self, names, error):
        with pytest.raises(type(error)) as info:
            ns.make_universe(names)
        assert str(info.value) == str(error)

    @pytest.mark.parametrize("names", [["a"], ("b", "a"), ["é", "x²", "a-b.c", "_"]])
    def test_valid_names(self, names):
        assert ns.make_universe(names).objects == tuple(names)

    def test_full_mask_is_not_part_of_the_value(self):
        u, v = ns.make_universe(["a", "b", "c"]), ns.make_universe(["a", "b", "c"])
        assert u.full_mask == 0b111
        assert u == v and hash(u) == hash(v)
        assert repr(u) == "Universe(objects=('a', 'b', 'c'))"

    def test_index_of_an_unknown_name(self):
        with pytest.raises(UnknownObject, match="^object not in universe: 'zz'$"):
            ns.make_universe(["a", "b"]).index("zz")

    def test_membership_of_a_name_outside_the_universe_is_false(self):
        u = ns.make_universe(["a", "b"])
        s = ns.FiniteSet.of(u, ["a"])
        assert ("a" in s, "b" in s, "z" in s) == (True, False, False)
        assert ("z" in u, "z" in ns.FiniteSet.full(u)) == (False, False)


class TestIterBits:
    NAMES = ns.make_universe([f"o{i}" for i in range(2000)]).objects
    ITEMS = [object() for _ in range(2001)]

    @given(st.one_of(
        st.integers(0, 1 << 300),  # dense masks
        st.sets(st.integers(0, 2000), max_size=20).map(lambda bits: sum(1 << i for i in bits)),
    ))
    @example(0)
    @example((1 << 2000) - 1)
    def test_matches_bit_scan(self, mask):
        assert list(iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]
        # items_at reads the mask as iter_bits does, picking items instead of indices
        assert list(items_at(self.ITEMS, mask)) == [self.ITEMS[i] for i in iter_bits(mask)]
        names = mask & (1 << 2000) - 1
        assert list(items_at(self.NAMES, names)) == [self.NAMES[i] for i in iter_bits(names)]


class TestConstruction:
    def test_trip_agent(self):
        u = ns.make_universe(list("abcdefghikl"))
        a = ns.make_negset(
            ns.FiniteSet.of(u, ["a", "d"]), ns.FiniteSet.of(u, ["a", "d", "f", "g", "h"])
        )
        assert a.necessity.names() == ("a", "d")

    def test_empty_pair_valid(self):
        u = ns.make_universe(["a"])
        a = ns.make_negset(ns.FiniteSet.empty(u), ns.FiniteSet.empty(u))
        assert len(a.admissibility) == 0

    def test_issubset(self):
        u, v = ns.make_universe(["a", "b"]), ns.make_universe(["a", "b"])
        assert ns.FiniteSet.of(u, ["a"]).issubset(ns.FiniteSet.of(v, ["a", "b"]))
        assert not ns.FiniteSet.of(u, ["a", "b"]).issubset(ns.FiniteSet.of(u, ["b"]))
        with pytest.raises(UniverseMismatch, match="^sets over different universes$"):
            ns.FiniteSet.empty(u).issubset(ns.FiniteSet.empty(ns.make_universe(["a"])))

    def test_not_double(self):
        u = ns.make_universe(["a"])
        with pytest.raises(NotDouble):
            ns.make_negset(ns.FiniteSet.of(u, ["a"]), ns.FiniteSet.empty(u))

    def test_universe_mismatch(self):
        u1 = ns.make_universe(["a"])
        u2 = ns.make_universe(["a", "b"])
        with pytest.raises(UniverseMismatch):
            ns.make_negset(ns.FiniteSet.empty(u1), ns.FiniteSet.empty(u2))


class TestValueContract:
    def setup_method(self):
        self.u = ns.make_universe(["a", "b", "c"])
        self.a = ns.negset_of(self.u, ["a"], ["a", "b"])

    @pytest.mark.parametrize("clone", [lambda a: pickle.loads(pickle.dumps(a)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, clone):
        b = clone(self.a)
        assert b == self.a and hash(b) == hash(self.a)
        assert (b.nec, b.adm, str(b)) == (0b1, 0b11, "[{a} {a b}]")

    @pytest.mark.parametrize("attr", ["universe", "nec", "adm", "necessity"])
    def test_frozen(self, attr):
        with pytest.raises(FrozenInstanceError):
            setattr(self.a, attr, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(self.a, attr)
        assert self.a == ns.negset_of(self.u, ["a"], ["a", "b"])

    def test_equality_over_equal_universes(self):
        v = ns.make_universe(["a", "b", "c"])
        b = ns.negset_of(v, ["a"], ["a", "b"])
        assert v is not self.u
        assert b == self.a and hash(b) == hash(self.a)
        assert ns.negset_of(ns.make_universe(["a", "b", "d"]), ["a"], ["a", "b"]) != self.a
        assert ns.negset_of(self.u, [], ["a", "b"]) != self.a
        assert self.a != (self.a.nec, self.a.adm)
        assert self.a.__eq__((self.a.nec, self.a.adm)) is NotImplemented
        assert hash(self.a) == hash((self.u, 0b1, 0b11))

    def test_repr(self):
        universe = "Universe(objects=('a', 'b', 'c'))"
        assert repr(self.a) == (f"NegotiationSet(necessity=FiniteSet(universe={universe}, mask=1), "
                                f"admissibility=FiniteSet(universe={universe}, mask=3))")

    def test_constructor_errors(self):
        nec, adm = ns.FiniteSet.of(self.u, ["a", "c"]), ns.FiniteSet.of(self.u, ["a"])
        with pytest.raises(NotDouble, match=r"^necessity \{a c\} not contained in admissibility \{a\}$"):
            ns.NegotiationSet(nec, adm)
        with pytest.raises(NotDouble, match=r"^necessity \{c\} not contained in admissibility \{b\}$"):
            ns.negset_of(self.u, ["c"], ["b"])
        with pytest.raises(UniverseMismatch, match="^components over different universes$"):
            ns.NegotiationSet(ns.FiniteSet.empty(self.u), ns.FiniteSet.empty(ns.make_universe(["a"])))

    @given(sets_over_universe(k=2))
    def test_every_result_is_a_checked_value(self, data):
        u, (a, b) = data
        results = [ns.odot(a, b), ns.oplus(a, b), ns.complement(a), ns.difference(a, b),
                   *(op([a, b]) for op in (ns.union_all, ns.inter_all, ns.odot_all, ns.oplus_all)),
                   *(ns.special(u, kind, "a") for kind in SpecialKind)]
        for r in results:
            assert r.nec & ~r.adm == 0 and r.adm & ~u.full_mask == 0
            assert r == ns.NegotiationSet(r.necessity, r.admissibility)


class TestComplementDifference:
    def test_complement_worked_example(self):
        u = ns.make_universe(list("abcdefg"))
        a = ns.negset_of(u, ["a", "b"], ["a", "b", "c", "d"])
        c = ns.complement(a)
        assert c == ns.negset_of(u, ["e", "f", "g"], ["c", "d", "e", "f", "g"])

    def test_complement_of_bottom_is_top(self):
        u = ns.make_universe(["a", "b"])
        bottom = ns.special(u, SpecialKind.EMPTY_N)
        assert ns.complement(bottom) == ns.special(u, SpecialKind.FULL_N)

    def test_involution(self):
        u = ns.make_universe(["a", "b", "c"])
        a = ns.negset_of(u, ["a"], ["a", "b"])
        assert ns.complement(ns.complement(a)) == a

    def test_difference_matches_reference(self):
        # expected value frozen from the componentwise reference semantics
        u = ns.make_universe(list("abcdefg"))
        a = ns.negset_of(u, ["a", "b"], ["a", "b", "c", "d"])
        b = ns.negset_of(u, ["c", "d"], ["c", "d", "g"])
        expected = ref_difference(as_pair(a), as_pair(b))
        assert expected == (frozenset("ab"), frozenset("ab"))
        assert as_pair(ns.difference(a, b)) == expected

    def test_difference_identities(self):
        u = ns.make_universe(["a", "b", "c"])
        a = ns.negset_of(u, ["a"], ["a", "b"])
        bottom = ns.special(u, SpecialKind.EMPTY_N)
        top = ns.special(u, SpecialKind.FULL_N)
        assert ns.difference(a, bottom) == a
        assert ns.difference(a, top) == bottom


class TestInclusion:
    def test_reflexive(self):
        u = ns.make_universe(["a"])
        a = ns.negset_of(u, [], ["a"])
        assert ns.included(a, a, InclusionMode.FULL)

    def test_weak_inclusion_counterexample(self):
        u = ns.make_universe(list("abcdefg"))
        a = ns.negset_of(u, ["a", "b"], ["a", "b", "c", "d"])
        b = ns.negset_of(u, ["c", "d"], ["c", "d", "g"])
        lhs = ns.oplus(ns.complement(a), ns.complement(b))
        rhs = ns.complement(ns.odot(a, b))
        assert not ns.included(lhs, rhs, InclusionMode.NECESSITY)
        assert not ns.included(rhs, lhs, InclusionMode.ADMISSIBILITY)

    def test_mismatch(self):
        a = ns.negset_of(ns.make_universe(["a"]), [], ["a"])
        b = ns.negset_of(ns.make_universe(["b"]), [], ["b"])
        with pytest.raises(UniverseMismatch):
            ns.included(a, b, InclusionMode.FULL)


class TestGeneralizedOps:
    def setup_method(self):
        self.u = ns.make_universe(["a", "b", "c"])

    def test_union_all(self):
        fam = [ns.negset_of(self.u, ["a"], ["a", "b"]), ns.negset_of(self.u, ["c"], ["c"])]
        expected = ref_union(*map(as_pair, fam))
        assert expected == (frozenset("ac"), frozenset("abc"))
        assert as_pair(ns.union_all(fam)) == expected

    def test_inter_all(self):
        fam = [
            ns.negset_of(self.u, ["a"], ["a", "b"]),
            ns.negset_of(self.u, ["a", "c"], ["a", "b", "c"]),
        ]
        expected = ref_inter(*map(as_pair, fam))
        assert expected == (frozenset("a"), frozenset("ab"))
        assert as_pair(ns.inter_all(fam)) == expected

    def test_singleton_family(self):
        a = ns.negset_of(self.u, ["a"], ["a", "b"])
        for op in (ns.union_all, ns.inter_all, ns.odot_all, ns.oplus_all):
            assert op([a]) == a

    def test_union_with_bottom(self):
        a = ns.negset_of(self.u, ["a"], ["a", "b"])
        assert ns.union_all([a, ns.special(self.u, SpecialKind.EMPTY_N)]) == a

    def test_inter_with_top(self):
        a = ns.negset_of(self.u, ["a"], ["a", "b"])
        assert ns.inter_all([a, ns.special(self.u, SpecialKind.FULL_N)]) == a

    def test_empty_family(self):
        for op in (ns.union_all, ns.inter_all, ns.odot_all, ns.oplus_all):
            with pytest.raises(EmptyFamily):
                op([])

    def test_mixed_universes(self):
        other = ns.negset_of(ns.make_universe(["x"]), [], ["x"])
        a = ns.negset_of(self.u, [], ["a"])
        with pytest.raises(UniverseMismatch):
            ns.odot_all([a, other])


class TestCompromiseOperators:
    @pytest.mark.parametrize("op", [ns.odot, ns.oplus, ns.difference], ids=lambda op: op.__name__)
    def test_operands_share_a_universe(self, op):
        # over equal universes the result keeps the left operand's universe object
        u, v = ns.make_universe(["a", "b"]), ns.make_universe(["a", "b"])
        a, b = ns.negset_of(u, ["a"], ["a", "b"]), ns.negset_of(v, [], ["b"])
        assert v is not u and op(a, b).universe is u and op(b, a).universe is v
        other = ns.negset_of(ns.make_universe(["a"]), [], ["a"])
        for left, right in ((a, other), (other, a)):
            with pytest.raises(UniverseMismatch, match="^family members over different universes$"):
                op(left, right)

    def test_trip_odot_step(self):
        u = ns.make_universe(list("abcdefghikl"))
        a = ns.negset_of(u, ["a", "d"], ["a", "d", "f", "g", "h"])
        b = ns.negset_of(u, ["a", "b", "d"], ["a", "b", "d", "f", "i", "l"])
        assert ns.odot(a, b) == ns.negset_of(u, ["a", "d"], list("abdfghil"))

    def test_trip_oplus_step(self):
        u = ns.make_universe(list("abcdefghikl"))
        a = ns.negset_of(u, ["a", "d"], ["a", "d", "f", "g", "h"])
        b = ns.negset_of(u, ["a", "b", "d"], ["a", "b", "d", "f", "i", "l"])
        assert ns.oplus(a, b) == ns.negset_of(u, ["a", "d"], ["a", "d", "f"])

    def test_half_empty_identities(self):
        u = ns.make_universe(["a", "b"])
        a = ns.negset_of(u, ["a"], ["a", "b"])
        half = ns.special(u, SpecialKind.HALF_EMPTY)
        assert ns.odot(a, half) == half
        assert ns.oplus(a, half) == a

    def test_point_oplus_annihilates(self):
        u = ns.make_universe(["x", "y"])
        x1 = ns.special(u, SpecialKind.POINT_FULL, "x")
        y1 = ns.special(u, SpecialKind.POINT_FULL, "y")
        assert ns.oplus(x1, y1) == ns.special(u, SpecialKind.EMPTY_N)


class TestSpecial:
    def test_constants(self):
        u = ns.make_universe(["a", "b"])
        assert str(ns.special(u, SpecialKind.EMPTY_N)) == "[{} {}]"
        assert str(ns.special(u, SpecialKind.FULL_N)) == "[{a b} {a b}]"
        assert str(ns.special(u, SpecialKind.HALF_EMPTY)) == "[{} {a b}]"
        assert str(ns.special(u, SpecialKind.POINT_HALF, "b")) == "[{} {b}]"
        assert str(ns.special(u, SpecialKind.POINT_FULL, "a")) == "[{a} {a}]"

    def test_unknown_point(self):
        u = ns.make_universe(["a"])
        with pytest.raises(UnknownObject):
            ns.special(u, SpecialKind.POINT_FULL, "z")

    def test_point_without_a_name(self):
        with pytest.raises(UnknownObject, match="^object not in universe: None$"):
            ns.special(ns.make_universe(["a"]), SpecialKind.POINT_HALF)


class TestProperties:
    @given(sets_over_universe(k=2))
    def test_binary_ops_match_reference(self, data):
        u, (a, b) = data
        full = frozenset(u.objects)
        pa, pb = as_pair(a), as_pair(b)
        assert as_pair(ns.odot(a, b)) == ref_odot(pa, pb)
        assert as_pair(ns.oplus(a, b)) == ref_oplus(pa, pb)
        assert as_pair(ns.union_all([a, b])) == ref_union(pa, pb)
        assert as_pair(ns.inter_all([a, b])) == ref_inter(pa, pb)
        assert as_pair(ns.difference(a, b)) == ref_difference(pa, pb)
        assert as_pair(ns.complement(a)) == ref_complement(full, pa)

    @given(sets_over_universe(k=2))
    def test_closure(self, data):
        # the constructor enforces the double-set invariant, so producing a
        # value at all is the property
        _, (a, b) = data
        for op in (ns.odot, ns.oplus):
            result = op(a, b)
            assert result.necessity.issubset(result.admissibility)
        ns.complement(a)
        ns.difference(a, b)

    @given(sets_over_universe(k=1))
    def test_idempotence_and_involution(self, data):
        _, (a,) = data
        assert ns.odot(a, a) == a
        assert ns.oplus(a, a) == a
        assert ns.complement(ns.complement(a)) == a

    @given(sets_over_universe(k=2))
    def test_commutativity_and_absorption(self, data):
        _, (a, b) = data
        assert ns.odot(a, b) == ns.odot(b, a)
        assert ns.oplus(a, b) == ns.oplus(b, a)
        assert ns.oplus(a, ns.odot(a, b)) == a

    @given(sets_over_universe(k=3))
    def test_associativity(self, data):
        _, (a, b, c) = data
        assert ns.odot(ns.odot(a, b), c) == ns.odot(a, ns.odot(b, c))
        assert ns.oplus(ns.oplus(a, b), c) == ns.oplus(a, ns.oplus(b, c))

    @given(sets_over_universe(k=3))
    def test_bounds(self, data):
        _, (a1, a2, b) = data
        fam = [a1, a2]
        if all(ns.included(x, b) for x in fam):
            assert ns.included(ns.odot_all(fam), ns.union_all(fam))
            assert ns.included(ns.union_all(fam), b)
        if all(ns.included(b, x) for x in fam):
            assert ns.included(b, ns.inter_all(fam))
            assert ns.included(ns.inter_all(fam), ns.oplus_all(fam))

    @given(sets_over_universe(k=1))
    def test_identity_lemmas(self, data):
        u, (a,) = data
        top = ns.special(u, SpecialKind.FULL_N)
        bottom = ns.special(u, SpecialKind.EMPTY_N)
        full = ns.FiniteSet.full(u)
        empty = ns.FiniteSet.empty(u)
        assert ns.odot(a, top) == ns.make_negset(a.necessity, full)
        assert ns.odot(a, bottom) == ns.make_negset(empty, a.admissibility)
        assert ns.oplus(a, top) == ns.make_negset(a.admissibility, a.admissibility)
        assert ns.oplus(a, bottom) == bottom
