import itertools
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

import negset as ns
from negset import consistency
from negset.consistency import (
    STRONG_IN_ADMISSIBILITY,
    WEAK_WITH_NECESSITY,
    AgentPriority,
    Failed,
    FewestNecessities,
    ObjectDominance,
    Resolved,
    Strict,
)
from negset.errors import (
    DominanceNotStrictOrder,
    InputNotDisc,
    NegsetError,
    OverlappingKinds,
    PolicyError,
    ReflexivePair,
)

from refimpl import RefError, as_pair, ref_is_disc, ref_spec

LETTERS = "abcdef"


def u2():
    return ns.make_universe(["a", "b"])


class TestContradictionSpec:
    def test_valid(self):
        spec = ns.make_contradiction_spec(u2(), strong_pairs=[("a", "b")])
        assert spec.strong == frozenset({(0, 1)})
        assert not spec.weak

    def test_pairs_normalized_symmetric(self):
        spec = ns.make_contradiction_spec(u2(), strong_pairs=[("b", "a")])
        assert spec.strong == frozenset({(0, 1)})

    def test_reflexive(self):
        with pytest.raises(ReflexivePair):
            ns.make_contradiction_spec(u2(), strong_pairs=[("a", "a")])

    def test_overlapping_kinds(self):
        with pytest.raises(OverlappingKinds):
            ns.make_contradiction_spec(
                u2(), strong_pairs=[("a", "b")], weak_pairs=[("b", "a")]
            )

    def test_dominance_symmetric_pair_rejected(self):
        with pytest.raises(DominanceNotStrictOrder):
            ns.make_contradiction_spec(u2(), dominance_pairs=[("a", "b"), ("b", "a")])

    def test_dominance_missing_transitive_pair(self):
        u = ns.make_universe(["a", "b", "c"])
        with pytest.raises(DominanceNotStrictOrder):
            ns.make_contradiction_spec(u, dominance_pairs=[("a", "b"), ("b", "c")])

    @pytest.mark.parametrize("pairs,message", [
        ([("a", "b"), ("b", "c")], "missing transitive pair (a, c)"),
        ([("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")], "missing transitive pair (a, d)"),
        ([("h", "g"), ("g", "f"), ("f", "e"), ("e", "d"), ("h", "f"), ("g", "e"),
          ("h", "e"), ("d", "c")], "missing transitive pair (e, c)"),
        ([("a", "b"), ("b", "h"), ("b", "g"), ("b", "c"), ("b", "e")],
         "missing transitive pair (a, c)"),
        ([("h", "a"), ("a", "b"), ("a", "c"), ("a", "d"), ("h", "b")],
         "missing transitive pair (h, c)"),
        ([("a", "b"), ("b", "a")], "(a, b) declared in both directions"),
        ([("c", "d"), ("a", "b"), ("d", "c"), ("b", "a")], "(a, b) declared in both directions"),
        ([("a", "b"), ("b", "c"), ("e", "f"), ("f", "e")], "(e, f) declared in both directions"),
        ([("a", "b"), ("c", "c")], "(c, c) is reflexive"),
        ([("a", "b"), ("b", "a"), ("c", "c")], "(c, c) is reflexive"),
        ([("h", "b"), ("h", "c"), ("b", "f"), ("c", "a")], "missing transitive pair (h, f)"),
    ])
    def test_dominance_error_text(self, pairs, message):
        # The witness named in each message is part of the CLI's output: the
        # lowest reflexive pair, else the lowest pair declared both ways, else
        # for the first edge (i, j) by index that misses a pair (i, l), the
        # lowest l; so every order of the pairs names the same one.
        u = ns.make_universe(list("abcdefgh"))
        for order in itertools.permutations(pairs):
            with pytest.raises(DominanceNotStrictOrder) as info:
                ns.make_contradiction_spec(u, dominance_pairs=order)
            assert str(info.value) == message

    def test_dominance_transitive_ok(self):
        u = ns.make_universe(["a", "b", "c"])
        spec = ns.make_contradiction_spec(
            u, dominance_pairs=[("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert spec.dominates("a", "c")
        assert not spec.dominates("c", "a")


@st.composite
def spec_inputs(draw):
    """Objects of a universe of at most six, and strong, weak and dominance
    name pairs in random order: they may repeat and may hold unknown names,
    reflexive pairs, strong/weak overlaps, pairs declared both ways and
    missing transitive pairs."""
    def sometimes():
        return draw(st.integers(0, 3)) == 0

    objects = tuple(LETTERS[:draw(st.integers(1, 6))])
    names = objects + ("y", "z") if sometimes() else objects
    reflexive = sometimes()
    candidates = [(x, y) for x in names for y in names if reflexive or x != y]
    pairs = st.lists(st.sampled_from(candidates), max_size=8) if candidates else st.just([])
    strong = draw(pairs)
    weak = [(x, y) for x, y in draw(pairs) if (x, y) not in strong and (y, x) not in strong]
    if strong and sometimes():
        weak += [p[::-1] for p in draw(st.lists(st.sampled_from(strong), min_size=1, max_size=3))]
    # a total order over some objects, perhaps with pairs missing, plus a few
    # arbitrary pairs
    ranking = draw(st.permutations(objects))[:draw(st.integers(min(2, len(objects)), 6))]
    dominance = list(itertools.combinations(ranking, 2))
    if len(dominance) > 1 and draw(st.booleans()):
        missing = draw(st.sets(st.sampled_from(dominance), min_size=1, max_size=4))
        dominance = [p for p in dominance if p not in missing]
    dominance += draw(pairs)[:draw(st.integers(0, 2))]
    return (objects, draw(st.permutations(strong * 2)), draw(st.permutations(weak)),
            draw(st.permutations(dominance * 2)))


@settings(max_examples=400)
@given(spec_inputs())
def test_spec_matches_reference(case):
    objects, strong, weak, dominance = case
    u = ns.make_universe(list(objects))
    try:
        expected = ref_spec(objects, strong, weak, dominance)
    except RefError as exc:
        with pytest.raises(NegsetError) as info:
            ns.make_contradiction_spec(u, iter(strong), iter(weak), iter(dominance))
        assert (type(info.value).__name__, str(info.value)) == (exc.kind, str(exc))
        return
    spec = ns.make_contradiction_spec(u, iter(strong), iter(weak), iter(dominance))
    assert (spec.strong, spec.weak, spec.dominance) == expected
    for i, j in itertools.product(range(len(objects)), repeat=2):
        assert spec.dominates(objects[i], objects[j]) == ((i, j) in expected[2])


class TestSpecValue:
    def pairs(self):
        strong, weak = [("a", "b"), ("c", "a"), ("b", "d")], [("d", "c")]
        return strong, weak, [("a", "b"), ("b", "c"), ("a", "c")]

    def test_equal_whatever_the_order_and_repeats(self):
        strong, weak, dominance = self.pairs()
        one = ns.make_contradiction_spec(ns.make_universe(list("abcd")), strong, weak, dominance)
        other = ns.make_contradiction_spec(
            ns.make_universe(list("abcd")), [("d", "b"), ("a", "c"), ("b", "a"), ("a", "b")],
            weak * 2, dominance[::-1] + dominance,
        )
        assert one == other
        assert hash(one) == hash(other)
        u = one.universe
        assert one != ns.make_contradiction_spec(u, strong, weak)
        assert one != ns.make_contradiction_spec(u, strong, [], dominance)
        assert one != ns.make_contradiction_spec(u, weak, strong, dominance)
        assert one != ns.make_contradiction_spec(ns.make_universe(list("abcde")), strong, weak, dominance)

    @pytest.mark.parametrize("name", ["universe", "strong_rows", "weak_rows", "dominance_rows",
                                      "strong_keys", "weak_keys", "strong", "weak", "dominance"])
    def test_assigning_an_attribute_raises(self, name):
        spec = ns.make_contradiction_spec(ns.make_universe(list("abcd")), *self.pairs())
        before = getattr(spec, name)
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, before)
        assert getattr(spec, name) == before


class TestDisc:
    def test_point_is_disc(self):
        spec = ns.make_contradiction_spec(u2(), strong_pairs=[("a", "b")])
        a = ns.negset_of(u2(), ["a"], ["a"])
        assert ns.is_disc(a, spec)

    def test_strong_pair_in_admissibility(self):
        spec = ns.make_contradiction_spec(u2(), strong_pairs=[("a", "b")])
        bad = ns.negset_of(u2(), [], ["a", "b"])
        violations = ns.disc_violations(bad, spec)
        assert [(v.kind, v.pair) for v in violations] == [
            (STRONG_IN_ADMISSIBILITY, ("a", "b"))
        ]

    def test_weak_pair(self):
        u = ns.make_universe(["x", "y"])
        spec = ns.make_contradiction_spec(u, weak_pairs=[("x", "y")])
        assert not ns.is_disc(ns.negset_of(u, ["x"], ["x", "y"]), spec)
        assert ns.is_disc(ns.negset_of(u, [], ["x", "y"]), spec)

    def test_weak_violation_kind(self):
        u = ns.make_universe(["x", "y"])
        spec = ns.make_contradiction_spec(u, weak_pairs=[("x", "y")])
        violations = ns.disc_violations(ns.negset_of(u, ["y"], ["x", "y"]), spec)
        assert [v.kind for v in violations] == [WEAK_WITH_NECESSITY]

    def test_each_pair_reported_once(self):
        u = ns.make_universe(["a", "b", "c"])
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b"), ("a", "c")])
        bad = ns.negset_of(u, [], ["a", "b", "c"])
        assert len(ns.disc_violations(bad, spec)) == 2


def conflict_fixture():
    u = u2()
    spec = ns.make_contradiction_spec(
        u, strong_pairs=[("a", "b")], dominance_pairs=[("a", "b")]
    )
    a = ns.negset_of(u, ["a"], ["a"])
    b = ns.negset_of(u, ["b"], ["b"])
    return u, spec, a, b


class TestResolveOdot:
    def test_no_conflict_passes_through(self):
        u, spec, a, _ = conflict_fixture()
        outcome = ns.resolve_odot(a, a, spec, Strict())
        assert isinstance(outcome, Resolved)
        assert outcome.result == a
        assert not outcome.dropped

    def test_unknown_policy_raises_before_any_scan(self):
        # checked up front, so it raises with or without a conflict, and
        # before a non-DISC operand is reported
        u, spec, a, b = conflict_fixture()
        both = ns.negset_of(u, [], ["a", "b"])
        for left, right in ((a, a), (a, b), (both, a)):
            with pytest.raises(PolicyError, match=r"^unknown policy: 'no-such-policy'$"):
                ns.resolve_odot(left, right, spec, "no-such-policy")

    def test_strict_fails(self):
        _, spec, a, b = conflict_fixture()
        outcome = ns.resolve_odot(a, b, spec, Strict())
        assert isinstance(outcome, Failed)
        assert outcome.pairs == (("a", "b"),)

    def test_dominance_resolves(self):
        # expected repaired value re-verified against the reference DISC check
        u, spec, a, b = conflict_fixture()
        outcome = ns.resolve_odot(a, b, spec, ObjectDominance())
        assert isinstance(outcome, Resolved)
        assert outcome.result == ns.negset_of(u, [], ["a"])
        assert outcome.dropped == frozenset({"b"})
        assert ref_is_disc(as_pair(outcome.result), [("a", "b")], [])
        assert ns.is_disc(outcome.result, spec)

    def test_dominance_chain_drops_both_members_of_a_pair(self):
        # x loses (x, y) to y and wins (x, z), so the pair (x, z) loses both
        u = ns.make_universe(["x", "y", "z"])
        spec = ns.make_contradiction_spec(
            u, strong_pairs=[("x", "y"), ("x", "z")],
            dominance_pairs=[("y", "x"), ("x", "z"), ("y", "z")],
        )
        a = ns.negset_of(u, [], ["x"])
        b = ns.negset_of(u, [], ["y", "z"])
        outcome = ns.resolve_odot(a, b, spec, ObjectDominance())
        assert isinstance(outcome, Resolved)
        assert outcome.dropped == frozenset({"x", "z"})
        assert outcome.result == ns.negset_of(u, [], ["y"])

    def test_dominance_unordered_pair_fails(self):
        u = u2()
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        a = ns.negset_of(u, ["a"], ["a"])
        b = ns.negset_of(u, ["b"], ["b"])
        outcome = ns.resolve_odot(a, b, spec, ObjectDominance())
        assert isinstance(outcome, Failed)
        assert "dominance" in outcome.reason

    def test_agent_priority_keeps_higher_ranked_choice(self):
        u = u2()
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        a = ns.negset_of(u, ["a"], ["a"])
        b = ns.negset_of(u, ["b"], ["b"])
        outcome = ns.resolve_odot(a, b, spec, AgentPriority(("A", "B")), ("A", "B"))
        assert isinstance(outcome, Resolved)
        assert outcome.result == ns.negset_of(u, [], ["a"])

    def test_agent_priority_without_names_is_ambiguous(self):
        u = u2()
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        a = ns.negset_of(u, ["a"], ["a"])
        b = ns.negset_of(u, ["b"], ["b"])
        outcome = ns.resolve_odot(a, b, spec, AgentPriority(("A", "B")), (None, "B"))
        assert isinstance(outcome, Failed)
        assert "ambiguous" in outcome.reason

    def test_agent_priority_unranked_agent_is_an_error(self):
        u = u2()
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        a = ns.negset_of(u, ["a"], ["a"])
        b = ns.negset_of(u, ["b"], ["b"])
        with pytest.raises(PolicyError):
            ns.resolve_odot(a, b, spec, AgentPriority(("A",)), ("A", "B"))

    def test_fewest_necessities_tie_fails(self):
        _, spec, a, b = conflict_fixture()
        outcome = ns.resolve_odot(a, b, spec, FewestNecessities())
        assert isinstance(outcome, Failed)
        assert "incomparable" in outcome.reason

    def test_fewest_necessities_resolves(self):
        u = ns.make_universe(["a", "b", "c"])
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")])
        lean = ns.negset_of(u, [], ["a"])
        heavy = ns.negset_of(u, ["c"], ["b", "c"])
        outcome = ns.resolve_odot(lean, heavy, spec, FewestNecessities())
        assert isinstance(outcome, Resolved)
        # lean has fewer necessities, admits a, so b is dropped
        assert outcome.dropped == frozenset({"b"})
        assert ns.is_disc(outcome.result, spec)

    def test_non_disc_input_rejected(self):
        u, spec, a, _ = conflict_fixture()
        bad = ns.negset_of(u, [], ["a", "b"])
        with pytest.raises(InputNotDisc, match="^left operand is not admitted to discussion$"):
            ns.resolve_odot(bad, a, spec, Strict())
        with pytest.raises(InputNotDisc, match="^right operand is not admitted to discussion$"):
            ns.resolve_odot(a, bad, spec, Strict())

    def test_strict_never_modifies(self):
        u, spec, a, _ = conflict_fixture()
        good = ns.negset_of(u, [], ["a"])
        outcome = ns.resolve_odot(a, good, spec, Strict())
        assert outcome.ok and outcome.result == ns.odot(a, good)


class TestInvariantChecks:
    """Resolution checks its two invariants with code that ``python -O`` keeps.

    Neither can break on DISC operands, so each test lets non-DISC operands
    past the input check.
    """

    @pytest.fixture
    def any_input(self, monkeypatch):
        monkeypatch.setattr(consistency, "is_disc", lambda a, spec: True)

    def test_dropping_a_necessary_object_raises(self, any_input):
        u = u2()
        spec = ns.make_contradiction_spec(u, strong_pairs=[("a", "b")], dominance_pairs=[("b", "a")])
        a = ns.negset_of(u, ["a"], ["a", "b"])  # necessary a sits in a strong pair
        with pytest.raises(AssertionError, match="drop a necessary object"):
            ns.resolve_odot(a, a, spec, ObjectDominance())

    def test_weak_violation_after_minimalization_raises(self, any_input):
        u = u2()
        spec = ns.make_contradiction_spec(u, weak_pairs=[("a", "b")])
        a = ns.negset_of(u, ["a"], ["a", "b"])
        with pytest.raises(AssertionError, match="weak violation"):
            ns.resolve_odot(a, a, spec, Strict())


@st.composite
def disc_setup(draw, max_size=4):
    n = draw(st.integers(2, max_size))
    u = ns.make_universe(list(LETTERS[:n]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = draw(st.lists(st.sampled_from(["none", "strong", "weak"]),
                           min_size=len(pairs), max_size=len(pairs)))
    strong = [(u.objects[i], u.objects[j])
              for (i, j), l in zip(pairs, labels) if l == "strong"]
    weak = [(u.objects[i], u.objects[j])
            for (i, j), l in zip(pairs, labels) if l == "weak"]
    spec = ns.make_contradiction_spec(u, strong, weak)

    def one():
        adm = draw(st.integers(0, u.full_mask))
        nec = draw(st.integers(0, u.full_mask)) & adm
        return ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm))

    return u, spec, strong, weak, one(), one()


class TestDiscProperties:
    @given(disc_setup())
    def test_is_disc_matches_reference(self, data):
        _, spec, strong, weak, a, _ = data
        assert ns.is_disc(a, spec) == ref_is_disc(as_pair(a), strong, weak)

    @given(disc_setup())
    def test_oplus_closure(self, data):
        _, spec, _, _, a, b = data
        if ns.is_disc(a, spec) and ns.is_disc(b, spec):
            assert ns.is_disc(ns.oplus(a, b), spec)

    @given(disc_setup())
    def test_odot_never_weak_violates(self, data):
        _, spec, _, _, a, b = data
        if ns.is_disc(a, spec) and ns.is_disc(b, spec):
            violations = ns.disc_violations(ns.odot(a, b), spec)
            assert all(v.kind == STRONG_IN_ADMISSIBILITY for v in violations)

    @given(disc_setup())
    def test_conflict_locality(self, data):
        _, spec, _, _, a, b = data
        if ns.is_disc(a, spec) and ns.is_disc(b, spec):
            result = ns.odot(a, b)
            for v in ns.disc_violations(result, spec):
                if v.kind == STRONG_IN_ADMISSIBILITY:
                    x, y = v.pair
                    assert x not in result.necessity
                    assert y not in result.necessity


@st.composite
def random_relations(draw, max_size=16):
    n = draw(st.integers(2, max_size))
    u = ns.make_universe([f"o{i}" for i in range(n)])
    index_pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    declared = draw(st.lists(st.tuples(index_pair, st.booleans()), max_size=40))
    kinds = {}
    for (i, j), is_strong in declared:
        kinds.setdefault(frozenset((i, j)), is_strong)  # first declaration wins
    strong = [(u.objects[i], u.objects[j]) for (i, j), _ in declared
              if kinds[frozenset((i, j))]]
    weak = [(u.objects[i], u.objects[j]) for (i, j), _ in declared
            if not kinds[frozenset((i, j))]]
    adm = draw(st.integers(0, u.full_mask))
    nec = draw(st.integers(0, u.full_mask)) & adm
    a = ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm))
    return u, strong, weak, a


def brute_force_violations(u, strong, weak, a):
    """Every sorted pair checked in turn: strong ones first, then weak ones."""
    nec, adm = set(a.necessity.names()), set(a.admissibility.names())

    def by_index(pairs):
        return sorted({tuple(sorted((u.objects.index(x), u.objects.index(y))))
                       for x, y in pairs})

    out = []
    for i, j in by_index(strong):
        x, y = u.objects[i], u.objects[j]
        if x in adm and y in adm:
            out.append((STRONG_IN_ADMISSIBILITY, (x, y)))
    for i, j in by_index(weak):
        x, y = u.objects[i], u.objects[j]
        if x in adm and y in adm and (x in nec or y in nec):
            out.append((WEAK_WITH_NECESSITY, (x, y)))
    return out


class TestDiscAgainstBruteForce:
    @given(random_relations())
    def test_violations_equal_pair_loop(self, data):
        u, strong, weak, a = data
        spec = ns.make_contradiction_spec(u, strong, weak)
        got = [(v.kind, v.pair) for v in ns.disc_violations(a, spec)]
        assert got == brute_force_violations(u, strong, weak, a)
        assert ns.is_disc(a, spec) == ref_is_disc(as_pair(a), strong, weak)


def random_disc_case(rng, max_size=6):
    n = rng.randint(2, max_size)
    u = ns.make_universe(list(LETTERS[:n]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strong, weak, dominance = [], [], []
    for i, j in pairs:
        label = rng.random()
        if label < 0.3:
            strong.append((u.objects[i], u.objects[j]))
            if rng.random() < 0.5:
                dominance.append((u.objects[i], u.objects[j]))
            else:
                dominance.append((u.objects[j], u.objects[i]))
        elif label < 0.45:
            weak.append((u.objects[i], u.objects[j]))
    try:
        spec = ns.make_contradiction_spec(u, strong, weak, dominance)
    except DominanceNotStrictOrder:
        return None

    def draw_disc():
        for _ in range(50):
            adm = rng.randrange(u.full_mask + 1)
            nec = rng.randrange(u.full_mask + 1) & adm
            cand = ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm))
            if ns.is_disc(cand, spec):
                return cand
        return ns.special(u, ns.SpecialKind.EMPTY_N)

    return u, spec, draw_disc(), draw_disc()


@pytest.mark.parametrize("policy_maker", [
    lambda: Strict(),
    lambda: ObjectDominance(),
    lambda: AgentPriority(("A", "B")),
    lambda: FewestNecessities(),
])
def test_resolution_soundness_randomized(policy_maker):
    rng = random.Random(20240817)
    resolved = 0
    for _ in range(800):
        case = random_disc_case(rng)
        if case is None:
            continue
        _, spec, a, b = case
        outcome = ns.resolve_odot(a, b, spec, policy_maker(), ("A", "B"))
        if outcome.ok:
            resolved += 1
            raw = ns.odot(a, b)
            assert ns.is_disc(outcome.result, spec)
            assert outcome.result.necessity == raw.necessity
            dropped_mask = raw.universe.mask_of(outcome.dropped)
            assert outcome.result.admissibility.mask == raw.admissibility.mask & ~dropped_mask
    assert resolved > 0


def test_resolution_soundness_decided_at_three_objects():
    """``resolve_odot`` on every pair of DISC operands over ``a b c``.

    Every strong/weak/none labeling of the three pairs is swept under
    ``Strict``, ``FewestNecessities``, ``AgentPriority`` in both rankings
    with provenance ``("A", "B")``, and ``ObjectDominance`` under each of the
    19 strict dominance orders.

    Three objects decide these properties for every universe.  ``odot``
    works object by object and DISC pair by pair, so restricting the
    operands and the spec to some objects keeps the operands DISC and keeps
    each pair's violation.  Once the preferred operand is fixed, each drop
    rule is local too: a preferred-operand policy drops a member of a
    violating pair that the preferred operand does not admit, and dominance
    drops a pair's loser.  So a failing property shows on one violating
    pair, or on one dropped object together with the pair that drops it.
    That is at most three objects: two when the pairs coincide, three when
    they share an object, as in a dominance chain y > x > z.  The two
    rankings of ``AgentPriority`` fix either operand as the preferred one,
    so the drop rule ``FewestNecessities`` shares is covered for both.

    Each call is repeated with the operands and their provenance swapped,
    which decides that gated ``odot`` is commutative.  The minimalization and
    its violations do not depend on operand order, and every policy picks
    its preferred operand by agent rank or necessity count, both of which
    move with the operand.  So the two outcomes could differ only by a drop
    rule reading an operand's position, which would show on one violating
    pair, inside three objects as above.
    """
    u = ns.make_universe(["a", "b", "c"])
    pairs = list(itertools.combinations(u.objects, 2))
    ordered_pairs = list(itertools.permutations(u.objects, 2))
    sets = [ns.NegotiationSet(ns.FiniteSet(u, nec), ns.FiniteSet(u, adm))
            for adm in range(8) for nec in range(8) if nec & ~adm == 0]
    orders = []
    for chosen in itertools.product((False, True), repeat=len(ordered_pairs)):
        dominance = [p for p, keep in zip(ordered_pairs, chosen) if keep]
        try:
            ns.make_contradiction_spec(u, dominance_pairs=dominance)
        except DominanceNotStrictOrder:
            continue
        orders.append(dominance)
    assert len(orders) == 19

    calls = 0
    for labels in itertools.product(("none", "strong", "weak"), repeat=len(pairs)):
        strong = [p for p, l in zip(pairs, labels) if l == "strong"]
        weak = [p for p, l in zip(pairs, labels) if l == "weak"]
        plain = ns.make_contradiction_spec(u, strong, weak)
        runs = [(plain, Strict(), None), (plain, FewestNecessities(), None),
                (plain, AgentPriority(("A", "B")), 0), (plain, AgentPriority(("B", "A")), 1)]
        runs += [(ns.make_contradiction_spec(u, strong, weak, order), ObjectDominance(), None)
                 for order in orders]
        disc = [s for s in sets if ns.is_disc(s, plain)]
        for a, b in itertools.product(disc, repeat=2):
            raw = ns.odot(a, b)
            violating = [v.pair for v in ns.disc_violations(raw, plain)]
            members = {x for pair in violating for x in pair}
            fewer = a.nec.bit_count() - b.nec.bit_count()
            for spec, policy, preferred in runs:
                calls += 1
                outcome = ns.resolve_odot(a, b, spec, policy, ("A", "B"))
                assert ns.resolve_odot(b, a, spec, policy, ("B", "A")) == outcome
                if isinstance(policy, FewestNecessities) and fewer:
                    preferred = 0 if fewer < 0 else 1
                if not outcome.ok:
                    assert outcome.pairs
                    if isinstance(policy, Strict):
                        assert outcome.reason == "strong conflict"
                    elif isinstance(policy, ObjectDominance):
                        assert outcome.reason == "pair not ordered by dominance"
                    else:
                        assert preferred is None
                        assert outcome.reason.startswith("incomparable")
                    continue
                result, dropped = outcome.result, outcome.dropped
                assert result.necessity == raw.necessity
                assert result.admissibility.mask == raw.adm & ~u.mask_of(dropped)
                assert ns.is_disc(result, spec)
                assert dropped <= members
                assert all(x in dropped or y in dropped for x, y in violating)
                if preferred is not None and violating:
                    keeps = (a, b)[preferred].admissibility
                    assert all((x in keeps) != (y in keeps) for x, y in violating)
                    assert dropped == {x for x in members if x not in keeps}
    assert calls == 110_308
