"""Exhaustive law checker, decided on a two-object universe.

Pairing a negotiation set with its orthopair grades every object 1
(necessary), 1/2 (admissible only) or 0.  ``odot``, ``oplus`` and the
complement act on each object separately, so the algebra over a universe U
is the direct power 3^U of the three-element algebra.  Every law in the
catalog is an equation, a conjunctive Horn inclusion, or a condition on
pairs of objects (DISC consistency, the point lemmas).  Direct powers
preserve equations and Horn inclusions, and any counterexample projects
onto the at most two objects it involves (Birkhoff 1935; Fitting 1991 for
the three-valued knowledge order).  A sweep over all 3^2 negotiation sets
of a two-object universe therefore decides every law.  One object is not
enough: the point lemmas need two distinct objects.  Larger sizes, up to
the twelve-object default universe, remain available as a cross-check.

Laws expected to hold must report zero violations; refuted laws must
surface at least one counterexample.  A fixture catalog re-derives every
worked example from raw inputs.
"""

from __future__ import annotations

import time
from functools import partial, reduce
from itertools import combinations, permutations, product
from typing import Callable, Iterable

from .core import (
    NegotiationSet,
    Record,
    Universe,
    _from_masks,
    complement,
    complement_masks,
    make_universe,
    negset_of,
    odot,
    odot_all,
    odot_masks,
    oplus,
    oplus_all,
    oplus_masks,
)
from .consistency import (
    WEAK_WITH_NECESSITY,
    disc_violations,
    is_disc,
    make_contradiction_spec,
    ContradictionSpec,
)
from .errors import SizeOutOfRange, UnknownFixture, UnknownLaw

HOLDS = "holds-everywhere"
COUNTEREXAMPLES = "counterexamples"

DECIDING_SIZE = 2  # see the module docstring
_LETTERS = "abcdefghijkl"


def default_universe(n: int) -> Universe:
    return make_universe(list(_LETTERS[:n]))


def enumerate_mask_pairs(n: int) -> list[tuple[int, int]]:
    """All (necessity, admissibility) mask pairs with nec ⊆ adm, deterministic order."""
    out = []
    for adm in range(1 << n):
        sub = adm
        subs = []
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & adm
        # submask trick yields decreasing order; reverse for an ascending sweep
        out.extend((nec, adm) for nec in reversed(subs))
    return out


def enumerate_negsets(universe: Universe) -> list[NegotiationSet]:
    n = len(universe)
    if n > len(_LETTERS):
        raise SizeOutOfRange(n, len(_LETTERS))
    return [_from_masks(universe, nec, adm) for nec, adm in enumerate_mask_pairs(n)]


def _fmt(universe: Universe, nec: int, adm: int) -> str:
    return str(_from_masks(universe, nec, adm))


class LawReport(Record):
    __slots__ = _fields = ("law", "size", "checked", "verdict", "counterexamples",
                           "violation_count", "elapsed")

    @property
    def matches_expected(self) -> bool:
        expected = LAWS[self.law].expects_counterexample
        found = self.verdict == COUNTEREXAMPLES
        return found == expected


# A law's cases at size n: the tuples to check, a predicate taking one tuple
# as arguments, and the text of a tuple reported as a counterexample.
Cases = tuple[Iterable[tuple], Callable[..., bool], Callable[[tuple], str]]


class LawSpec(Record):
    __slots__ = _fields = ("law_id", "expects_counterexample", "cases")


def _sweep(arity, predicate):
    """Cases of a mask-level law: every ``arity``-tuple of sets, named A, B, C."""
    def cases(n, spec):
        u = default_universe(n)

        def describe(sets):
            return " ".join(f"{name}={_fmt(u, *a)}" for name, a in zip("ABC", sets))

        tuples = product(enumerate_mask_pairs(n), repeat=arity)
        return tuples, partial(predicate, u.full_mask), describe

    return cases


# --- predicates ---

def _p_idem_odot(full, a):
    return odot_masks(*a, *a) == a


def _p_idem_oplus(full, a):
    return oplus_masks(*a, *a) == a


def _p_invol(full, a):
    return complement_masks(full, *complement_masks(full, *a)) == a


def _p_comm_odot(full, a, b):
    return odot_masks(*a, *b) == odot_masks(*b, *a)


def _p_comm_oplus(full, a, b):
    return oplus_masks(*a, *b) == oplus_masks(*b, *a)


def _p_assoc_odot(full, a, b, c):
    return odot_masks(*odot_masks(*a, *b), *c) == odot_masks(*a, *odot_masks(*b, *c))


def _p_assoc_oplus(full, a, b, c):
    return oplus_masks(*oplus_masks(*a, *b), *c) == oplus_masks(*a, *oplus_masks(*b, *c))


def _p_absorb_oplus_odot(full, a, b):
    return oplus_masks(*a, *odot_masks(*a, *b)) == a


def _p_absorb_odot_oplus(full, a, b):
    return odot_masks(*a, *oplus_masks(*a, *b)) == a


def _p_dist_oplus_over_odot(full, a, b, c):
    return (oplus_masks(*a, *odot_masks(*b, *c))
            == odot_masks(*oplus_masks(*a, *b), *oplus_masks(*a, *c)))


def _p_dist_odot_over_oplus(full, a, b, c):
    return (odot_masks(*a, *oplus_masks(*b, *c))
            == oplus_masks(*odot_masks(*a, *b), *odot_masks(*a, *c)))


def _subset(x, y):
    return x & ~y == 0


def _p_bounds_upper(full, a1, a2, b):
    # family {A1, A2} below B: minimalization ⊆ union ⊆ B
    if not (_subset(a1[0], b[0]) and _subset(a1[1], b[1])
            and _subset(a2[0], b[0]) and _subset(a2[1], b[1])):
        return True
    od = odot_masks(*a1, *a2)
    un = (a1[0] | a2[0], a1[1] | a2[1])
    return (_subset(od[0], un[0]) and _subset(od[1], un[1])
            and _subset(un[0], b[0]) and _subset(un[1], b[1]))


def _p_bounds_lower(full, a1, a2, b):
    if not (_subset(b[0], a1[0]) and _subset(b[1], a1[1])
            and _subset(b[0], a2[0]) and _subset(b[1], a2[1])):
        return True
    it = (a1[0] & a2[0], a1[1] & a2[1])
    op = oplus_masks(*a1, *a2)
    return (_subset(b[0], it[0]) and _subset(b[1], it[1])
            and _subset(it[0], op[0]) and _subset(it[1], op[1]))


def _p_demorgan_1(full, a, b):
    lhs = complement_masks(full, *odot_masks(*a, *b))
    rhs = oplus_masks(*complement_masks(full, *a), *complement_masks(full, *b))
    return _subset(lhs[0], rhs[0])


def _p_demorgan_2(full, a, b):
    lhs = oplus_masks(*complement_masks(full, *a), *complement_masks(full, *b))
    rhs = complement_masks(full, *odot_masks(*a, *b))
    return _subset(lhs[1], rhs[1])


def _p_demorgan_3(full, a, b):
    lhs = odot_masks(*complement_masks(full, *a), *complement_masks(full, *b))
    rhs = complement_masks(full, *oplus_masks(*a, *b))
    return _subset(lhs[0], rhs[0])


def _p_demorgan_4(full, a, b):
    lhs = complement_masks(full, *oplus_masks(*a, *b))
    rhs = odot_masks(*complement_masks(full, *a), *complement_masks(full, *b))
    return _subset(lhs[1], rhs[1])


def _p_identity(full, a):
    nec, adm = a
    top = (full, full)
    bottom = (0, 0)
    half = (0, full)
    return (
        odot_masks(*a, *top) == (nec, full)
        and odot_masks(*a, *bottom) == (0, adm)
        and oplus_masks(*a, *top) == (adm, adm)
        and oplus_masks(*a, *bottom) == bottom
        and odot_masks(*a, *half) == half
        and oplus_masks(*a, *half) == a
    )


def _points(n, spec):
    """Both point lemmas for every ordered pair of distinct objects and grades."""
    u = default_universe(n)
    tuples = (
        (i, j, gx, gy)
        for i, j in permutations(range(n), 2)
        for gx, gy in product((0, 1), repeat=2)
    )

    def holds(i, j, gx, gy):
        x, y = 1 << i, 1 << j
        px = (x if gx else 0, x)
        py = (y if gy else 0, y)
        return oplus_masks(*px, *py) == (0, 0) and odot_masks(*px, *py) == (0, x | y)

    def describe(t):
        i, j, gx, gy = t
        return (f"x={u.objects[i]}({'1' if gx else '0.5'}) "
                f"y={u.objects[j]}({'1' if gy else '0.5'})")

    return tuples, holds, describe


def _all_pair_labelings(n) -> Iterable[tuple[tuple, tuple]]:
    """Every assignment of {strong, weak, none} to unordered object pairs."""
    pairs = list(combinations(range(n), 2))
    for labels in product(("none", "strong", "weak"), repeat=len(pairs)):
        strong = tuple(p for p, l in zip(pairs, labels) if l == "strong")
        weak = tuple(p for p, l in zip(pairs, labels) if l == "weak")
        yield strong, weak


def _disc_law(holds):
    """Cases of a DISC law: pairs of consistent sets under the given spec, or
    under every labeling of object pairs when none is given."""
    def cases(n, spec):
        u = default_universe(n)
        sets = enumerate_negsets(u)
        if spec is not None:
            specs = [spec]
        else:
            specs = [
                make_contradiction_spec(
                    u,
                    [(u.objects[i], u.objects[j]) for i, j in strong],
                    [(u.objects[i], u.objects[j]) for i, j in weak],
                )
                for strong, weak in _all_pair_labelings(n)
            ]

        def tuples():
            for sp in specs:
                disc_sets = [a for a in sets if is_disc(a, sp)]
                for a, b in product(disc_sets, repeat=2):
                    yield a, b, sp

        def describe(t):
            a, b, sp = t
            return f"A={a} B={b} strong={sorted(sp.strong)} weak={sorted(sp.weak)}"

        return tuples(), holds, describe

    return cases


def _disc_closed(a, b, sp):
    return is_disc(oplus(a, b), sp)


def _disc_partial(a, b, sp):
    return not any(
        v.kind == WEAK_WITH_NECESSITY for v in disc_violations(odot(a, b), sp)
    )


def _fold(op):
    """Cases of a fold law: families of one to three sets, n-ary form against the fold."""
    def cases(n, spec):
        # looked up when the cases run, so a wrapper set on this module sees every call
        op_all, op_bin = globals()[f"{op}_all"], globals()[op]
        sets = enumerate_negsets(default_universe(n))
        tuples = (family for size in (1, 2, 3) for family in product(sets, repeat=size))

        def holds(*family):
            return op_all(list(family)) == reduce(op_bin, family)

        return tuples, holds, lambda family: " ".join(str(a) for a in family)

    return cases


LAWS: dict[str, LawSpec] = {
    spec.law_id: spec
    for spec in [
        LawSpec("idempotence-odot", False, _sweep(1, _p_idem_odot)),
        LawSpec("idempotence-oplus", False, _sweep(1, _p_idem_oplus)),
        LawSpec("complement-involution", False, _sweep(1, _p_invol)),
        LawSpec("identity-lemmas", False, _sweep(1, _p_identity)),
        LawSpec("commutativity-odot", False, _sweep(2, _p_comm_odot)),
        LawSpec("commutativity-oplus", False, _sweep(2, _p_comm_oplus)),
        LawSpec("absorption-oplus-odot", False, _sweep(2, _p_absorb_oplus_odot)),
        LawSpec("absorption-odot-oplus", True, _sweep(2, _p_absorb_odot_oplus)),
        LawSpec("demorgan-weak-1", False, _sweep(2, _p_demorgan_1)),
        LawSpec("demorgan-weak-2", False, _sweep(2, _p_demorgan_2)),
        LawSpec("demorgan-weak-3", False, _sweep(2, _p_demorgan_3)),
        LawSpec("demorgan-weak-4", False, _sweep(2, _p_demorgan_4)),
        LawSpec("associativity-odot", False, _sweep(3, _p_assoc_odot)),
        LawSpec("associativity-oplus", False, _sweep(3, _p_assoc_oplus)),
        LawSpec("distributivity-oplus-over-odot", True, _sweep(3, _p_dist_oplus_over_odot)),
        LawSpec("distributivity-odot-over-oplus", True, _sweep(3, _p_dist_odot_over_oplus)),
        LawSpec("bounds-upper", False, _sweep(3, _p_bounds_upper)),
        LawSpec("bounds-lower", False, _sweep(3, _p_bounds_lower)),
        LawSpec("point-lemmas", False, _points),
        LawSpec("fold-agreement-odot", False, _fold("odot")),
        LawSpec("fold-agreement-oplus", False, _fold("oplus")),
        LawSpec("disc-closure-oplus", False, _disc_law(_disc_closed)),
        LawSpec("disc-odot-weak-partial", False, _disc_law(_disc_partial)),
    ]
}


def law_ids() -> list[str]:
    return list(LAWS)


def check_law(
    law_id: str,
    n: int = DECIDING_SIZE,
    spec: ContradictionSpec | None = None,
    limit: int = 5,
) -> LawReport:
    """Sweep one law over every case at size n; ``spec`` fixes the DISC laws' relations."""
    try:
        law = LAWS[law_id]
    except KeyError:
        raise UnknownLaw(law_id) from None
    if not 1 <= n <= len(_LETTERS):
        raise SizeOutOfRange(n, len(_LETTERS))
    start = time.perf_counter()
    tuples, holds, describe = law.cases(n, spec)
    examples, total, checked = [], 0, 0
    for checked, t in enumerate(tuples, 1):
        if not holds(*t):
            total += 1
            if len(examples) < limit:
                examples.append(describe(t))
    elapsed = time.perf_counter() - start
    verdict = COUNTEREXAMPLES if total else HOLDS
    return LawReport(law_id, n, checked, verdict, tuple(examples), total, elapsed)


# --- fixture catalog: worked examples re-derived from raw inputs ---

class FixtureResult(Record):
    __slots__ = _fields = ("fixture_id", "passed", "note")
    _defaults = ("",)


TRIP_UNIVERSE = make_universe(list("abcdefghikl"))  # eleven items, no "j"
TRIP_AGENTS = {
    "A": (["a", "d"], ["a", "d", "f", "g", "h"]),
    "B": (["a", "b", "d"], ["a", "b", "d", "f", "i", "l"]),
    "C": (["a", "h"], ["a", "d", "h", "k"]),
}


def trip_env() -> dict[str, NegotiationSet]:
    return {
        name: negset_of(TRIP_UNIVERSE, nec, adm)
        for name, (nec, adm) in TRIP_AGENTS.items()
    }


def _fixture_demorgan() -> FixtureResult:
    u = make_universe(list("abcdefg"))
    a = negset_of(u, ["a", "b"], ["a", "b", "c", "d"])
    b = negset_of(u, ["c", "d"], ["c", "d", "g"])
    ca, cb = complement(a), complement(b)
    lhs = oplus(ca, cb)
    rhs = complement(odot(a, b))
    ok = (
        ca == negset_of(u, ["e", "f", "g"], ["c", "d", "e", "f", "g"])
        and cb == negset_of(u, ["a", "b", "e", "f"], ["a", "b", "e", "f", "g"])
        and lhs == negset_of(u, ["e", "f", "g"], ["e", "f", "g"])
        and rhs == negset_of(u, ["e", "f"], list("abcdefg"))
        and not lhs.necessity.issubset(rhs.necessity)
        and not rhs.admissibility.issubset(lhs.admissibility)
    )
    return FixtureResult(
        "demorgan-counterexample", ok,
        "weak inclusions are strict: neither direction upgrades to equality",
    )


def _fixture_trip_odot() -> FixtureResult:
    env = trip_env()
    step = odot(env["A"], env["B"])
    result = odot(step, env["C"])
    ok = (
        step == negset_of(TRIP_UNIVERSE, ["a", "d"], list("abdfghil"))
        and result == negset_of(TRIP_UNIVERSE, ["a"], list("abdfghikl"))
    )
    return FixtureResult("trip-odot-chain", ok)


def _fixture_trip_oplus() -> FixtureResult:
    env = trip_env()
    step = oplus(env["A"], env["B"])
    result = oplus(step, env["C"])
    expected_step = negset_of(TRIP_UNIVERSE, ["a", "d"], ["a", "d", "f"])
    expected = negset_of(TRIP_UNIVERSE, ["a", "d"], ["a", "d"])
    ok = step == expected_step and result == expected and result == oplus_all(
        [env["A"], env["B"], env["C"]]
    )
    return FixtureResult(
        "trip-oplus-chain", ok,
        "direct evaluation gives [{a d} {a d}]; the source text prints [{a} {a d}], "
        "which drops d although d is necessary for B and admissible for all three",
    )


def _fixture_trip_mixed() -> FixtureResult:
    env = trip_env()
    step = oplus(env["B"], env["C"])
    result = odot(step, env["A"])
    ok = (
        step == negset_of(TRIP_UNIVERSE, ["a", "d"], ["a", "d"])
        and result == negset_of(TRIP_UNIVERSE, ["a", "d"], ["a", "d", "f", "g", "h"])
    )
    return FixtureResult(
        "trip-mixed-chain", ok,
        "direct evaluation gives [{a d} {a d f g h}]; the source text prints "
        "[{a} {a d f g h}] (same d discrepancy as the oplus chain)",
    )


def _fixture_absorption() -> FixtureResult:
    u = make_universe(["x", "b"])
    a = negset_of(u, ["x"], ["x"])
    b = negset_of(u, ["b"], ["b"])
    inner = oplus(a, b)
    result = odot(a, inner)
    ok = (
        inner == negset_of(u, [], [])
        and result == negset_of(u, [], ["x"])
        and result != a
    )
    return FixtureResult("absorption-counterexample", ok)


def _fixture_dist_oplus() -> FixtureResult:
    u = make_universe(["a", "b", "c", "d", "x"])
    a = negset_of(u, ["x"], ["a", "x"])
    b = negset_of(u, ["b"], ["b", "d"])
    c = negset_of(u, ["c"], ["c", "x"])
    lhs = oplus(a, odot(b, c))
    rhs = odot(oplus(a, b), oplus(a, c))
    ok = (
        odot(b, c) == negset_of(u, [], ["b", "c", "d", "x"])
        and lhs == negset_of(u, ["x"], ["x"])
        and oplus(a, b) == negset_of(u, [], [])
        and oplus(a, c) == negset_of(u, ["x"], ["x"])
        and rhs == negset_of(u, [], ["x"])
        and lhs != rhs
    )
    return FixtureResult("distributivity-oplus-counterexample", ok)


def _fixture_dist_odot() -> FixtureResult:
    u = make_universe(["a", "x", "b", "c"])
    a = negset_of(u, ["a"], ["a"])
    b = negset_of(u, ["x"], ["x", "b"])
    c = negset_of(u, ["x", "a"], ["x", "a", "c"])
    lhs = odot(a, oplus(b, c))
    rhs = oplus(odot(a, b), odot(a, c))
    ok = (
        odot(a, b) == negset_of(u, [], ["a", "x", "b"])
        and odot(a, c) == negset_of(u, ["a"], ["x", "a", "c"])
        and rhs == negset_of(u, ["a"], ["a", "x"])
        and oplus(b, c) == negset_of(u, ["x"], ["x"])
        and lhs == negset_of(u, [], ["a", "x"])
        and lhs != rhs
    )
    return FixtureResult("distributivity-odot-counterexample", ok)


def _fixture_disc_failure() -> FixtureResult:
    u = make_universe(["a", "b"])
    spec = make_contradiction_spec(u, strong_pairs=[("a", "b")])
    a = negset_of(u, ["a"], ["a"])
    b = negset_of(u, ["b"], ["b"])
    result = odot(a, b)
    violations = disc_violations(result, spec)
    ok = (
        is_disc(a, spec)
        and is_disc(b, spec)
        and result == negset_of(u, [], ["a", "b"])
        and [(v.kind, v.pair) for v in violations] == [("strong-in-admissibility", ("a", "b"))]
    )
    return FixtureResult("disc-failure", ok)


FIXTURES: dict[str, Callable[[], FixtureResult]] = {
    "demorgan-counterexample": _fixture_demorgan,
    "trip-odot-chain": _fixture_trip_odot,
    "trip-oplus-chain": _fixture_trip_oplus,
    "trip-mixed-chain": _fixture_trip_mixed,
    "absorption-counterexample": _fixture_absorption,
    "distributivity-oplus-counterexample": _fixture_dist_oplus,
    "distributivity-odot-counterexample": _fixture_dist_odot,
    "disc-failure": _fixture_disc_failure,
}


def fixture_ids() -> list[str]:
    return list(FIXTURES)


def verify_fixture(fixture_id: str) -> FixtureResult:
    try:
        return FIXTURES[fixture_id]()
    except KeyError:
        raise UnknownFixture(fixture_id) from None
