"""Exhaustive law checker over small universes.

Every algebraic claim about the compromise operators is swept over all
negotiation sets of a small universe (3^n of them for n objects).  Laws
expected to hold must report zero violations; refuted laws must surface at
least one counterexample.  A fixture catalog re-derives every worked
example from raw inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable

from .core import (
    FiniteSet,
    NegotiationSet,
    Universe,
    complement,
    make_universe,
    negset_of,
    odot,
    odot_all,
    oplus,
    oplus_all,
)
from .consistency import (
    WEAK_WITH_NECESSITY,
    disc_violations,
    is_disc,
    make_contradiction_spec,
    ContradictionSpec,
)
from .errors import SizeOutOfRange, UniverseTooLarge, UnknownFixture, UnknownLaw

HOLDS = "holds-everywhere"
COUNTEREXAMPLES = "counterexamples"

ENUMERATION_CAP = 12
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


def enumerate_negsets(universe: Universe, cap: int = ENUMERATION_CAP) -> list[NegotiationSet]:
    n = len(universe)
    if n > cap:
        raise UniverseTooLarge(n, cap)
    return [
        NegotiationSet(FiniteSet(universe, nec), FiniteSet(universe, adm))
        for nec, adm in enumerate_mask_pairs(n)
    ]


def _fmt(universe: Universe, nec: int, adm: int) -> str:
    return str(NegotiationSet(FiniteSet(universe, nec), FiniteSet(universe, adm)))


@dataclass(frozen=True)
class LawReport:
    law: str
    size: int
    checked: int
    verdict: str
    counterexamples: tuple[str, ...]
    violation_count: int
    elapsed: float

    @property
    def matches_expected(self) -> bool:
        expected = LAWS[self.law].expects_counterexample
        found = self.verdict == COUNTEREXAMPLES
        return found == expected


@dataclass(frozen=True)
class LawSpec:
    law_id: str
    cap: int
    expects_counterexample: bool
    checker: Callable


# --- mask-level operators, used in the hot sweeps ---

def _odot(n1, p1, n2, p2):
    return n1 & n2, p1 | p2


def _oplus(n1, p1, n2, p2):
    p = p1 & p2
    return (n1 | n2) & p, p


def _compl(full, n, p):
    return full & ~p, full & ~n


def _sweep_unary(n, limit, predicate):
    u = default_universe(n)
    full = u.full_mask
    sets = enumerate_mask_pairs(n)
    examples, total = [], 0
    for a in sets:
        if not predicate(full, a):
            total += 1
            if len(examples) < limit:
                examples.append(f"A={_fmt(u, *a)}")
    return len(sets), examples, total


def _sweep_pairs(n, limit, predicate):
    u = default_universe(n)
    full = u.full_mask
    sets = enumerate_mask_pairs(n)
    examples, total, checked = [], 0, 0
    for a in sets:
        for b in sets:
            checked += 1
            if not predicate(full, a, b):
                total += 1
                if len(examples) < limit:
                    examples.append(f"A={_fmt(u, *a)} B={_fmt(u, *b)}")
    return checked, examples, total


def _sweep_triples(n, limit, predicate):
    u = default_universe(n)
    full = u.full_mask
    sets = enumerate_mask_pairs(n)
    examples, total, checked = [], 0, 0
    for a in sets:
        for b in sets:
            for c in sets:
                checked += 1
                if not predicate(full, a, b, c):
                    total += 1
                    if len(examples) < limit:
                        examples.append(
                            f"A={_fmt(u, *a)} B={_fmt(u, *b)} C={_fmt(u, *c)}"
                        )
    return checked, examples, total


# --- predicates ---

def _p_idem_odot(full, a):
    return _odot(*a, *a) == a


def _p_idem_oplus(full, a):
    return _oplus(*a, *a) == a


def _p_invol(full, a):
    return _compl(full, *_compl(full, *a)) == a


def _p_comm_odot(full, a, b):
    return _odot(*a, *b) == _odot(*b, *a)


def _p_comm_oplus(full, a, b):
    return _oplus(*a, *b) == _oplus(*b, *a)


def _p_assoc_odot(full, a, b, c):
    return _odot(*_odot(*a, *b), *c) == _odot(*a, *_odot(*b, *c))


def _p_assoc_oplus(full, a, b, c):
    return _oplus(*_oplus(*a, *b), *c) == _oplus(*a, *_oplus(*b, *c))


def _p_absorb_oplus_odot(full, a, b):
    return _oplus(*a, *_odot(*a, *b)) == a


def _p_absorb_odot_oplus(full, a, b):
    return _odot(*a, *_oplus(*a, *b)) == a


def _p_dist_oplus_over_odot(full, a, b, c):
    return _oplus(*a, *_odot(*b, *c)) == _odot(*_oplus(*a, *b), *_oplus(*a, *c))


def _p_dist_odot_over_oplus(full, a, b, c):
    return _odot(*a, *_oplus(*b, *c)) == _oplus(*_odot(*a, *b), *_odot(*a, *c))


def _subset(x, y):
    return x & ~y == 0


def _p_bounds_upper(full, a1, a2, b):
    # family {A1, A2} below B: minimalization ⊆ union ⊆ B
    if not (_subset(a1[0], b[0]) and _subset(a1[1], b[1])
            and _subset(a2[0], b[0]) and _subset(a2[1], b[1])):
        return True
    od = _odot(*a1, *a2)
    un = (a1[0] | a2[0], a1[1] | a2[1])
    return (_subset(od[0], un[0]) and _subset(od[1], un[1])
            and _subset(un[0], b[0]) and _subset(un[1], b[1]))


def _p_bounds_lower(full, a1, a2, b):
    if not (_subset(b[0], a1[0]) and _subset(b[1], a1[1])
            and _subset(b[0], a2[0]) and _subset(b[1], a2[1])):
        return True
    it = (a1[0] & a2[0], a1[1] & a2[1])
    op = _oplus(*a1, *a2)
    return (_subset(b[0], it[0]) and _subset(b[1], it[1])
            and _subset(it[0], op[0]) and _subset(it[1], op[1]))


def _p_demorgan_1(full, a, b):
    lhs = _compl(full, *_odot(*a, *b))
    rhs = _oplus(*_compl(full, *a), *_compl(full, *b))
    return _subset(lhs[0], rhs[0])


def _p_demorgan_2(full, a, b):
    lhs = _oplus(*_compl(full, *a), *_compl(full, *b))
    rhs = _compl(full, *_odot(*a, *b))
    return _subset(lhs[1], rhs[1])


def _p_demorgan_3(full, a, b):
    lhs = _odot(*_compl(full, *a), *_compl(full, *b))
    rhs = _compl(full, *_oplus(*a, *b))
    return _subset(lhs[0], rhs[0])


def _p_demorgan_4(full, a, b):
    lhs = _compl(full, *_oplus(*a, *b))
    rhs = _odot(*_compl(full, *a), *_compl(full, *b))
    return _subset(lhs[1], rhs[1])


def _p_identity(full, a):
    nec, adm = a
    top = (full, full)
    bottom = (0, 0)
    half = (0, full)
    return (
        _odot(*a, *top) == (nec, full)
        and _odot(*a, *bottom) == (0, adm)
        and _oplus(*a, *top) == (adm, adm)
        and _oplus(*a, *bottom) == bottom
        and _odot(*a, *half) == half
        and _oplus(*a, *half) == a
    )


def _check_points(n, limit):
    checked, examples, total = 0, [], 0
    u = default_universe(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            x, y = 1 << i, 1 << j
            for gx, gy in product((0, 1), repeat=2):
                checked += 1
                px = (x if gx else 0, x)
                py = (y if gy else 0, y)
                ok = (_oplus(*px, *py) == (0, 0)
                      and _odot(*px, *py) == (0, x | y))
                if not ok:
                    total += 1
                    if len(examples) < limit:
                        examples.append(
                            f"x={u.objects[i]}({'1' if gx else '0.5'}) "
                            f"y={u.objects[j]}({'1' if gy else '0.5'})"
                        )
    return checked, examples, total


def _all_pair_labelings(n) -> Iterable[tuple[tuple, tuple]]:
    """Every assignment of {strong, weak, none} to unordered object pairs."""
    pairs = list(combinations(range(n), 2))
    for labels in product(("none", "strong", "weak"), repeat=len(pairs)):
        strong = tuple(p for p, l in zip(pairs, labels) if l == "strong")
        weak = tuple(p for p, l in zip(pairs, labels) if l == "weak")
        yield strong, weak


def _disc_sweep(n, limit, spec, check):
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
    checked, examples, total = 0, [], 0
    for sp in specs:
        disc_sets = [a for a in sets if is_disc(a, sp)]
        for a in disc_sets:
            for b in disc_sets:
                checked += 1
                if not check(a, b, sp):
                    total += 1
                    if len(examples) < limit:
                        examples.append(
                            f"A={a} B={b} strong={sorted(sp.strong)} weak={sorted(sp.weak)}"
                        )
    return checked, examples, total


def _check_disc_closure(n, limit, spec=None):
    return _disc_sweep(n, limit, spec, lambda a, b, sp: is_disc(oplus(a, b), sp))


def _check_disc_partial(n, limit, spec=None):
    def check(a, b, sp):
        return not any(
            v.kind == WEAK_WITH_NECESSITY for v in disc_violations(odot(a, b), sp)
        )

    return _disc_sweep(n, limit, spec, check)


def _check_fold(op_all, op_bin):
    def run(n, limit):
        u = default_universe(n)
        sets = enumerate_negsets(u)
        checked, examples, total = 0, [], 0
        for size in (1, 2, 3):
            for family in product(sets, repeat=size):
                checked += 1
                direct = op_all(list(family))
                folded = family[0]
                for item in family[1:]:
                    folded = op_bin(folded, item)
                if direct != folded:
                    total += 1
                    if len(examples) < limit:
                        examples.append(" ".join(str(a) for a in family))
        return checked, examples, total

    return run


def _wrap_unary(pred):
    return lambda n, limit: _sweep_unary(n, limit, pred)


def _wrap_pairs(pred):
    return lambda n, limit: _sweep_pairs(n, limit, pred)


def _wrap_triples(pred):
    return lambda n, limit: _sweep_triples(n, limit, pred)


LAWS: dict[str, LawSpec] = {
    spec.law_id: spec
    for spec in [
        LawSpec("idempotence-odot", 6, False, _wrap_unary(_p_idem_odot)),
        LawSpec("idempotence-oplus", 6, False, _wrap_unary(_p_idem_oplus)),
        LawSpec("complement-involution", 6, False, _wrap_unary(_p_invol)),
        LawSpec("identity-lemmas", 6, False, _wrap_unary(_p_identity)),
        LawSpec("commutativity-odot", 5, False, _wrap_pairs(_p_comm_odot)),
        LawSpec("commutativity-oplus", 5, False, _wrap_pairs(_p_comm_oplus)),
        LawSpec("absorption-oplus-odot", 5, False, _wrap_pairs(_p_absorb_oplus_odot)),
        LawSpec("absorption-odot-oplus", 5, True, _wrap_pairs(_p_absorb_odot_oplus)),
        LawSpec("demorgan-weak-1", 5, False, _wrap_pairs(_p_demorgan_1)),
        LawSpec("demorgan-weak-2", 5, False, _wrap_pairs(_p_demorgan_2)),
        LawSpec("demorgan-weak-3", 5, False, _wrap_pairs(_p_demorgan_3)),
        LawSpec("demorgan-weak-4", 5, False, _wrap_pairs(_p_demorgan_4)),
        LawSpec("associativity-odot", 4, False, _wrap_triples(_p_assoc_odot)),
        LawSpec("associativity-oplus", 4, False, _wrap_triples(_p_assoc_oplus)),
        LawSpec("distributivity-oplus-over-odot", 4, True, _wrap_triples(_p_dist_oplus_over_odot)),
        LawSpec("distributivity-odot-over-oplus", 4, True, _wrap_triples(_p_dist_odot_over_oplus)),
        LawSpec("bounds-upper", 4, False, _wrap_triples(_p_bounds_upper)),
        LawSpec("bounds-lower", 4, False, _wrap_triples(_p_bounds_lower)),
        LawSpec("point-lemmas", 6, False, _check_points),
        LawSpec("fold-agreement-odot", 3, False, _check_fold(odot_all, odot)),
        LawSpec("fold-agreement-oplus", 3, False, _check_fold(oplus_all, oplus)),
        LawSpec("disc-closure-oplus", 3, False, _check_disc_closure),
        LawSpec("disc-odot-weak-partial", 3, False, _check_disc_partial),
    ]
}

_DISC_LAWS = ("disc-closure-oplus", "disc-odot-weak-partial")


def law_ids() -> list[str]:
    return list(LAWS)


def check_law(
    law_id: str,
    n: int,
    spec: ContradictionSpec | None = None,
    limit: int = 5,
    allow_over_cap: bool = False,
) -> LawReport:
    try:
        law = LAWS[law_id]
    except KeyError:
        raise UnknownLaw(law_id) from None
    if not 1 <= n <= len(_LETTERS):  # no cap override reaches past the default universe
        raise SizeOutOfRange(n, len(_LETTERS))
    if n > law.cap and not allow_over_cap:
        raise UniverseTooLarge(n, law.cap)
    start = time.perf_counter()
    if law_id in _DISC_LAWS:
        checked, examples, total = law.checker(n, limit, spec)
    else:
        checked, examples, total = law.checker(n, limit)
    elapsed = time.perf_counter() - start
    verdict = COUNTEREXAMPLES if total else HOLDS
    return LawReport(law_id, n, checked, verdict, tuple(examples), total, elapsed)


# --- fixture catalog: worked examples re-derived from raw inputs ---

@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    passed: bool
    note: str = ""


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
