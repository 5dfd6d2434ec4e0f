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
the twelve-object default universe, remain available as a cross-check; a
law over two or more sets stops at eight, where its tables reach
``TABLE_LIMIT``.
A sweep reads operator tables, built with core's mask arithmetic once per
``laws`` command, and decides one row of verdicts per first set at a time.

Laws expected to hold must report zero violations; refuted laws must
surface at least one counterexample.  A fixture catalog re-derives every
worked example from raw inputs.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import chain, combinations, compress, islice, permutations, product, tee
from operator import eq, itemgetter, not_
from typing import Callable

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
from .errors import NegativeLimit, SizeOutOfRange, TableTooLarge, UnknownFixture, UnknownLaw

HOLDS = "holds-everywhere"
COUNTEREXAMPLES = "counterexamples"

DECIDING_SIZE = 2  # see the module docstring
_LETTERS = "abcdefghijkl"
TABLE_LIMIT = 3 ** 16  # entries of one s×s operator table: s² at n = 8, s = 3^n sets


def default_universe(n: int) -> Universe:
    return make_universe(list(_LETTERS[:n]))


def enumerate_mask_pairs(n: int) -> list[tuple[int, int]]:
    """All (necessity, admissibility) mask pairs with nec ⊆ adm, deterministic order."""
    out = []
    for adm in range(1 << n):
        subs = [adm]  # the submasks of adm, in decreasing order
        while subs[-1]:
            subs.append((subs[-1] - 1) & adm)
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
        return (self.verdict == COUNTEREXAMPLES) == LAWS[self.law].expects_counterexample


class LawSpec(Record):
    """``cases(n, spec, tables)`` gives a law's tuples at size n, its verdicts as
    lists of booleans in the same order, and the text of a counterexample."""
    __slots__ = _fields = ("law_id", "expects_counterexample", "cases")


class _Tables:
    """The sets of size n, numbered in ``enumerate_mask_pairs(n)`` order, and tables built
    on first read: ``odot[i][j]`` numbers set i odot set j, ``le[i][j]`` is set i ⊆ set j.
    Reading an s×s table of more than ``TABLE_LIMIT`` entries raises ``TableTooLarge``."""

    def __init__(self, n):
        self.n, self.pairs, self.full = n, enumerate_mask_pairs(n), (1 << n) - 1

    _number = cached_property(lambda self: {a: i for i, a in enumerate(self.pairs)})

    def _square(self):
        """The s sets, once an s×s table of them is known to be within the limit."""
        entries = len(self.pairs) ** 2
        if entries > TABLE_LIMIT:
            raise TableTooLarge(self.n, entries, TABLE_LIMIT)
        return self.pairs

    def _binary(self, op):
        pairs = self._square()
        return [[self._number[op(*a, *b)] for b in pairs] for a in pairs]

    odot = cached_property(lambda self: self._binary(odot_masks))
    oplus = cached_property(lambda self: self._binary(oplus_masks))
    complement = cached_property(lambda self: [
        self._number[complement_masks(self.full, *a)] for a in self.pairs])
    union = cached_property(lambda self: self._binary(lambda n, a, m, b: (n | m, a | b)))
    inter = cached_property(lambda self: self._binary(lambda n, a, m, b: (n & m, a & b)))
    le = cached_property(lambda self: [[not (n & ~m or a & ~b) for m, b in self.pairs]
                                       for n, a in self._square()])
    ge = cached_property(lambda self: [list(c) for c in zip(*self.le)])


def _sweep(arity, rows):
    """Cases of a law over ``arity`` sets A, B, C: every tuple of set numbers, and
    ``rows(t)``, the verdicts read from the tables t, one row per first set."""
    def cases(n, spec, t):
        u = default_universe(n)

        def describe(sets):
            return " ".join(f"{name}={_fmt(u, *t.pairs[i])}" for name, i in zip("ABC", sets))

        return product(range(len(t.pairs)), repeat=arity), rows(t), describe

    return cases


def _each(holds):
    return _sweep(1, lambda t: ([holds(t.full, a)] for a in t.pairs))


def _identity(full, a):
    """A against [U U], [∅ ∅] and [∅ U]."""
    (nec, adm), ends = a, ((full, full), (0, 0), (0, full))
    return ([odot_masks(*a, *e) for e in ends] == [(nec, full), (0, adm), (0, full)]
            and [oplus_masks(*a, *e) for e in ends] == [(adm, adm), (0, 0), a])


def _commutes(op):
    return ([x == y for x, y in zip(row, map(itemgetter(a), op))] for a, row in enumerate(op))


def _absorbs(outer, inner):
    return ([outer[a][x] == a for x in inner[a]] for a in range(len(outer)))


def _associates(op):
    # row A: (A op B) op C against A op (B op C)
    return ([x == oa[y] for ab, b in zip(map(op.__getitem__, oa), op) for x, y in zip(ab, b)]
            for oa in op)


def _distributes(outer, inner):
    # row A: A outer (B inner C) against (A outer B) inner (A outer C)
    return ([oa[x] == ab[y] for b, ab in zip(inner, map(inner.__getitem__, oa))
             for x, y in zip(b, oa)] for oa in outer)


def _demorgan(t, inner, dual, m, below):
    """Mask m of c(A inner B) against mask m of cA dual cB: ⊆ if ``below``, else ⊇."""
    c, masks = t.complement, [pair[m] for pair in t.pairs]
    left = [masks[i] if below else ~masks[i] for i in c]
    right = [~x if below else x for x in masks]
    return ([not left[x] & right[y] for x, y in zip(row, map(dual[c[a]].__getitem__, c))]
            for a, row in enumerate(inner))


def _bounds(rel, bound, op):
    """A1 ⊑ B and A2 ⊑ B imply op(A1, A2) ⊑ bound(A1, A2) ⊑ B, for ⊑ the ⊆ or ⊇ of rel."""
    return ([not (x and y) or (k and z) for r2, u, o in zip(rel, bound[a], op[a])
             for k in (rel[o][u],) for x, y, z in zip(r1, r2, rel[u])]
            for a, r1 in enumerate(rel))


def _points(n, spec, t):
    """Both point lemmas for each ordered pair of distinct objects and grades."""
    u, grade = default_universe(n), ("0.5", "1")
    objects, grades = list(permutations(range(n), 2)), list(product((0, 1), repeat=2))

    def holds(x, y, gx, gy):
        px, py = (x if gx else 0, x), (y if gy else 0, y)
        return oplus_masks(*px, *py) == (0, 0) and odot_masks(*px, *py) == (0, x | y)

    def describe(t):
        i, j, gx, gy = t
        return f"x={u.objects[i]}({grade[gx]}) y={u.objects[j]}({grade[gy]})"

    return ((*o, *g) for o in objects for g in grades), (
        [holds(1 << i, 1 << j, *g) for g in grades] for i, j in objects), describe


def _disc_law(op, flag=None):
    """Cases of a DISC law: pairs of DISC sets under spec, or else under each labeling of
    object pairs as none, strong or weak; verdicts ``flag(A op B, spec)``, or DISC."""
    def cases(n, spec, t):
        u, pairs = default_universe(n), list(combinations(_LETTERS[:n], 2))
        sets, table = enumerate_negsets(u), getattr(t, op)
        labelings = product("nsw", repeat=len(pairs))  # none, strong or weak per pair
        specs = [spec] if spec is not None else [make_contradiction_spec(u, *(
            [p for p, label in zip(pairs, labels) if label == kind] for kind in "sw"))
            for labels in labelings]

        def per_spec():
            for sp in specs:
                disc = [is_disc(a, sp) for a in sets]
                ok = disc if flag is None else [flag(a, sp) for a in sets]
                yield sp, list(compress(range(len(sets)), disc)), ok

        def describe(t):
            a, b, sp = t
            return f"A={sets[a]} B={sets[b]} strong={sorted(sp.strong)} weak={sorted(sp.weak)}"

        left, right = tee(per_spec())
        return (chain.from_iterable(product(d, d, (sp,)) for sp, d, _ in left),
                ([ok[table[a][b]] for b in d] for _, d, ok in right for a in d), describe)

    return cases


def _no_weak_with_necessity(a, sp):
    return not any(v.kind == WEAK_WITH_NECESSITY for v in disc_violations(a, sp))


def _odot_grow(acc, pairs):  # [∩N, ∪A], as odot_all defines it
    nec, adm = acc
    return [(nec & n, adm | a) for n, a in pairs]


def _oplus_grow(acc, pairs):  # [(∪N) ∩ ∩A, ∩A], as oplus_all defines it, from (∪N, ∩A)
    nec, adm = acc
    return [(nec | n, adm & a) for n, a in pairs]


def _fold(op, grow, done=list):
    """Cases of a fold law: families of one to three sets, the left fold through the table
    against the n-ary form from its definition, one row per prefix, depth first:
    ``grow(acc, pairs)`` extends the prefix by each set, ``done`` finishes the row."""
    def cases(n, spec, t):
        u, table, pairs = default_universe(n), getattr(t, op), t.pairs
        sets = range(len(pairs))

        def verdicts(folded, accs):
            return list(map(eq, map(pairs.__getitem__, folded), done(accs)))

        def rows():
            yield verdicts(sets, pairs)
            for a, acc in zip(table, pairs):
                yield verdicts(a, grow(acc, pairs))
            for a, acc in zip(table, pairs):
                for ab, acc_ab in zip(a, grow(acc, pairs)):
                    yield verdicts(table[ab], grow(acc_ab, pairs))

        tuples = chain.from_iterable(product(sets, repeat=k) for k in (1, 2, 3))
        return tuples, rows(), lambda family: " ".join(_fmt(u, *pairs[i]) for i in family)

    return cases


LAWS: dict[str, LawSpec] = {law: LawSpec(law, expected, cases) for law, expected, cases in [
    ("idempotence-odot", False, _each(lambda full, a: odot_masks(*a, *a) == a)),
    ("idempotence-oplus", False, _each(lambda full, a: oplus_masks(*a, *a) == a)),
    ("complement-involution", False, _each(
        lambda full, a: complement_masks(full, *complement_masks(full, *a)) == a)),
    ("identity-lemmas", False, _each(_identity)),
    ("commutativity-odot", False, _sweep(2, lambda t: _commutes(t.odot))),
    ("commutativity-oplus", False, _sweep(2, lambda t: _commutes(t.oplus))),
    ("absorption-oplus-odot", False, _sweep(2, lambda t: _absorbs(t.oplus, t.odot))),
    ("absorption-odot-oplus", True, _sweep(2, lambda t: _absorbs(t.odot, t.oplus))),
    ("demorgan-weak-1", False, _sweep(2, lambda t: _demorgan(t, t.odot, t.oplus, 0, True))),
    ("demorgan-weak-2", False, _sweep(2, lambda t: _demorgan(t, t.odot, t.oplus, 1, False))),
    ("demorgan-weak-3", False, _sweep(2, lambda t: _demorgan(t, t.oplus, t.odot, 0, False))),
    ("demorgan-weak-4", False, _sweep(2, lambda t: _demorgan(t, t.oplus, t.odot, 1, True))),
    ("associativity-odot", False, _sweep(3, lambda t: _associates(t.odot))),
    ("associativity-oplus", False, _sweep(3, lambda t: _associates(t.oplus))),
    ("distributivity-oplus-over-odot", True, _sweep(3, lambda t: _distributes(t.oplus, t.odot))),
    ("distributivity-odot-over-oplus", True, _sweep(3, lambda t: _distributes(t.odot, t.oplus))),
    ("bounds-upper", False, _sweep(3, lambda t: _bounds(t.le, t.union, t.odot))),
    ("bounds-lower", False, _sweep(3, lambda t: _bounds(t.ge, t.inter, t.oplus))),
    ("point-lemmas", False, _points),
    ("fold-agreement-odot", False, _fold("odot", _odot_grow)),
    ("fold-agreement-oplus", False, _fold(
        "oplus", _oplus_grow, lambda accs: [(nec & adm, adm) for nec, adm in accs])),
    ("disc-closure-oplus", False, _disc_law("oplus")),
    ("disc-odot-weak-partial", False, _disc_law("odot", _no_weak_with_necessity)),
]}


def law_ids() -> list[str]:
    return list(LAWS)


def validate(n: int, limit: int) -> None:
    """Raise unless n is a size to sweep and ``limit`` ≥ 0."""
    if not 1 <= n <= len(_LETTERS):
        raise SizeOutOfRange(n, len(_LETTERS))
    if limit < 0:
        raise NegativeLimit(limit)


def check_law(law_id: str, n: int = DECIDING_SIZE, spec: ContradictionSpec | None = None,
              limit: int = 5, *, tables: _Tables | None = None) -> LawReport:
    """Sweep one law over every case at size n; ``spec`` fixes the DISC laws' relations,
    and the sweeps of one command may share ``tables``, unless built for another size."""
    try:
        law = LAWS[law_id]
    except KeyError:
        raise UnknownLaw(law_id) from None
    validate(n, limit)
    start = time.perf_counter()
    if tables is None or len(tables.pairs) != 3 ** n:
        tables = _Tables(n)
    tuples, rows, describe = law.cases(n, spec, tables)
    checked, end = 0, object()

    def tally(row):
        nonlocal checked
        checked += len(row)
        return row

    # end selects a tuple without a verdict, and is left over when the streams agree
    wrong = chain(map(not_, chain.from_iterable(map(tally, rows))), [end])
    violations = compress(tuples, wrong)
    examples = [describe(t) for t in islice(violations, limit)]
    total = len(examples) + sum(1 for _ in violations)
    if next(wrong, None) is not end:
        raise RuntimeError(f"{law_id}: its tuples and its verdicts differ in number")
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
        and result == odot_all([env["A"], env["B"], env["C"]])
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
