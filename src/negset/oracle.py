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
enough: the point lemmas need two distinct objects.  Sizes up to five,
where every law ends, remain available as a cross-check.
A sweep reads operator tables, built with core's mask arithmetic once per
``laws`` command, and decides one keyed row of verdicts at a time: per first
set, per fold prefix, per ordered object pair, or per DISC labeling.

Laws expected to hold must report zero violations; refuted laws must
surface at least one counterexample.  A fixture catalog re-derives every
worked example: each fixture is a session script, parsed once when this
module loads and run by ``run_session`` on every ``verify_fixture`` call.
A fixture passes when every statement passes and the run ends with the
halt reason it expects: none, or for ``disc-failure`` the strict policy's
``resolution failed: strong conflict [(a, b)]`` at its last statement.
"""

import time
from functools import cached_property, reduce
from itertools import combinations, compress, count, islice, permutations, product
from operator import eq, getitem, itemgetter, not_, or_

from .core import (
    NegotiationSet,
    Record,
    Universe,
    _from_masks,
    complement_masks,
    inter_masks,
    make_universe,
    odot_masks,
    oplus_masks,
    union_masks,
)
from .consistency import is_disc, make_contradiction_spec
# kept as oracle names, which perfbench/tracing.py spans
from .core import complement, odot, odot_all, oplus, oplus_all  # noqa: F401
from .consistency import disc_violations  # noqa: F401
from .errors import NegativeLimit, SizeOutOfRange, UnknownFixture, UnknownLaw
from .session import SessionScript, parse_session, run_session

HOLDS = "holds-everywhere"
COUNTEREXAMPLES = "counterexamples"

DECIDING_SIZE = 2  # see the module docstring
_LETTERS = "abcde"  # one per object: sizes 1 to 5, where every law ends


def default_universe(n: int) -> Universe:
    return make_universe(list(_LETTERS[:n]))


def enumerate_mask_pairs(n: int) -> list[tuple[int, int]]:
    """The 3^n (necessity, admissibility) mask pairs with nec ⊆ adm, ordered by adm, then nec."""
    return [(nec, adm) for adm in range(1 << n) for nec in range(adm + 1) if not nec & ~adm]


def enumerate_negsets(universe: Universe) -> list[NegotiationSet]:
    n = len(universe)
    if n > len(_LETTERS):
        raise SizeOutOfRange(n, len(_LETTERS))
    return [_from_masks(universe, nec, adm) for nec, adm in enumerate_mask_pairs(n)]


class LawReport(Record):
    __slots__ = _fields = ("law", "size", "checked", "verdict", "counterexamples",
                           "violation_count", "elapsed")

    @property
    def matches_expected(self) -> bool:
        return (self.verdict == COUNTEREXAMPLES) == LAWS[self.law].expects_counterexample


class LawSpec(Record):
    """``cases(n, tables)`` gives a law's rows at size n, pairs (key, verdicts) with the
    verdicts a list of booleans, and ``describe(key, k)``, the text of the row's k-th tuple."""
    __slots__ = _fields = ("law_id", "expects_counterexample", "cases")


class _Tables:
    """The sets of size n, numbered in ``enumerate_mask_pairs(n)`` order, and tables built
    on first read: ``odot[i][j]`` numbers set i odot set j, ``le[i][j]`` is set i ⊆ set j,
    ``ge`` is ``le`` transposed.  At n ≤ 5 a table has at most 243² = 59,049 entries."""

    def __init__(self, n):
        self.pairs, self.full = enumerate_mask_pairs(n), (1 << n) - 1

    _number = cached_property(lambda self: {a: i for i, a in enumerate(self.pairs)})

    def _binary(self, op):
        return [[self._number[op(*a, *b)] for b in self.pairs] for a in self.pairs]

    odot = cached_property(lambda self: self._binary(odot_masks))
    oplus = cached_property(lambda self: self._binary(oplus_masks))
    complement = cached_property(lambda self: [
        self._number[complement_masks(self.full, *a)] for a in self.pairs])
    union = cached_property(lambda self: self._binary(union_masks))
    inter = cached_property(lambda self: self._binary(inter_masks))
    le = cached_property(lambda self: [[not (n & ~m or a & ~b) for m, b in self.pairs]
                                       for n, a in self.pairs])
    ge = cached_property(lambda self: list(map(list, zip(*self.le))))


def _sweep(arity, rows):
    """Cases of a law over ``arity`` sets A, B, C: ``rows(t)``, the verdicts read from the
    tables t, one row per first set A, keyed by its number; entry k is B = k, or (B, C) =
    divmod(k, s) over s sets."""
    def cases(n, t):
        fmt, s = default_universe(n).format_masks, len(t.pairs)

        def describe(a, k):
            sets = (a, *divmod(k, s)[3 - arity:])  # B and C from k, as far as arity
            return " ".join(f"{name}={fmt(*t.pairs[i])}" for name, i in zip("ABC", sets))

        return enumerate(rows(t)), describe

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


def _points(n, t):
    """Both point lemmas for each ordered pair of distinct objects and grades."""
    u, grade = default_universe(n), ("0.5", "1")
    objects, grades = list(permutations(range(n), 2)), list(product((0, 1), repeat=2))

    def holds(x, y, gx, gy):
        px, py = (x if gx else 0, x), (y if gy else 0, y)
        return oplus_masks(*px, *py) == (0, 0) and odot_masks(*px, *py) == (0, x | y)

    def describe(pair, k):
        (i, j), (gx, gy) = pair, grades[k]
        return f"x={u.objects[i]}({grade[gx]}) y={u.objects[j]}({grade[gy]})"

    return (((i, j), [holds(1 << i, 1 << j, *g) for g in grades]) for i, j in objects), describe


def _disc_law(op, weak_only=False):
    """Cases of a DISC law: one row per labeling of object pairs as none, strong or weak,
    keyed by its labels and its DISC sets d, over the pairs (A, B) of d in product order
    (at most 243² at n = 5); verdicts: A op B is DISC, under the weak pairs alone if
    ``weak_only``.  Each DISC violation is one contradictory pair, so a set is DISC under
    a labeling iff it is DISC under each labeled pair alone: a labeling's non-DISC sets
    are the union of its pairs' masks, each found once with ``is_disc``."""
    def cases(n, t):
        u, table, bits = default_universe(n), getattr(t, op), [1 << k for k in range(3 ** n)]
        sets, pairs = enumerate_negsets(u), list(combinations(range(n), 2))

        def not_disc(*relations):  # bit k: set k is not DISC under these relations
            spec = make_contradiction_spec(u, *relations)
            return sum(b for b, a in zip(bits, sets) if not is_disc(a, spec))

        # per pair, the sets it bars as none, strong or weak; the weak judge reads weak only
        masks = [(0, not_disc([p]), not_disc((), [p])) for p in combinations(u.objects, 2)]
        judges = [(0, 0, weak) for _, _, weak in masks] if weak_only else masks

        def rows():
            for labels in product(range(3), repeat=len(pairs)):  # none, strong or weak
                bad, judge = (reduce(or_, map(getitem, m, labels), 0) for m in (masks, judges))
                d = [k for k, b in enumerate(bits) if not bad & b]
                ok = [not judge & b for b in bits]
                yield (labels, d), [ok[table[a][b]] for a in d for b in d]

        def describe(key, k):
            (labels, d), (a, b) = key, divmod(k, len(key[1]))
            strong, weak = ([p for p, x in zip(pairs, labels) if x == kind] for kind in (1, 2))
            return f"A={sets[d[a]]} B={sets[d[b]]} strong={strong} weak={weak}"

        return rows(), describe

    return cases


def _odot_grow(acc, pairs):  # [∩N, ∪A], as odot_all defines it
    nec, adm = acc
    return [(nec & n, adm | a) for n, a in pairs]


def _oplus_grow(acc, pairs):  # [(∪N) ∩ ∩A, ∩A], as oplus_all defines it, from (∪N, ∩A)
    nec, adm = acc
    return [(nec | n, adm & a) for n, a in pairs]


def _fold(op, grow, done=list):
    """Cases of a fold law: families of one to three sets, the left fold through the table
    against the n-ary form from its definition, one row per prefix that entry k completes,
    depth first: ``grow(acc, pairs)`` extends the prefix by each set, ``done`` ends a row."""
    def cases(n, t):
        u, table, pairs = default_universe(n), getattr(t, op), t.pairs
        sets = range(len(pairs))

        def verdicts(folded, accs):
            return list(map(eq, map(pairs.__getitem__, folded), done(accs)))

        def rows():
            yield (), verdicts(sets, pairs)
            for a in sets:
                yield (a,), verdicts(table[a], grow(pairs[a], pairs))
            for a in sets:
                for b, ab, acc_ab in zip(sets, table[a], grow(pairs[a], pairs)):
                    yield (a, b), verdicts(table[ab], grow(acc_ab, pairs))

        def describe(prefix, k):
            return " ".join(u.format_masks(*pairs[i]) for i in (*prefix, k))

        return rows(), describe

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
    ("disc-odot-weak-partial", False, _disc_law("odot", weak_only=True)),
]}


def law_ids() -> list[str]:
    return list(LAWS)


def validate(n: int, limit: int) -> None:
    """Raise unless n is a size to sweep and ``limit`` ≥ 0."""
    if not 1 <= n <= len(_LETTERS):
        raise SizeOutOfRange(n, len(_LETTERS))
    if limit < 0:
        raise NegativeLimit(limit)


def check_law(law_id: str, n: int = DECIDING_SIZE, *, limit: int = 5,
              tables: _Tables | None = None) -> LawReport:
    """Sweep one law over every case at size n; the sweeps of one command may share
    ``tables``, unless built for another size."""
    try:
        law = LAWS[law_id]
    except KeyError:
        raise UnknownLaw(law_id) from None
    validate(n, limit)
    start = time.perf_counter()
    if tables is None or len(tables.pairs) != 3 ** n:
        tables = _Tables(n)
    rows, describe = law.cases(n, tables)
    checked, total, examples = 0, 0, []
    for key, row in rows:
        checked += len(row)
        wrong = row.count(False)  # every verdict is a bool
        total += wrong
        if wrong and len(examples) < limit:
            at = compress(count(), map(not_, row))  # the positions of the violations
            examples += [describe(key, k) for k in islice(at, limit - len(examples))]
    elapsed = time.perf_counter() - start
    verdict = COUNTEREXAMPLES if total else HOLDS
    return LawReport(law_id, n, checked, verdict, tuple(examples), total, elapsed)


# --- fixture catalog: worked examples as session scripts ---

class FixtureResult(Record):
    __slots__ = _fields = ("fixture_id", "passed", "note")
    _defaults = ("",)


_TRIP = """\
universe a b c d e f g h i k l
agent A = [{a d} {a d f g h}]
agent B = [{a b d} {a b d f i l}]
agent C = [{a h} {a d h k}]
"""

# fixture id: (script, note, the halt reason its run must end with)
FIXTURES: dict[str, tuple[SessionScript, str, str]] = {
    fixture_id: (parse_session(text), note, halt) for fixture_id, text, note, halt in [
        ("demorgan-counterexample", """\
universe a b c d e f g
agent A = [{a b} {a b c d}]
agent B = [{c d} {c d g}]
expect not A = [{e f g} {c d e f g}]
expect not B = [{a b e f} {a b e f g}]
expect not A oplus not B = [{e f g} {e f g}]
expect not (A odot B) = [{e f} {a b c d e f g}]
# both inclusions are strict: {e f g} is not within {e f}, nor {a b c d e f g} within {e f g}
""", "weak inclusions are strict: neither direction upgrades to equality", ""),
        ("trip-odot-chain", _TRIP + """\
expect A odot B = [{a d} {a b d f g h i l}]
expect (A odot B) odot C = [{a} {a b d f g h i k l}]
expect odot(A, B, C) = [{a} {a b d f g h i k l}]
""", "", ""),
        ("trip-oplus-chain", _TRIP + """\
expect A oplus B = [{a d} {a d f}]
expect (A oplus B) oplus C = [{a d} {a d}]
expect oplus(A, B, C) = [{a d} {a d}]
""", "direct evaluation gives [{a d} {a d}]; the source text prints [{a} {a d}], "
            "which drops d although d is necessary for B and admissible for all three", ""),
        ("trip-mixed-chain", _TRIP + """\
expect B oplus C = [{a d} {a d}]
expect (B oplus C) odot A = [{a d} {a d f g h}]
""", "direct evaluation gives [{a d} {a d f g h}]; the source text prints "
            "[{a} {a d f g h}] (same d discrepancy as the oplus chain)", ""),
        ("absorption-counterexample", """\
universe x b
agent A = [{x} {x}]
agent B = [{b} {b}]
expect A oplus B = [{} {}]
expect A odot (A oplus B) = [{} {x}]
# so A odot (A oplus B) != A
""", "", ""),
        ("distributivity-oplus-counterexample", """\
universe a b c d x
agent A = [{x} {a x}]
agent B = [{b} {b d}]
agent C = [{c} {c x}]
expect B odot C = [{} {b c d x}]
expect A oplus (B odot C) = [{x} {x}]
expect A oplus B = [{} {}]
expect A oplus C = [{x} {x}]
expect (A oplus B) odot (A oplus C) = [{} {x}]
# so A oplus (B odot C) != (A oplus B) odot (A oplus C)
""", "", ""),
        ("distributivity-odot-counterexample", """\
universe a x b c
agent A = [{a} {a}]
agent B = [{x} {x b}]
agent C = [{x a} {x a c}]
expect A odot B = [{} {a x b}]
expect A odot C = [{a} {x a c}]
expect (A odot B) oplus (A odot C) = [{a} {a x}]
expect B oplus C = [{x} {x}]
expect A odot (B oplus C) = [{} {a x}]
# so A odot (B oplus C) != (A odot B) oplus (A odot C)
""", "", ""),
        ("disc-failure", """\
universe a b
agent A = [{a} {a}]
agent B = [{b} {b}]
strong a b
assert_disc A
assert_disc B
# A odot B = [{} {a b}] admits the strong pair (a, b), its one violation: strict halts
let R = A odot B
""", "", "resolution failed: strong conflict [(a, b)]"),
    ]
}


def trip_env() -> dict[str, NegotiationSet]:
    """The three travellers of the trip fixtures, by agent name."""
    return dict(FIXTURES["trip-odot-chain"][0].agents)


def fixture_ids() -> list[str]:
    return list(FIXTURES)


def verify_fixture(fixture_id: str) -> FixtureResult:
    """Run the fixture's script: it passes when every statement passes, except one that
    halts the run as the last statement, and the run ends with the halt reason expected."""
    try:
        script, note, halt = FIXTURES[fixture_id]
    except KeyError:
        raise UnknownFixture(fixture_id) from None
    report = run_session(script)
    ok = [r.ok for r in report.results]
    if report.halted:
        ok[-1] = len(ok) == len(script.statements)
    return FixtureResult(fixture_id, report.halt_reason == halt and all(ok), note)
