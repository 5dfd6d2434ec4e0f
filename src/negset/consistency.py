"""Contradiction relations, the consistency class DISC, and conflict resolution.

A negotiation set is admitted to discussion (DISC) when no strongly
contradictory pair sits inside its admissibility range, and no weakly
contradictory pair inside the admissibility range touches the necessity
range.  Compromise by minimalization can leave DISC; the resolution
policies here decide what happens then.
"""

from functools import reduce
from itertools import chain, compress, count
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .core import NegotiationSet, Record, Universe, _from_masks, _same, items_at, iter_bits, odot
from .errors import (
    DominanceNotStrictOrder,
    InputNotDisc,
    OverlappingKinds,
    PolicyError,
    ReflexivePair,
    UnknownObject,
)

STRONG_IN_ADMISSIBILITY = "strong-in-admissibility"
WEAK_WITH_NECESSITY = "weak-with-necessity"


class ContradictionSpec(Record):
    """Strong and weak contradiction pairs, plus an optional dominance order.

    Each relation is one mask row per object: strong and weak row i holds the
    partners j > i of object i, and dominance row i the objects i dominates.
    The keys are the masks of the objects whose strong or weak row is not empty.
    """

    __slots__ = ("universe", "strong_rows", "weak_rows", "dominance_rows", "strong_keys", "weak_keys")
    _fields = __slots__[:4]

    # read-only views: index pairs (i, j) with i < j, dominance pairs (winner, loser)
    strong = property(lambda self: frozenset(_edges(self.strong_rows)))
    weak = property(lambda self: frozenset(_edges(self.weak_rows)))
    dominance = property(lambda self: frozenset(_edges(self.dominance_rows)))

    def __init__(self, universe: Universe, strong_rows: tuple[int, ...],
                 weak_rows: tuple[int, ...], dominance_rows: tuple[int, ...]):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "strong_rows", strong_rows)
        object.__setattr__(self, "weak_rows", weak_rows)
        object.__setattr__(self, "dominance_rows", dominance_rows)
        object.__setattr__(self, "strong_keys", _keys(strong_rows))
        object.__setattr__(self, "weak_keys", _keys(weak_rows))

    def pair_names(self, pair: tuple[int, int]) -> tuple[str, str]:
        return self.universe.objects[pair[0]], self.universe.objects[pair[1]]

    def dominates(self, x: str, y: str) -> bool:
        return bool(self.dominance_rows[self.universe.index(x)] >> self.universe.index(y) & 1)

    @property
    def empty(self) -> bool:
        return not self.strong_keys and not self.weak_keys


def _keys(rows: Sequence[int]) -> int:
    """The mask of the non-empty rows."""
    return sum(map((1).__lshift__, compress(count(), rows)))


def make_contradiction_spec(
    universe: Universe,
    strong_pairs: Iterable[tuple[str, str]] = (),
    weak_pairs: Iterable[tuple[str, str]] = (),
    dominance_pairs: Iterable[tuple[str, str]] = (),
) -> ContradictionSpec:
    index = universe._index
    try:  # each relation's names are looked up as _build_spec reads it
        return _build_spec(universe, *(((index[x], index[y]) for x, y in pairs)
                                       for pairs in (strong_pairs, weak_pairs, dominance_pairs)))
    except KeyError as exc:
        raise UnknownObject(exc.args[0]) from None


def _build_spec(universe: Universe, strong_pairs: Iterable[tuple[int, int]],
                weak_pairs: Iterable, dominance_pairs: Iterable) -> ContradictionSpec:
    """The spec of three relations of index pairs, checked strong, weak, overlap, dominance."""
    # pairs may come in any order and repeat; every pair an error names is
    # the lowest one by index whatever that order is
    objects = universe.objects
    strong = _rows(objects, strong_pairs, True, ReflexivePair)
    weak = _rows(objects, weak_pairs, True, ReflexivePair)
    # compress(count(), rows) gives the indices of the non-empty rows
    for i in compress(count(), strong):
        if strong[i] & weak[i]:
            raise OverlappingKinds(objects[i], objects[next(iter_bits(strong[i] & weak[i]))])

    beats = _rows(objects, dominance_pairs, False,
                  lambda x: DominanceNotStrictOrder(f"({x}, {x}) is reflexive"))
    # transitive iff every row holds the rows of the objects it holds; with no
    # reflexive pair, a pair declared both ways breaks that too, so only a
    # broken order is searched for one
    for i in compress(count(), beats):
        row = beats[i]
        if reduce(or_, items_at(beats, row)) & ~row:
            for k, m in _edges(beats):
                if beats[m] >> k & 1:
                    raise DominanceNotStrictOrder(
                        f"({objects[k]}, {objects[m]}) declared in both directions")
            missing = next(m for b in items_at(beats, row) if (m := b & ~row))
            raise DominanceNotStrictOrder(
                f"missing transitive pair ({objects[i]}, {objects[next(iter_bits(missing))]})")
    return ContradictionSpec(universe, tuple(strong), tuple(weak), tuple(beats))


def _rows(objects: Sequence[str], pairs: Iterable[tuple[int, int]], symmetric: bool,
          reflexive_error: Callable[[str], Exception]) -> list[int]:
    """One mask row per object from index pairs (i, j): bit j of row i, or for
    a symmetric relation the higher index's bit in the lower index's row."""
    rows = [0] * len(objects)
    if symmetric:
        for i, j in pairs:
            if i > j:
                i, j = j, i
            rows[i] |= 1 << j
    else:
        for i, j in pairs:
            rows[i] |= 1 << j
    looped = next((i for i in compress(count(), rows) if rows[i] >> i & 1), None)
    if looped is not None:
        raise reflexive_error(objects[looped])
    return rows


def _edges(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The pairs (i, j) that the rows hold, ascending."""
    return ((i, j) for i in compress(count(), rows) for j in iter_bits(rows[i]))


class DiscViolation(Record):
    __slots__ = _fields = ("kind", "pair")

    def __str__(self) -> str:
        return f"{self.kind} ({self.pair[0]}, {self.pair[1]})"


def _offending_pairs(a: NegotiationSet, spec: ContradictionSpec) -> Iterator[tuple[str, int, int]]:
    """(kind, i, j) per offending pair: strong ones, then weak ones, each by ascending (i, j)."""
    _same(a.universe, spec.universe, "set and contradiction spec over different universes")
    nec, adm = a.nec, a.adm
    partners_of = spec.strong_rows
    for i in iter_bits(adm & spec.strong_keys):
        for j in iter_bits(partners_of[i] & adm):
            yield STRONG_IN_ADMISSIBILITY, i, j
    partners_of = spec.weak_rows
    for i in iter_bits(adm & spec.weak_keys):
        partners = partners_of[i] & adm
        for j in iter_bits(partners if nec >> i & 1 else partners & nec):
            yield WEAK_WITH_NECESSITY, i, j


def disc_violations(a: NegotiationSet, spec: ContradictionSpec) -> list[DiscViolation]:
    """Every offending pair, exactly once, in deterministic index order."""
    return [
        DiscViolation(kind, spec.pair_names((i, j)))
        for kind, i, j in _offending_pairs(a, spec)
    ]


def is_disc(a: NegotiationSet, spec: ContradictionSpec) -> bool:
    return next(_offending_pairs(a, spec), None) is None


# --- resolution policies ---

class Strict(Record):
    __slots__ = ()
    name = "strict"


class ObjectDominance(Record):
    __slots__ = ()
    name = "dominance"


class AgentPriority(Record):
    __slots__ = _fields = ("ranking",)
    name = "agent-priority"


class FewestNecessities(Record):
    __slots__ = ()
    name = "fewest-necessities"


ResolutionPolicy = Strict | ObjectDominance | AgentPriority | FewestNecessities


class Resolved(Record):
    __slots__ = _fields = ("result", "dropped")
    _defaults = (frozenset(),)
    ok = True


class Failed(Record):
    __slots__ = _fields = ("reason", "pairs")
    _defaults = ((),)
    ok = False


ResolutionOutcome = Resolved | Failed


def resolve_odot(
    a: NegotiationSet,
    b: NegotiationSet,
    spec: ContradictionSpec,
    policy: ResolutionPolicy,
    agent_names: tuple[str | None, str | None] | None = None,
) -> ResolutionOutcome:
    """Compute a minimalization and repair it per policy if it leaves DISC.

    Every violation of a minimalization of DISC operands is a strong pair
    whose members are each admitted by exactly one operand and are not
    necessary, so dropping one member of every pair leaves the result in
    DISC without a second scan (decided at three objects in the tests).
    ``agent-priority`` prefers the operand whose agent ranks first, and the
    right operand when both carry the same agent name.
    """
    if not isinstance(policy, ResolutionPolicy):
        raise PolicyError(f"unknown policy: {policy!r}")
    for side, operand in (("left", a), ("right", b)):
        if not is_disc(operand, spec):
            raise InputNotDisc(f"{side} operand is not admitted to discussion")

    result = odot(a, b)
    violations = disc_violations(result, spec)
    if not violations:
        return Resolved(result)
    # weak violations cannot arise from DISC operands
    if any(v.kind != STRONG_IN_ADMISSIBILITY for v in violations):
        raise AssertionError("minimalization of DISC operands has a weak violation")
    pairs = tuple(v.pair for v in violations)
    u = result.universe

    if isinstance(policy, Strict):
        return Failed("strong conflict", pairs)

    if isinstance(policy, ObjectDominance):
        # a pair can lose both members: in a chain y > x > z, x wins (x, z)
        # but loses (x, y)
        dominates = spec.dominates
        unordered = tuple(p for p in pairs if not (dominates(*p) or dominates(*p[::-1])))
        if unordered:
            return Failed("pair not ordered by dominance", unordered)
        drop = u.mask_of(y if dominates(x, y) else x for x, y in pairs)
    else:
        if isinstance(policy, AgentPriority):
            if agent_names is None or agent_names[0] is None or agent_names[1] is None:
                return Failed("ambiguous provenance", pairs)
            for name in agent_names:
                if name not in policy.ranking:
                    raise PolicyError(f"agent {name!r} missing from priority ranking")
            rank = policy.ranking.index
            preferred = a if rank(agent_names[0]) < rank(agent_names[1]) else b
        else:  # FewestNecessities
            count_a, count_b = a.nec.bit_count(), b.nec.bit_count()
            if count_a == count_b:
                return Failed(f"incomparable: both operands have {count_a} necessities", pairs)
            preferred = a if count_a < count_b else b
        # per pair, the member the preferred operand does not admit
        drop = u.mask_of(chain.from_iterable(pairs)) & ~preferred.adm

    # conflict locality: strong violators never sit in the necessity range of a
    # DISC-input minimalization, so only the admissibility range shrinks
    if result.nec & drop:
        raise AssertionError("resolution would drop a necessary object")
    return Resolved(_from_masks(u, result.nec, result.adm & ~drop), frozenset(u.names_of(drop)))
