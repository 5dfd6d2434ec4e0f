"""Contradiction relations, the consistency class DISC, and conflict resolution.

A negotiation set is admitted to discussion (DISC) when no strongly
contradictory pair sits inside its admissibility range, and no weakly
contradictory pair inside the admissibility range touches the necessity
range.  Compromise by minimalization can leave DISC; the resolution
policies here decide what happens then.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .core import NegotiationSet, Universe, _from_masks, _same, iter_bits, odot
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


@dataclass(frozen=True)
class ContradictionSpec:
    """Strong and weak contradiction pairs, plus an optional dominance order.

    Pairs are stored as index pairs (i, j) with i < j; dominance pairs are
    ordered (winner, loser).
    """

    universe: Universe
    strong: frozenset[tuple[int, int]]
    weak: frozenset[tuple[int, int]]
    dominance: frozenset[tuple[int, int]] = frozenset()

    # Neighbour masks for DISC scans, built on the first scan rather than at
    # construction: a script's spec is built while the parser still holds its
    # tokens, and the masks would add to that peak.
    @cached_property
    def _strong_masks(self) -> tuple[int, dict[int, int]]:
        return _neighbour_masks(self.strong)

    @cached_property
    def _weak_masks(self) -> tuple[int, dict[int, int]]:
        return _neighbour_masks(self.weak)

    def pair_names(self, pair: tuple[int, int]) -> tuple[str, str]:
        return self.universe.objects[pair[0]], self.universe.objects[pair[1]]

    def dominates(self, x: str, y: str) -> bool:
        return (self.universe.index(x), self.universe.index(y)) in self.dominance

    @property
    def empty(self) -> bool:
        return not self.strong and not self.weak


def make_contradiction_spec(
    universe: Universe,
    strong_pairs: Iterable[tuple[str, str]] = (),
    weak_pairs: Iterable[tuple[str, str]] = (),
    dominance_pairs: Iterable[tuple[str, str]] = (),
) -> ContradictionSpec:
    # pairs may come in any order and repeat; every pair an error names is
    # the lowest one by index whatever that order is
    index, objects = universe._index, universe.objects
    diagonal = {(i, i) for i in range(len(objects))}

    def index_pairs(pairs, lower_first):
        try:
            if lower_first:
                return frozenset([(i, j) if (i := index[x]) < (j := index[y]) else (j, i)
                                  for x, y in pairs])
            return frozenset([(index[x], index[y]) for x, y in pairs])
        except KeyError as exc:
            raise UnknownObject(exc.args[0]) from None

    def normalize(pairs):
        out = index_pairs(pairs, True)
        if out & diagonal:
            raise ReflexivePair(objects[min(out & diagonal)[0]])
        return out

    strong = normalize(strong_pairs)
    weak = normalize(weak_pairs)
    overlap = strong & weak
    if overlap:
        i, j = min(overlap)
        raise OverlappingKinds(objects[i], objects[j])

    dom = index_pairs(dominance_pairs, False)
    if dom & diagonal:
        x = objects[min(dom & diagonal)[0]]
        raise DominanceNotStrictOrder(f"({x}, {x}) is reflexive")
    ordered = sorted(dom)
    for i, j in ordered:
        if (j, i) in dom:
            raise DominanceNotStrictOrder(f"({objects[i]}, {objects[j]}) declared in both directions")
    # transitive iff every edge i -> j has out[j] within out[i]
    _, out = _neighbour_masks(dom)
    for i, j in ordered:
        missing = out.get(j, 0) & ~out[i]
        if missing:
            l = (missing & -missing).bit_length() - 1
            raise DominanceNotStrictOrder(f"missing transitive pair ({objects[i]}, {objects[l]})")
    return ContradictionSpec(universe, strong, weak, dom)


def _neighbour_masks(pairs: Iterable[tuple[int, int]]) -> tuple[int, dict[int, int]]:
    """For pairs (i, j): the mask of every i, and per i the mask of its partners j."""
    masks: dict[int, int] = {}
    for i, j in pairs:
        masks[i] = masks.get(i, 0) | 1 << j
    return sum(1 << i for i in masks), masks


@dataclass(frozen=True)
class DiscViolation:
    kind: str
    pair: tuple[str, str]

    def __str__(self) -> str:
        return f"{self.kind} ({self.pair[0]}, {self.pair[1]})"


def _offending_pairs(
    a: NegotiationSet, spec: ContradictionSpec
) -> Iterator[tuple[str, int, int]]:
    """(kind, i, j) per offending pair: strong ones, then weak ones, each by ascending (i, j)."""
    _same(a.universe, spec.universe, "set and contradiction spec over different universes")
    nec, adm = a.nec, a.adm
    rows, partners_of = spec._strong_masks
    for i in iter_bits(adm & rows):
        for j in iter_bits(partners_of[i] & adm):
            yield STRONG_IN_ADMISSIBILITY, i, j
    rows, partners_of = spec._weak_masks
    for i in iter_bits(adm & rows):
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

@dataclass(frozen=True)
class Strict:
    name = "strict"


@dataclass(frozen=True)
class ObjectDominance:
    name = "dominance"


@dataclass(frozen=True)
class AgentPriority:
    ranking: tuple[str, ...]
    name = "agent-priority"


@dataclass(frozen=True)
class FewestNecessities:
    name = "fewest-necessities"


ResolutionPolicy = Strict | ObjectDominance | AgentPriority | FewestNecessities


@dataclass(frozen=True)
class Resolved:
    result: NegotiationSet
    dropped: frozenset[str] = frozenset()

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Failed:
    reason: str
    pairs: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return False


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
    """
    if not is_disc(a, spec):
        raise InputNotDisc("left operand is not admitted to discussion")
    if not is_disc(b, spec):
        raise InputNotDisc("right operand is not admitted to discussion")

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
        unordered = tuple((x, y) for x, y in pairs
                          if not spec.dominates(x, y) and not spec.dominates(y, x))
        if unordered:
            return Failed("pair not ordered by dominance", unordered)
        # a pair can lose both members: in a chain y > x > z, x wins (x, z)
        # but loses (x, y)
        drop = u.mask_of(y if spec.dominates(x, y) else x for x, y in pairs)
    else:
        if isinstance(policy, AgentPriority):
            if agent_names is None or agent_names[0] is None or agent_names[1] is None:
                return Failed("ambiguous provenance", pairs)
            for name in agent_names:
                if name not in policy.ranking:
                    raise PolicyError(f"agent {name!r} missing from priority ranking")
            rank = policy.ranking.index
            preferred = a if rank(agent_names[0]) < rank(agent_names[1]) else b
        elif isinstance(policy, FewestNecessities):
            count_a, count_b = a.nec.bit_count(), b.nec.bit_count()
            if count_a == count_b:
                return Failed(f"incomparable: both operands have {count_a} necessities", pairs)
            preferred = a if count_a < count_b else b
        else:
            raise PolicyError(f"unknown policy: {policy!r}")
        # per pair, the member the preferred operand does not admit
        drop = u.mask_of(chain.from_iterable(pairs)) & ~preferred.adm

    # conflict locality: strong violators never sit in the necessity range of a
    # DISC-input minimalization, so only the admissibility range shrinks
    if result.nec & drop:
        raise AssertionError("resolution would drop a necessary object")
    return Resolved(_from_masks(u, result.nec, result.adm & ~drop), frozenset(u.names_of(drop)))
