"""Core algebra of negotiation sets.

A negotiation set is an ordered pair [necessity, admissibility] of subsets
of a finite universe with necessity contained in admissibility.  Membership
is stored as a bitmask indexed by declaration order, so every operation is
a couple of integer operations and all output is deterministic.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateName,
    EmptyFamily,
    EmptyUniverse,
    InvalidName,
    NotDouble,
    UniverseMismatch,
    UnknownObject,
)

_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative ``mask``, ascending."""
    # A sparse mask (DISC partner masks over large universes) costs one big-int
    # step per set bit; a dense one (most printed sets) one C-level pass over
    # its binary digits, least significant first.
    if mask.bit_count() * 8 <= mask.bit_length():
        return _sparse_bits(mask)
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))


def _sparse_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Record:
    """Base of the immutable values.  A subclass names its fields once, as
    ``__slots__ = _fields = (...)``, and its ``__init__`` sets them through the
    slots' own setters (see ``_slot_setters``).  Instances compare, hash,
    print and pickle by their fields as frozen dataclass instances do."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _slot_setters(cls: type) -> tuple:
    """The setters of ``cls``'s own slots, in order, which its blocked
    ``__setattr__`` does not reach."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Universe(Record):
    """Ordered, finite collection of distinct object names."""

    __slots__ = ("objects", "_index", "full_mask")
    _fields = ("objects",)

    def __init__(self, objects: tuple[str, ...]):
        _set_objects(self, objects)
        _set_index(self, {name: i for i, name in enumerate(objects)})
        _set_full_mask(self, (1 << len(objects)) - 1)

    def __len__(self) -> int:
        return len(self.objects)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownObject(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def mask_of(self, names: Iterable[str]) -> int:
        index, mask = self._index, 0
        try:
            for name in names:
                mask |= 1 << index[name]
        except KeyError as exc:
            raise UnknownObject(exc.args[0]) from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(map(self.objects.__getitem__, iter_bits(mask)))


_set_objects, _set_index, _set_full_mask = _slot_setters(Universe)


def make_universe(names: Sequence[str]) -> Universe:
    """Build a universe, enforcing non-emptiness and name validity."""
    if not names:
        raise EmptyUniverse("universe must contain at least one object")
    seen = set()
    for name in names:
        if not name or name.split() != [name]:  # empty, or holding whitespace
            raise InvalidName(name)
        if name in seen:
            raise DuplicateName(name)
        seen.add(name)
    return Universe(tuple(names))


class FiniteSet(Record):
    """Subset of a universe, represented as a bitmask."""

    __slots__ = _fields = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask & ~universe.full_mask:
            raise UnknownObject(f"mask {mask:#x} has bits outside the universe")
        _set_finite_universe(self, universe)
        _set_finite_mask(self, mask)

    @classmethod
    def of(cls, universe: Universe, names: Iterable[str]) -> "FiniteSet":
        return cls(universe, universe.mask_of(names))

    @classmethod
    def empty(cls, universe: Universe) -> "FiniteSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "FiniteSet":
        return cls(universe, universe.full_mask)

    def _check(self, other: "FiniteSet") -> None:
        _same(self.universe, other.universe, "sets over different universes")

    def __or__(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.universe, self.mask & ~other.mask)

    def complement(self) -> "FiniteSet":
        return FiniteSet(self.universe, self.universe.full_mask & ~self.mask)

    def issubset(self, other: "FiniteSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.universe.index(name) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def names(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __str__(self) -> str:
        return "{" + " ".join(self.names()) + "}"


_set_finite_universe, _set_finite_mask = _slot_setters(FiniteSet)


class InclusionMode(Enum):
    """Which components participate in an inclusion test."""

    FULL = "full"
    NECESSITY = "necessity-only"
    ADMISSIBILITY = "admissibility-only"


class SpecialKind(Enum):
    EMPTY_N = "empty-N"
    FULL_N = "full-N"
    HALF_EMPTY = "half-empty"
    POINT_HALF = "point-half"
    POINT_FULL = "point-full"


class NegotiationSet(Record):
    """Pair [necessity, admissibility] with necessity contained in admissibility, kept
    flat and immutable as the masks ``nec`` and ``adm`` over ``universe``.  The
    constructor checks its sets; operators build their results with ``_from_masks``."""

    __slots__ = ("universe", "nec", "adm")

    def __new__(cls, necessity: FiniteSet, admissibility: FiniteSet):
        u = _same(necessity.universe, admissibility.universe, "components over different universes")
        return _checked(u, necessity.mask, admissibility.mask)

    @property
    def necessity(self) -> FiniteSet:
        return FiniteSet(self.universe, self.nec)

    @property
    def admissibility(self) -> FiniteSet:
        return FiniteSet(self.universe, self.adm)

    def __eq__(self, other):
        if other.__class__ is not NegotiationSet:
            return NotImplemented
        return (self.nec == other.nec and self.adm == other.adm
                and (self.universe is other.universe or self.universe == other.universe))

    def __hash__(self) -> int:
        return hash((self.universe, self.nec, self.adm))

    def __reduce__(self):
        return NegotiationSet, (self.necessity, self.admissibility)

    def __repr__(self) -> str:
        return f"NegotiationSet(necessity={self.necessity!r}, admissibility={self.admissibility!r})"

    def __str__(self) -> str:
        names = self.universe.names_of
        return f"[{{{' '.join(names(self.nec))}}} {{{' '.join(names(self.adm))}}}]"


_set_universe, _set_nec, _set_adm = _slot_setters(NegotiationSet)


def _from_masks(u: Universe, nec: int, adm: int) -> NegotiationSet:
    """The value [nec adm] over ``u``, unchecked: for pairs valid by construction."""
    a = object.__new__(NegotiationSet)
    _set_universe(a, u)
    _set_nec(a, nec)
    _set_adm(a, adm)
    return a


def _same(u: Universe, v: Universe, what: str) -> Universe:
    if u is not v and u != v:
        raise UniverseMismatch(what)
    return u


def _checked(u: Universe, nec: int, adm: int) -> NegotiationSet:
    if nec & ~adm:
        raise NotDouble(f"necessity {FiniteSet(u, nec)} not contained in admissibility {FiniteSet(u, adm)}")
    return _from_masks(u, nec, adm)


def make_negset(necessity: FiniteSet, admissibility: FiniteSet) -> NegotiationSet:
    return NegotiationSet(necessity, admissibility)


def negset_of(universe: Universe, necessity: Iterable[str], admissibility: Iterable[str]) -> NegotiationSet:
    """Convenience constructor from name collections."""
    return _checked(universe, universe.mask_of(necessity), universe.mask_of(admissibility))


# The mask arithmetic of every operator, on (necessity, admissibility) mask
# pairs.  The operators below, the session evaluator and the law oracle's
# sweeps all use it.

def odot_masks(nec1: int, adm1: int, nec2: int, adm2: int) -> tuple[int, int]:
    """Minimalization: the necessities meet, the admissibilities join."""
    return nec1 & nec2, adm1 | adm2


def oplus_masks(nec1: int, adm1: int, nec2: int, adm2: int) -> tuple[int, int]:
    """Relative maximalization: pooled necessities, clipped into the shared admissibility."""
    adm = adm1 & adm2
    return (nec1 | nec2) & adm, adm


def complement_masks(full: int, nec: int, adm: int) -> tuple[int, int]:
    """[N A] to [U - A, U - N] within the universe mask ``full``."""
    return full & ~adm, full & ~nec


def union_masks(nec1: int, adm1: int, nec2: int, adm2: int) -> tuple[int, int]:
    return nec1 | nec2, adm1 | adm2


def inter_masks(nec1: int, adm1: int, nec2: int, adm2: int) -> tuple[int, int]:
    return nec1 & nec2, adm1 & adm2


def difference_masks(nec1: int, adm1: int, nec2: int, adm2: int) -> tuple[int, int]:
    """[N1 - A2, A1 - N2]: what the first set needs or admits that the second rules out."""
    return nec1 & ~adm2, adm1 & ~nec2


def complement(a: NegotiationSet) -> NegotiationSet:
    u = a.universe
    return _from_masks(u, *complement_masks(u.full_mask, a.nec, a.adm))


def _binary(masks_op, a: NegotiationSet, b: NegotiationSet) -> NegotiationSet:
    u = _same(a.universe, b.universe, "family members over different universes")
    return _from_masks(u, *masks_op(a.nec, a.adm, b.nec, b.adm))


def difference(a: NegotiationSet, b: NegotiationSet) -> NegotiationSet:
    return _binary(difference_masks, a, b)


def included(a: NegotiationSet, b: NegotiationSet, mode: InclusionMode = InclusionMode.FULL) -> bool:
    _same(a.universe, b.universe, "operands over different universes")
    nec_ok = mode is InclusionMode.ADMISSIBILITY or a.nec & ~b.nec == 0
    return nec_ok and (mode is InclusionMode.NECESSITY or a.adm & ~b.adm == 0)


def _fold(masks_op, family: Sequence[NegotiationSet]) -> NegotiationSet:
    if not family:
        raise EmptyFamily("generalized operations need a non-empty family")
    first = family[0]
    nec, adm = first.nec, first.adm
    for a in family[1:]:
        _same(a.universe, first.universe, "family members over different universes")
        nec, adm = masks_op(nec, adm, a.nec, a.adm)
    return _from_masks(first.universe, nec, adm)


def union_all(family: Sequence[NegotiationSet]) -> NegotiationSet:
    return _fold(union_masks, family)


def inter_all(family: Sequence[NegotiationSet]) -> NegotiationSet:
    return _fold(inter_masks, family)


def odot_all(family: Sequence[NegotiationSet]) -> NegotiationSet:
    """Minimalization of necessities: [intersection of necessities, union of admissibilities]."""
    return _fold(odot_masks, family)


def oplus_all(family: Sequence[NegotiationSet]) -> NegotiationSet:
    """Relative maximalization: necessities are pooled, then clipped into the shared admissibility."""
    return _fold(oplus_masks, family)


def odot(a: NegotiationSet, b: NegotiationSet) -> NegotiationSet:
    return _binary(odot_masks, a, b)


def oplus(a: NegotiationSet, b: NegotiationSet) -> NegotiationSet:
    return _binary(oplus_masks, a, b)


def special(universe: Universe, kind: SpecialKind, name: str | None = None) -> NegotiationSet:
    """The distinguished constant sets, plus the two point constructions."""
    full = universe.full_mask
    if kind is SpecialKind.EMPTY_N:
        return _from_masks(universe, 0, 0)
    if kind is SpecialKind.FULL_N:
        return _from_masks(universe, full, full)
    if kind is SpecialKind.HALF_EMPTY:
        return _from_masks(universe, 0, full)
    if name is None:
        raise UnknownObject(None)
    point = universe.mask_of([name])
    return _from_masks(universe, point if kind is SpecialKind.POINT_FULL else 0, point)
