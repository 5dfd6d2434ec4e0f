"""Independent reference semantics built on plain frozensets.

Deliberately shares no code with the package: values are
(necessity, admissibility) frozenset pairs and every operator is written
straight from its componentwise definition.  Used as the second route in
dual-route checks.
"""

from functools import reduce

Pair = tuple[frozenset, frozenset]


def ref_odot(*family: Pair) -> Pair:
    nec = reduce(frozenset.intersection, (a[0] for a in family))
    adm = reduce(frozenset.union, (a[1] for a in family))
    return nec, adm


def ref_oplus(*family: Pair) -> Pair:
    adm = reduce(frozenset.intersection, (a[1] for a in family))
    nec = reduce(frozenset.union, (a[0] for a in family)) & adm
    return nec, adm


def ref_union(*family: Pair) -> Pair:
    return (
        reduce(frozenset.union, (a[0] for a in family)),
        reduce(frozenset.union, (a[1] for a in family)),
    )


def ref_inter(*family: Pair) -> Pair:
    return (
        reduce(frozenset.intersection, (a[0] for a in family)),
        reduce(frozenset.intersection, (a[1] for a in family)),
    )


def ref_complement(universe: frozenset, a: Pair) -> Pair:
    return universe - a[1], universe - a[0]


def ref_difference(a: Pair, b: Pair) -> Pair:
    return a[0] - b[1], a[1] - b[0]


def ref_is_disc(a: Pair, strong, weak) -> bool:
    nec, adm = a
    for x, y in strong:
        if x in adm and y in adm:
            return False
    for x, y in weak:
        if x in adm and y in adm and (x in nec or y in nec):
            return False
    return True


def as_pair(negset) -> Pair:
    return frozenset(negset.necessity.names()), frozenset(negset.admissibility.names())


class RefError(Exception):
    """An error the reference predicts: the package's error class name and its text."""

    def __init__(self, kind: str, text: str):
        super().__init__(text)
        self.kind = kind


def ref_spec(objects, strong=(), weak=(), dominance=()):
    """The index pairs (strong, weak, dominance) of a contradiction spec, each
    a frozenset, or the RefError that building it raises.

    Checks run in this order: each strong name, then strong reflexivity, the
    same for weak, overlap, each dominance name, then dominance reflexivity,
    pairs declared both ways and transitivity.  Past the unknown names, which
    are named in the order given, each error names the lowest pair by index.
    """
    position = {name: i for i, name in enumerate(objects)}

    def indexed(pairs):
        out = []
        for pair in pairs:
            for name in pair:
                if name not in position:
                    raise RefError("UnknownObject", f"object not in universe: {name!r}")
            out.append((position[pair[0]], position[pair[1]]))
        return frozenset(out)

    def unordered(pairs):
        out = frozenset((min(p), max(p)) for p in indexed(pairs))
        loops = sorted(i for i, j in out if i == j)
        if loops:
            x = objects[loops[0]]
            raise RefError("ReflexivePair", f"contradiction pair may not be reflexive: ({x}, {x})")
        return out

    s = unordered(strong)
    w = unordered(weak)
    if s & w:
        i, j = min(s & w)
        raise RefError("OverlappingKinds", f"pair ({objects[i]}, {objects[j]}) "
                                           "declared both strongly and weakly contradictory")
    d = indexed(dominance)
    loops = sorted(i for i, j in d if i == j)
    if loops:
        x = objects[loops[0]]
        raise RefError("DominanceNotStrictOrder", f"({x}, {x}) is reflexive")
    both = sorted((i, j) for i, j in d if (j, i) in d)
    if both:
        i, j = both[0]
        raise RefError("DominanceNotStrictOrder",
                       f"({objects[i]}, {objects[j]}) declared in both directions")
    for i, j in sorted(d):
        missing = sorted(l for k, l in d if k == j and (i, l) not in d)
        if missing:
            raise RefError("DominanceNotStrictOrder",
                           f"missing transitive pair ({objects[i]}, {objects[missing[0]]})")
    return s, w, d
