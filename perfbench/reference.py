"""Independent reference for the negset benchmark.

Built on plain frozensets of object names and importing nothing from
``negset``.  A negotiation set is a pair ``(nec, adm)`` of frozensets.  The
reference evaluates the generator's own script model (never the script
text), so a parser, evaluator or renderer defect in the package shows up as
a mismatch.  It also decides every catalog law by sweeping all negotiation
sets of a two-object universe: each operator acts on one object at a time,
so an equation or Horn inclusion that holds on one object holds on any
universe, and a counterexample on n objects projects onto one object.
"""

from __future__ import annotations

import re
from itertools import combinations, product

STRONG = "strong-in-admissibility"
WEAK = "weak-with-necessity"


# --- operators ---

def odot(a, b):
    return a[0] & b[0], a[1] | b[1]


def oplus(a, b):
    adm = a[1] & b[1]
    return (a[0] | b[0]) & adm, adm


def union(a, b):
    return a[0] | b[0], a[1] | b[1]


def inter(a, b):
    return a[0] & b[0], a[1] & b[1]


def minus(a, b):
    return a[0] - b[1], a[1] - b[0]


def complement(a, universe):
    return universe - a[1], universe - a[0]


BINARY = {"odot": odot, "oplus": oplus, "union": union, "inter": inter, "minus": minus}


def subset(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


# --- rendering in the package's documented output format ---

class Universe:
    def __init__(self, names):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.all = frozenset(self.names)

    def ordered(self, names):
        return sorted(names, key=self.index.__getitem__)

    def fmt_set(self, names):
        return "{" + " ".join(self.ordered(names)) + "}"

    def fmt(self, a):
        return f"[{self.fmt_set(a[0])} {self.fmt_set(a[1])}]"

    def json_value(self, a):
        return {"necessity": self.ordered(a[0]), "admissibility": self.ordered(a[1])}


def print_expr(e):
    """Canonical expression text; left-nested binaries get parentheses."""
    kind = e[0]
    if kind == "name":
        return e[1]
    if kind == "not":
        return f"not {_wrap(e[1])}"
    if kind == "bin":
        return f"{_wrap(e[2])} {e[1]} {_wrap(e[3])}"
    return f"{e[1]}({', '.join(print_expr(i) for i in e[2])})"


def _wrap(e):
    text = print_expr(e)
    return f"({text})" if e[0] == "bin" else text


# --- contradiction relations and resolution ---

class Relations:
    """Strong and weak pairs plus a dominance order, over one universe."""

    def __init__(self, universe, strong=(), weak=(), dominance=()):
        self.u = universe
        self.strong_adj = self._adjacency(strong)
        self.weak_adj = self._adjacency(weak)
        self.dominance = frozenset(dominance)
        self.empty = not strong and not weak

    @staticmethod
    def _adjacency(pairs):
        adj = {}
        for x, y in pairs:
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        return adj

    def _pairs_within(self, adj, names, touching=None):
        idx = self.u.index
        found = set()
        for x in names:
            for y in adj.get(x, ()):
                if y in names and (touching is None or x in touching or y in touching):
                    found.add((x, y) if idx[x] < idx[y] else (y, x))
        return sorted(found, key=lambda p: (idx[p[0]], idx[p[1]]))

    def violations(self, a):
        """(kind, (x, y)) in the package's deterministic index order."""
        strong = self._pairs_within(self.strong_adj, a[1])
        weak = self._pairs_within(self.weak_adj, a[1], touching=a[0])
        return [(STRONG, p) for p in strong] + [(WEAK, p) for p in weak]

    @staticmethod
    def fmt_violations(violations):
        return "; ".join(f"{k} ({x}, {y})" for k, (x, y) in violations)


class Halt(Exception):
    """A statement error that halts a session; ``kind`` is the report's halt_kind."""

    def __init__(self, message, kind="resolution"):
        super().__init__(message)
        self.kind = kind


def _failed(reason, pairs):
    detail = ", ".join(f"({x}, {y})" for x, y in pairs)
    return Halt(f"resolution failed: {reason}" + (f" [{detail}]" if detail else ""))


def resolve(a, b, rel, policy, provs):
    """Gated minimalization: (result, dropped names) or raise Halt."""
    if rel.violations(a):
        raise Halt("left operand is not admitted to discussion")
    if rel.violations(b):
        raise Halt("right operand is not admitted to discussion")
    result = odot(a, b)
    pairs = [p for _, p in rel.violations(result)]
    if not pairs:
        return result, frozenset()
    kind = policy[0]
    if kind == "strict":
        raise _failed("strong conflict", pairs)
    if kind == "dominance":
        dropped, unordered = set(), []
        for x, y in pairs:
            if (x, y) in rel.dominance:
                dropped.add(y)
            elif (y, x) in rel.dominance:
                dropped.add(x)
            else:
                unordered.append((x, y))
        if unordered:
            raise _failed("pair not ordered by dominance", unordered)
        return _apply_drops(result, rel, dropped)
    if kind == "agent-priority":
        if provs[0] is None or provs[1] is None:
            raise _failed("ambiguous provenance", pairs)
        rank = {name: i for i, name in enumerate(policy[1])}
        preferred = a if rank[provs[0]] < rank[provs[1]] else b
        return _drop_by_preferred(result, rel, pairs, preferred[1])
    if len(a[0]) == len(b[0]):
        raise _failed(f"incomparable: both operands have {len(a[0])} necessities", pairs)
    preferred = a if len(a[0]) < len(b[0]) else b
    return _drop_by_preferred(result, rel, pairs, preferred[1])


def _drop_by_preferred(result, rel, pairs, preferred_adm):
    dropped, ambiguous = set(), []
    for x, y in pairs:
        in_x, in_y = x in preferred_adm, y in preferred_adm
        if in_x == in_y:
            ambiguous.append((x, y))
        else:
            dropped.add(y if in_x else x)
    if ambiguous:
        raise _failed("ambiguous provenance", ambiguous)
    return _apply_drops(result, rel, dropped)


def _apply_drops(result, rel, dropped):
    repaired = (result[0], result[1] - dropped)
    remaining = rel.violations(repaired)
    if remaining:
        raise _failed("violations survive drops", [p for _, p in remaining])
    return repaired, frozenset(dropped)


# --- sessions ---

class Script:
    """The generator's model of one session script."""

    def __init__(self, universe, agents, strong=(), weak=(), dominance=(),
                 policy=("strict",), statements=()):
        self.u = Universe(universe)
        self.agents = agents            # [(name, (nec, adm))]
        self.strong = strong            # [(x, y)]
        self.weak = weak
        self.dominance = dominance      # [(winner, loser)]
        self.policy = policy            # ("strict",) | ("agent-priority", ranking) | ...
        self.statements = statements    # [("let", name, expr) | ("eval", expr) | ...]
        self.rel = Relations(self.u, strong, weak, dominance)


class Evaluator:
    def __init__(self, script, rel, env):
        self.s = script
        self.rel = rel
        self.env = env  # name -> (value, provenance)
        self.notes = []

    def eval(self, e):
        kind = e[0]
        if kind == "name":
            return self.env[e[1]]
        if kind == "not":
            return complement(self.eval(e[1])[0], self.s.u.all), None
        if kind == "bin":
            spine = []
            while e[0] == "bin":  # left-deep chains are evaluated without recursion
                spine.append(e)
                e = e[2]
            acc, prov = self.eval(e)
            for node in reversed(spine):
                right, rprov = self.eval(node[3])
                acc = self._apply(node[1], acc, prov, right, rprov)
                prov = None
            return acc, None
        items = [self.eval(i) for i in e[2]]
        acc, prov = items[0]
        for value, vprov in items[1:]:
            acc = self._apply(e[1], acc, prov, value, vprov)
            prov = None
        return acc, None

    def _apply(self, op, left, lprov, right, rprov):
        if op != "odot" or self.rel.empty:
            return BINARY[op](left, right)
        result, dropped = resolve(left, right, self.rel, self.s.policy, (lprov, rprov))
        if dropped:
            self.notes.append(f"dropped {self.s.u.fmt_set(dropped)}")
        return result


def _statement_source(u, stmt):
    kind = stmt[0]
    if kind == "let":
        return f"let {stmt[1]} = {print_expr(stmt[2])}"
    if kind == "expect":
        return f"expect {print_expr(stmt[1])} = {u.fmt(stmt[2])}"
    return f"{kind} {print_expr(stmt[1])}"


def run_script(script):
    """Expected eval report: (records, halted, halt_reason, halt_kind).

    A record is (kind, source, ok, value, detail, notes), as the package's
    ``SessionReport`` holds it.
    """
    u = script.u
    ev = Evaluator(script, script.rel, {n: (v, n) for n, v in script.agents})
    records = []
    for stmt in script.statements:
        kind = stmt[0]
        ev.notes = []
        try:
            if kind == "let":
                value, prov = ev.eval(stmt[2])
                ev.env[stmt[1]] = (value, prov)
                records.append((kind, f"let {stmt[1]}", True, value, "", tuple(ev.notes)))
            elif kind == "eval":
                value, _ = ev.eval(stmt[1])
                records.append((kind, f"eval {print_expr(stmt[1])}", True, value, "",
                                tuple(ev.notes)))
            elif kind == "assert_disc":
                value, _ = ev.eval(stmt[1])
                violations = script.rel.violations(value)
                records.append((kind, f"assert_disc {print_expr(stmt[1])}", not violations,
                                value, Relations.fmt_violations(violations), tuple(ev.notes)))
            else:
                value, _ = ev.eval(stmt[1])
                target = stmt[2]
                ok = value == target
                detail = "" if ok else f"expected {u.fmt(target)} got {u.fmt(value)}"
                records.append((kind, f"expect {print_expr(stmt[1])}", ok, value, detail,
                                tuple(ev.notes)))
        except Halt as exc:
            records.append((kind, _statement_source(u, stmt), False, None, str(exc),
                            tuple(ev.notes)))
            return records, True, str(exc), exc.kind
    return records, False, "", ""


def eval_exit_code(records, halted, halt_kind):
    if halted:
        return 3 if halt_kind == "resolution" else 4
    return 0 if all(r[2] for r in records) else 1


def eval_text(script, report):
    records, halted, reason, _ = report
    u = script.u
    lines = []
    for kind, source, ok, value, detail, notes in records:
        suffix = f"  # {'; '.join(notes)}" if notes else ""
        if kind in ("let", "eval"):
            body = f" = {u.fmt(value)}" if ok else f": ERROR {detail}"
        elif kind == "assert_disc":
            body = ": DISC" if ok else f": NOT DISC [{detail}]"
        else:
            body = ": ok" if ok else f": FAILED {detail}"
        lines.append(f"{source}{body}{suffix}")
    if halted:
        lines.append(f"halted: {reason}")
    return "\n".join(lines) + "\n"


def eval_json(script, report):
    records, halted, reason, halt_kind = report
    u = script.u
    return {
        "universe": list(u.names),
        "statements": [
            {
                "kind": kind,
                "source": source,
                "ok": ok,
                "value": u.json_value(value) if value is not None else None,
                "detail": detail,
                "notes": list(notes),
            }
            for kind, source, ok, value, detail, notes in records
        ],
        "halted": halted,
        "halt_reason": reason,
        "halt_kind": halt_kind,
        "ok": not halted and all(r[2] for r in records),
    }


def check_entries(script):
    """Expected ``negset check`` entries: (name, value, violations), ungated algebra."""
    ungated = Relations(script.u)
    ev = Evaluator(script, ungated, {n: (v, n) for n, v in script.agents})
    named = list(script.agents)
    for stmt in script.statements:
        if stmt[0] == "let":
            value, _ = ev.eval(stmt[2])
            ev.env[stmt[1]] = (value, None)
            named.append((stmt[1], value))
    return [(name, value, script.rel.violations(value)) for name, value in named]


def check_exit_code(entries):
    return 0 if all(not v for _, _, v in entries) else 1


def check_text(script, entries):
    u = script.u
    lines = []
    for name, value, violations in entries:
        verdict = f"NOT DISC [{Relations.fmt_violations(violations)}]" if violations else "DISC"
        lines.append(f"{name} = {u.fmt(value)}: {verdict}\n")
    return "".join(lines)


def check_json(script, entries):
    u = script.u
    return {
        "universe": list(u.names),
        "sets": [
            {
                "name": name,
                "value": u.json_value(value),
                "disc": not violations,
                "violations": [{"kind": k, "pair": list(p)} for k, p in violations],
            }
            for name, value, violations in entries
        ],
        "ok": all(not v for _, _, v in entries),
    }


# --- the law catalog ---

def _mask_universe(n):
    return Universe("abcdefghijkl"[:n])


def all_negsets(universe):
    """Every (nec, adm) with nec a subset of adm, as frozensets."""
    names = universe.names
    out = []
    for grades in product((0, 1, 2), repeat=len(names)):  # 0 out, 1 admissible, 2 necessary
        nec = frozenset(n for n, g in zip(names, grades) if g == 2)
        adm = frozenset(n for n, g in zip(names, grades) if g >= 1)
        out.append((nec, adm))
    return out


def _identity(u, a):
    full, empty = u.all, frozenset()
    top, bottom, half = (full, full), (empty, empty), (empty, full)
    return (odot(a, top) == (a[0], full) and odot(a, bottom) == (empty, a[1])
            and oplus(a, top) == (a[1], a[1]) and oplus(a, bottom) == bottom
            and odot(a, half) == half and oplus(a, half) == a)


def _bounds_upper(u, a1, a2, b):
    if not (subset(a1, b) and subset(a2, b)):
        return True
    un = union(a1, a2)
    return subset(odot(a1, a2), un) and subset(un, b)


def _bounds_lower(u, a1, a2, b):
    if not (subset(b, a1) and subset(b, a2)):
        return True
    it = inter(a1, a2)
    return subset(b, it) and subset(it, oplus(a1, a2))


def _c(u, a):
    return complement(a, u.all)


# law id -> (arity, predicate(u, *sets)); the sweep-based laws are handled below
LAW_PREDICATES = {
    "idempotence-odot": (1, lambda u, a: odot(a, a) == a),
    "idempotence-oplus": (1, lambda u, a: oplus(a, a) == a),
    "complement-involution": (1, lambda u, a: _c(u, _c(u, a)) == a),
    "identity-lemmas": (1, _identity),
    "commutativity-odot": (2, lambda u, a, b: odot(a, b) == odot(b, a)),
    "commutativity-oplus": (2, lambda u, a, b: oplus(a, b) == oplus(b, a)),
    "absorption-oplus-odot": (2, lambda u, a, b: oplus(a, odot(a, b)) == a),
    "absorption-odot-oplus": (2, lambda u, a, b: odot(a, oplus(a, b)) == a),
    "demorgan-weak-1": (2, lambda u, a, b:
                        _c(u, odot(a, b))[0] <= oplus(_c(u, a), _c(u, b))[0]),
    "demorgan-weak-2": (2, lambda u, a, b:
                        oplus(_c(u, a), _c(u, b))[1] <= _c(u, odot(a, b))[1]),
    "demorgan-weak-3": (2, lambda u, a, b:
                        odot(_c(u, a), _c(u, b))[0] <= _c(u, oplus(a, b))[0]),
    "demorgan-weak-4": (2, lambda u, a, b:
                        _c(u, oplus(a, b))[1] <= odot(_c(u, a), _c(u, b))[1]),
    "associativity-odot": (3, lambda u, a, b, c: odot(odot(a, b), c) == odot(a, odot(b, c))),
    "associativity-oplus": (3, lambda u, a, b, c:
                            oplus(oplus(a, b), c) == oplus(a, oplus(b, c))),
    "distributivity-oplus-over-odot": (3, lambda u, a, b, c:
                                       oplus(a, odot(b, c)) == odot(oplus(a, b), oplus(a, c))),
    "distributivity-odot-over-oplus": (3, lambda u, a, b, c:
                                       odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))),
    "bounds-upper": (3, _bounds_upper),
    "bounds-lower": (3, _bounds_lower),
}


def _fold_agrees(op, family):
    # the n-ary forms, written from their definitions
    if op is odot:
        direct = (frozenset.intersection(*[a[0] for a in family]),
                  frozenset.union(*[a[1] for a in family]))
    else:
        adm = frozenset.intersection(*[a[1] for a in family])
        direct = (frozenset.union(*[a[0] for a in family]) & adm, adm)
    folded = family[0]
    for item in family[1:]:
        folded = op(folded, item)
    return direct == folded


def _labelings(u):
    pairs = list(combinations(u.names, 2))
    for labels in product(("none", "strong", "weak"), repeat=len(pairs)):
        yield (Relations(u, [p for p, l in zip(pairs, labels) if l == "strong"],
                         [p for p, l in zip(pairs, labels) if l == "weak"]))


def _disc_law_holds(u, law_id):
    sets = all_negsets(u)
    for rel in _labelings(u):
        disc = [a for a in sets if not rel.violations(a)]
        for a, b in product(disc, repeat=2):
            if law_id == "disc-closure-oplus":
                if rel.violations(oplus(a, b)):
                    return False
            elif any(k == WEAK for k, _ in rel.violations(odot(a, b))):
                return False
    return True


def _points_hold(u):
    for x, y in product(u.names, repeat=2):
        if x == y:
            continue
        for gx, gy in product((0, 1), repeat=2):
            px = (frozenset([x]) if gx else frozenset(), frozenset([x]))
            py = (frozenset([y]) if gy else frozenset(), frozenset([y]))
            if oplus(px, py) != (frozenset(), frozenset()):
                return False
            if odot(px, py) != (frozenset(), frozenset([x, y])):
                return False
    return True


def decide_law(law_id):
    """True when the law holds everywhere, decided on a two-object universe."""
    u = _mask_universe(2)
    if law_id in LAW_PREDICATES:
        arity, pred = LAW_PREDICATES[law_id]
        return all(pred(u, *t) for t in product(all_negsets(u), repeat=arity))
    if law_id.startswith("fold-agreement-"):
        op = odot if law_id.endswith("odot") else oplus
        sets = all_negsets(u)
        return all(_fold_agrees(op, list(f)) for k in (1, 2, 3) for f in product(sets, repeat=k))
    if law_id == "point-lemmas":
        return _points_hold(u)
    return _disc_law_holds(u, law_id)


LAW_IDS = tuple(LAW_PREDICATES) + (
    "point-lemmas", "fold-agreement-odot", "fold-agreement-oplus",
    "disc-closure-oplus", "disc-odot-weak-partial",
)


def expected_tuples(law_id, n):
    """The number of tuples an exhaustive sweep at size n visits."""
    sets = 3 ** n
    if law_id in LAW_PREDICATES:
        return sets ** LAW_PREDICATES[law_id][0]
    if law_id == "point-lemmas":
        return n * (n - 1) * 4
    if law_id.startswith("fold-agreement-"):
        return sets + sets ** 2 + sets ** 3
    u = _mask_universe(n)
    every = all_negsets(u)
    return sum(sum(1 for a in every if not rel.violations(a)) ** 2 for rel in _labelings(u))


def expected_violations(law_id, n):
    """Violation count at size n for an equation law: all tuples minus those holding on every object."""
    arity, pred = LAW_PREDICATES[law_id]
    u = _mask_universe(1)
    holding = sum(1 for t in product(all_negsets(u), repeat=arity) if pred(u, *t))
    return 3 ** (n * arity) - holding ** n


_NEGSET = re.compile(r"([A-Z][0-9]?)=\[\{([^}]*)\} \{([^}]*)\}\]")


def counterexample_violates(law_id, n, text):
    """Re-evaluate a printed counterexample such as ``A=[{a} {a b}] B=[{} {b}]``."""
    arity, pred = LAW_PREDICATES[law_id]
    found = _NEGSET.findall(text)
    if len(found) != arity:
        return False
    u = _mask_universe(n)
    sets = []
    for _, nec, adm in found:
        a = (frozenset(nec.split()), frozenset(adm.split()))
        if not (a[0] <= a[1] <= u.all):
            return False
        sets.append(a)
    return not pred(u, *sets)


# --- worked example, checked when the module is used ---

def trip_chains():
    """The trunk-packing example: the odot chain and the oplus chain."""
    def ns(nec, adm):
        return frozenset(nec), frozenset(adm)

    a = ns("ad", "adfgh")
    b = ns("abd", "abdfil")
    c = ns("ah", "adhk")
    return odot(odot(a, b), c), oplus(oplus(a, b), c)


def self_check():
    """Fail loudly if the reference disagrees with the paper's worked example."""
    odot_chain, oplus_chain = trip_chains()
    if odot_chain != (frozenset("a"), frozenset("abdfghikl")):
        raise AssertionError("reference odot chain is wrong")
    if oplus_chain != (frozenset("ad"), frozenset("ad")):
        raise AssertionError("reference oplus chain is wrong: expected [{a d} {a d}]")
