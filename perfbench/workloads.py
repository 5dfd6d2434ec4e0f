"""Seeded workload generators: session scripts, their expected outputs, and requests.

Every workload is a fixed list of requests (one *pass*).  Sizes are fixed by
the schedules below; the seed only chooses contents, so two seeds do the same
amount of work.  Expected outputs come from ``reference`` alone.

    python3 perfbench/workloads.py --workload sessions|wide --seed N --dir DIR

writes the scripts and ``DIR/requests.json``.  The benchmark runs it as a
child process, so the generator's memory stays out of the benchmark
process's peak resident memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

import reference as ref

@dataclass
class Request:
    """One CLI call and what the reference says it must produce."""

    rid: int
    argv: list[str]
    form: str             # eval, eval-json, check, laws-json
    stmts: int            # statements the script holds (0 for laws)
    exit_code: int | None = None
    digest: str | None = None   # of the normalised expected stdout
    known_crash: str | None = None  # exception the package is known to raise on this request


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_json(doc) -> str:
    return digest_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# --- script text ---

def script_text(s: ref.Script, flat_lets=()) -> str:
    """Script source; lets named in ``flat_lets`` are written as one flat infix chain."""
    lines = ["universe " + " ".join(s.u.names)]
    lines += [f"agent {n} = {s.u.fmt(v)}" for n, v in s.agents]
    lines += [f"strong {x} {y}" for x, y in s.strong]
    lines += [f"weak {x} {y}" for x, y in s.weak]
    lines += [f"dominance {x} > {y}" for x, y in s.dominance]
    if s.policy[0] == "agent-priority":
        lines.append("policy agent-priority " + " > ".join(s.policy[1]))
    else:
        lines.append(f"policy {s.policy[0]}")
    for stmt in s.statements:
        kind = stmt[0]
        if kind == "let" and stmt[1] in flat_lets:
            lines.append(f"let {stmt[1]} = {_flat_chain(stmt[2])}")
        elif kind == "let":
            lines.append(f"let {stmt[1]} = {ref.print_expr(stmt[2])}")
        elif kind == "expect":
            lines.append(f"expect {ref.print_expr(stmt[1])} = {s.u.fmt(stmt[2])}")
        else:
            lines.append(f"{kind} {ref.print_expr(stmt[1])}")
    return "\n".join(lines) + "\n"


def _flat_chain(e) -> str:
    rights = []
    while e[0] == "bin":
        rights.append(f"{e[1]} {e[3][1]}")
        e = e[2]
    return " ".join([e[1]] + rights[::-1])


def _random_negset(rng, names, p_nec, p_adm):
    nec, adm = set(), set()
    for n in names:
        r = rng.random()
        if r < p_nec:
            nec.add(n)
            adm.add(n)
        elif r < p_nec + p_adm:
            adm.add(n)
    return frozenset(nec), frozenset(adm)


def _make_disc(a, rel: ref.Relations):
    """Shrink a set until it is admitted to discussion."""
    nec, adm = set(a[0]), set(a[1])
    for _, (x, y) in rel.violations((frozenset(nec), frozenset(adm))):
        if x in adm and y in adm:
            adm.discard(y)
            nec.discard(y)
    for _, (x, y) in rel.violations((frozenset(nec), frozenset(adm))):
        nec.discard(x)
        nec.discard(y)
    return frozenset(nec), frozenset(adm)


# --- sessions ---

def sessions_schedule():
    """(universe size, statements, has relations) for each script of a pass.

    Sizes run from 20 to 5,500 statements, mostly small, over universes of
    8, 12 and 200 objects.  The last entry (statements 0) is the deep chain.
    """
    sizes = ([20 + i // 2 for i in range(60)] + [50 + 5 * i for i in range(25)]
             + [200 + 40 * i for i in range(10)] + [5500])
    universes = (8, 12, 200)
    out = []
    for i, n in enumerate(sizes):
        usize = 12 if n == 5500 else universes[i % 3]
        out.append((usize, n, usize <= 12 and i % 4 == 1))
    out.append((8, 0, False))
    return out


DEEP_CHAIN_TERMS = 3000
# The package's evaluator and parser recurse once per term, so a left-deep
# chain this long raises RecursionError; it is the only crash a run tolerates.
DEEP_CHAIN_CRASH = "RecursionError"


class _ExprGen:
    def __init__(self, rng, gated):
        self.rng = rng
        self.gated = gated
        self.names: list[str] = []
        self.safe: list[str] = []   # agents and resolved odot results, DISC by construction
        self.safe_set: set[str] = set()

    def pick(self, pool):
        # mostly recent names, so values chain through the script
        if len(pool) > 12 and self.rng.random() < 0.7:
            return self.rng.choice(pool[-12:])
        return self.rng.choice(pool)

    def expr(self, depth=0, safe=False):
        rng = self.rng
        r = rng.random()
        if depth >= 2 or r < 0.35:
            return ("name", self.pick(self.safe if safe else self.names))
        if safe:
            if r < 0.8:
                return ("bin", "odot", self.expr(depth + 1, True), self.expr(depth + 1, True))
            return ("nary", "odot", [self.expr(depth + 1, True) for _ in range(rng.randint(2, 4))])
        if r < 0.5:
            return ("not", self.expr(depth + 1))
        if r < 0.85:
            op = rng.choice(("odot", "oplus", "union", "inter", "minus"))
            gated = self.gated and op == "odot"
            return ("bin", op, self.expr(depth + 1, gated), self.expr(depth + 1, gated))
        op = rng.choice(("odot", "oplus", "union", "inter"))
        gated = self.gated and op == "odot"
        return ("nary", op, [self.expr(depth + 1, gated) for _ in range(rng.randint(2, 4))])


def _is_safe(e, safe):
    if e[0] == "name":
        return e[1] in safe
    if e[0] == "bin" and e[1] == "odot":
        return _is_safe(e[2], safe) and _is_safe(e[3], safe)
    if e[0] == "nary" and e[1] == "odot":
        return all(_is_safe(i, safe) for i in e[2])
    return False


def sessions_script(rng, usize, n_stmts, gated):
    names = list("abcdefghijkl"[:usize]) if usize <= 12 else [f"o{i:03d}" for i in range(usize)]
    u = ref.Universe(names)
    strong, weak, dominance, policy = [], [], [], ("strict",)
    if gated:
        pairs = rng.sample(list(combinations(names, 2)), rng.randint(2, 5))
        cut = rng.randint(1, len(pairs) - 1)
        strong, weak = sorted(pairs[:cut]), sorted(pairs[cut:])
        order = rng.sample(names, len(names))
        dominance = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
        policy = ("dominance",)
    rel = ref.Relations(u, strong, weak, dominance)
    agents = []
    for i in range(rng.randint(3, 6)):
        a = _random_negset(rng, names, 0.25, 0.35)
        agents.append((f"A{i}", _make_disc(a, rel) if gated else a))
    if not n_stmts:
        return _deep_chain_script(rng, names, agents[:2]) + (DEEP_CHAIN_CRASH,)

    script = ref.Script(names, agents, strong, weak, dominance, policy, [])
    ev = ref.Evaluator(script, rel, {n: (v, n) for n, v in agents})
    gen = _ExprGen(rng, gated)
    gen.names = [n for n, _ in agents]
    gen.safe = list(gen.names)
    gen.safe_set = set(gen.names)
    statements = []
    for i in range(n_stmts):
        r = rng.random()
        e = gen.expr()
        if r < 0.45:
            name = f"L{i}"
            value, prov = ev.eval(e)
            ev.env[name] = (value, prov)
            statements.append(("let", name, e))
            gen.names.append(name)
            if _is_safe(e, gen.safe_set):
                gen.safe.append(name)
                gen.safe_set.add(name)
        elif r < 0.65:
            statements.append(("eval", e))
        elif r < 0.75:
            statements.append(("assert_disc", e))
        else:
            value, _ = ev.eval(e)
            if rng.random() < 0.05:  # a failing expectation now and then
                value = (frozenset(), value[1]) if value[0] else (value[1], value[1])
            statements.append(("expect", e, value))
    script.statements = statements
    return script, script_text(script), None


def _deep_chain_script(rng, names, agents):
    """A left-deep odot chain of at least DEEP_CHAIN_TERMS terms, bound once and printed."""
    terms = DEEP_CHAIN_TERMS + rng.randrange(200)
    chain = ("name", agents[0][0])
    for i in range(1, terms):
        chain = ("bin", "odot", chain, ("name", agents[i % 2][0]))
    value = ref.odot(agents[0][1], agents[1][1])
    statements = [("let", "C", chain), ("eval", ("name", "C")), ("expect", ("name", "C"), value)]
    script = ref.Script(names, agents, statements=statements)
    return script, script_text(script, flat_lets=("C",))


def sessions_scripts(seed):
    rng = random.Random(f"sessions-{seed}")
    return [sessions_script(rng, *entry) for entry in sessions_schedule()]


# --- wide ---

WIDE_OBJECTS = 2000
WIDE_AGENTS = 20
WIDE_ZONE_GROUP = 8           # conflict-zone objects per agent pair
WIDE_SHARED = 300             # objects that take part in no pair
WIDE_BLOCK_PAIRS = 1000       # contradiction pairs inside each agent's private block
WIDE_TIE_STEP = 6             # where fewest-necessities meets equal necessities

# (policy, dominance order size) for each script of a pass; the dominance
# order covers the whole 80-object conflict zone
WIDE_SCHEDULE = (("dominance", 80), ("agent-priority", 40),
                 ("fewest-necessities", 40), ("strict", 20))


def wide_script(rng, policy_kind, k):
    """A script whose agents conflict only inside an 80-object zone.

    Agent 2g and agent 2g+1 admit opposite sides of zone group g, where
    strong pairs join the sides, so each ``let Pg = A(2g) odot A(2g+1)``
    leaves DISC.  All other pairs sit inside one agent's private block.
    """
    names = [f"o{i:04d}" for i in range(WIDE_OBJECTS)]
    u = ref.Universe(names)
    perm = rng.sample(names, len(names))
    groups = WIDE_AGENTS // 2
    zone = perm[:groups * WIDE_ZONE_GROUP]
    shared = perm[len(zone):len(zone) + WIDE_SHARED]
    rest = perm[len(zone) + WIDE_SHARED:]
    blocks = [rest[i::WIDE_AGENTS] for i in range(WIDE_AGENTS)]

    strong, weak = [], []
    sides = []
    half = WIDE_ZONE_GROUP // 2
    for g in range(groups):
        grp = zone[g * WIDE_ZONE_GROUP:(g + 1) * WIDE_ZONE_GROUP]
        xs, ys = grp[:half], grp[half:]
        sides += [xs, ys]
        zone_pairs = set(zip(xs, ys)) | {(rng.choice(xs), rng.choice(ys)) for _ in range(half)}
        strong += sorted(zone_pairs)
    for block in blocks:
        pairs = rng.sample(list(combinations(block, 2)), WIDE_BLOCK_PAIRS)
        cut = 2 * WIDE_BLOCK_PAIRS // 3
        strong += pairs[:cut]
        weak += pairs[cut:]
    rel = ref.Relations(u, strong, weak)

    agents = []
    for i in range(WIDE_AGENTS):
        adm = set()
        for x in rng.sample(blocks[i], len(blocks[i])):  # a maximal pair-free subset
            if not rel.strong_adj.get(x, set()) & adm:
                adm.add(x)
        nec = {x for x in adm if not rel.weak_adj.get(x, set()) & adm and rng.random() < 0.5}
        adm_shared = {x for x in shared if rng.random() < 0.5}
        nec |= {x for x in adm_shared if rng.random() < 0.3}
        adm |= adm_shared | set(sides[i])
        nec |= {x for x in sides[i] if rng.random() < 0.3}
        agents.append([f"A{i:02d}", [nec, adm]])

    for g in range(groups):
        a, b = agents[2 * g][1][0], agents[2 * g + 1][1][0]
        if g == WIDE_TIE_STEP:
            big, small = (a, b) if len(a) > len(b) else (b, a)
            for x in rng.sample(sorted(big), len(big) - len(small)):
                big.discard(x)
        elif len(a) == len(b):
            a.discard(min(a))
    agents = [(n, (frozenset(nec), frozenset(adm))) for n, (nec, adm) in agents]

    order = rng.sample(zone, k)
    dominance = [(order[i], order[j]) for i in range(k) for j in range(i + 1, k)]
    if policy_kind == "agent-priority":
        policy = ("agent-priority", tuple(rng.sample([n for n, _ in agents], len(agents))))
    else:
        policy = (policy_kind,)

    def name(n):
        return ("name", n)

    pair_steps = [("let", f"P{g}", ("bin", "odot", name(f"A{2 * g:02d}"), name(f"A{2 * g + 1:02d}")))
                  for g in range(groups)]
    statements = pair_steps + [("assert_disc", name(f"P{g}")) for g in range(4)] + [
        ("let", "Q", ("nary", "odot", [name(f"P{g}") for g in range(4)])),
        ("let", "R", ("bin", "oplus", name("P4"), name("P5"))),
        ("eval", ("not", name("A02"))),
        ("eval", ("bin", "union", name("Q"), name("R"))),
        ("assert_disc", ("bin", "union", name("A00"), name("A01"))),
    ]
    expect_at = ("bin", "odot", name("P8"), name("P9"))
    script = ref.Script(names, agents, sorted(strong), sorted(weak), dominance, policy, statements)
    try:
        target = _wide_value(script, expect_at)
    except ref.Halt:  # the script halts before it reaches the expectation
        target = (frozenset(), frozenset())
    script.statements = statements + [("expect", expect_at, target)]
    return script, script_text(script), None


def _wide_value(script, e):
    ev = ref.Evaluator(script, script.rel, {n: (v, n) for n, v in script.agents})
    for stmt in script.statements:
        if stmt[0] == "let":
            ev.env[stmt[1]] = ev.eval(stmt[2])
    return ev.eval(e)[0]


def resolutions_by_policy(script):
    """How many agent-to-agent ``odot`` steps resolve under each of the four policies."""
    ranking = tuple(n for n, _ in script.agents)
    policies = (("strict",), ("dominance",), ("agent-priority", ranking), ("fewest-necessities",))
    env = dict(script.agents)
    steps = [s[2] for s in script.statements
             if s[0] == "let" and s[2][0] == "bin" and s[2][1] == "odot"
             and s[2][2][1] in env and s[2][3][1] in env]
    counts = {}
    for policy in policies:
        resolved = 0
        for e in steps:
            try:
                ref.resolve(env[e[2][1]], env[e[3][1]], script.rel, policy, (e[2][1], e[3][1]))
                resolved += 1
            except ref.Halt:
                pass
        counts[policy[0]] = (resolved, len(steps))
    return counts


def wide_scripts(seed):
    rng = random.Random(f"wide-{seed}")
    return [wide_script(rng, policy, k) for policy, k in WIDE_SCHEDULE]


# --- requests ---

SESSION_FORMS = {
    "sessions": ("eval", "eval-json", "check"),
    "wide": ("eval", "check"),
}


def expected_output(script, form):
    """(exit code, normalised-output digest) that the reference predicts."""
    if form.startswith("eval"):
        report = ref.run_script(script)
        code = ref.eval_exit_code(report[0], report[1], report[3])
        if form == "eval":
            return code, digest_text(ref.eval_text(script, report))
        return code, digest_json(ref.eval_json(script, report))
    entries = ref.check_entries(script)
    code = ref.check_exit_code(entries)
    if form == "check":
        return code, digest_text(ref.check_text(script, entries))
    return code, digest_json(ref.check_json(script, entries))


def session_requests(workload, seed, workdir):
    """Write the workload's scripts under ``workdir`` and build one pass of requests."""
    scripts = sessions_scripts(seed) if workload == "sessions" else wide_scripts(seed)
    requests = []
    record = {"scripts": len(scripts), "statements": 0, "objects": set(), "pairs": 0,
              "dominance": 0, "halting": 0}
    for i, (script, text, known_crash) in enumerate(scripts):
        path = workdir / f"{workload}-{i:03d}.ns"
        path.write_text(text, encoding="utf-8")
        n_stmts = len(script.statements)
        record["statements"] += n_stmts
        record["objects"].add(len(script.u.names))
        record["pairs"] = max(record["pairs"], len(script.strong) + len(script.weak))
        record["dominance"] = max(record["dominance"], len(script.dominance))
        if workload == "wide":
            for policy, (resolved, steps) in resolutions_by_policy(script).items():
                done, total = record.setdefault(f"{policy} resolves", (0, 0))
                record[f"{policy} resolves"] = (done + resolved, total + steps)
        for form in SESSION_FORMS[workload]:
            argv = [form.split("-")[0], str(path)] + (["--json"] if form.endswith("json") else [])
            req = Request(len(requests), argv, form, n_stmts, known_crash=known_crash)
            req.exit_code, req.digest = expected_output(script, form)
            record["halting"] += req.exit_code == 3
            requests.append(req)
    record["objects"] = sorted(record["objects"])
    for key, value in record.items():
        if key.endswith(" resolves"):
            record[key] = f"{value[0]}/{value[1]}"
    return requests, record


def laws_requests():
    return [Request(0, ["laws", "--all", "--json"], "laws-json", 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SESSION_FORMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    requests, record = session_requests(args.workload, args.seed, args.dir)
    doc = {"requests": [asdict(r) for r in requests], "record": record}
    (args.dir / "requests.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
