"""Session DSL: scripts describing a negotiation between agents.

A script declares a universe, the agents' negotiation sets, optional
contradiction relations and a resolution policy, then runs statements:
let-bindings, bare evaluations, consistency assertions and expectations.

Syntax (one statement per line, ``#`` starts a comment):

    universe a b c d
    agent A = [{a} {a b}]
    strong a b
    weak c d
    dominance a > b
    policy strict
    let S = (A odot B) union C
    eval not S
    assert_disc S
    expect S = [{a} {a b c}]

Infix operators ``odot``, ``oplus``, ``union``, ``inter``, ``minus`` share
one precedence level and associate to the left; ``not`` is prefix
complement; ``odot(A, B, C)`` etc. are the n-ary forms.
"""

from __future__ import annotations

import json as _json
from dataclasses import dataclass, field

from . import core
from .core import NegotiationSet, Universe, make_universe, negset_of
from .consistency import (
    AgentPriority,
    ContradictionSpec,
    FewestNecessities,
    ObjectDominance,
    ResolutionPolicy,
    Strict,
    disc_violations,
    make_contradiction_spec,
    resolve_odot,
)
from .errors import InputNotDisc, NegsetError, NotDouble, UnknownObject

BINARY_OPS = ("odot", "oplus", "union", "inter", "minus")
NARY_OPS = ("odot", "oplus", "union", "inter")
KEYWORDS = {
    "universe", "agent", "strong", "weak", "dominance", "policy",
    "let", "eval", "assert_disc", "expect", "not", *BINARY_OPS,
}


class ParseError(NegsetError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ValidationError(NegsetError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnboundName(NegsetError):
    def __init__(self, name: str):
        super().__init__(f"unbound name: {name}")
        self.name = name


class ResolutionFailed(NegsetError):
    def __init__(self, reason: str, pairs: tuple[tuple[str, str], ...]):
        detail = ", ".join(f"({x}, {y})" for x, y in pairs)
        super().__init__(f"resolution failed: {reason}" + (f" [{detail}]" if detail else ""))
        self.reason = reason
        self.pairs = pairs


# --- AST ---

@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Complement:
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Nary:
    op: str
    items: tuple["Expr", ...]


Expr = NameRef | Complement | Binary | Nary


@dataclass(frozen=True)
class Let:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Eval:
    expr: Expr


@dataclass(frozen=True)
class AssertDisc:
    expr: Expr


@dataclass(frozen=True)
class Expect:
    expr: Expr
    target: NegotiationSet


Statement = Let | Eval | AssertDisc | Expect


@dataclass(frozen=True)
class SessionScript:
    universe: Universe
    agents: tuple[tuple[str, NegotiationSet], ...]
    strong: tuple[tuple[str, str], ...]
    weak: tuple[tuple[str, str], ...]
    dominance: tuple[tuple[str, str], ...]
    policy: ResolutionPolicy
    statements: tuple[Statement, ...]
    # built from universe, strong, weak and dominance when the script is validated
    spec: ContradictionSpec = field(compare=False, repr=False)


# --- lexer ---

@dataclass(frozen=True)
class Token:
    kind: str  # NAME, SYM, NEWLINE, EOF
    value: str
    line: int
    col: int


_SYMBOLS = set("()[]{},=>")


def _lex(text: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        col = 0
        n = len(line)
        emitted = False
        while col < n:
            c = line[col]
            if c == "#":
                break
            if c.isspace():
                col += 1
                continue
            if c in _SYMBOLS:
                tokens.append(Token("SYM", c, lineno, col + 1))
                col += 1
                emitted = True
                continue
            if c.isalnum() or c in "_-.":
                start = col
                while col < n and (line[col].isalnum() or line[col] in "_-."):
                    col += 1
                tokens.append(Token("NAME", line[start:col], lineno, start + 1))
                emitted = True
                continue
            raise ParseError(lineno, col + 1, f"unexpected character {c!r}")
        if emitted:
            tokens.append(Token("NEWLINE", "", lineno, n + 1))
    tokens.append(Token("EOF", "", text.count("\n") + 1, 1))
    return tokens


# --- parser ---

_FIXED_POLICIES = {p.name: p for p in (Strict(), ObjectDominance(), FewestNecessities())}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(tok.line, tok.col, message)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.value != sym:
            raise self.fail(f"expected {sym!r}, found {tok.value or tok.kind!r}")
        return self.advance()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail(f"expected {what}, found {tok.value or tok.kind!r}")
        return self.advance()

    def end_line(self) -> None:
        tok = self.peek()
        if tok.kind not in ("NEWLINE", "EOF"):
            raise self.fail(f"unexpected trailing token {tok.value!r}")
        if tok.kind == "NEWLINE":
            self.advance()

    # set and negotiation-set literals, as raw name lists

    def parse_set_literal(self) -> list[str]:
        self.expect_sym("{")
        names = []
        while not (self.peek().kind == "SYM" and self.peek().value == "}"):
            names.append(self.expect_name("object name").value)
        self.advance()
        return names

    def parse_negset_literal(self) -> tuple[list[str], list[str]]:
        self.expect_sym("[")
        nec = self.parse_set_literal()
        adm = self.parse_set_literal()
        self.expect_sym("]")
        return nec, adm

    # expressions

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.peek().kind == "NAME" and self.peek().value in BINARY_OPS:
            op = self.advance().value
            right = self.parse_term()
            left = Binary(op, left, right)
        return left

    def parse_term(self) -> Expr:
        tok = self.peek()
        if tok.kind == "SYM" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if tok.kind == "NAME" and tok.value == "not":
            self.advance()
            return Complement(self.parse_term())
        if (
            tok.kind == "NAME"
            and tok.value in NARY_OPS
            and self.peek(1).kind == "SYM"
            and self.peek(1).value == "("
        ):
            op = self.advance().value
            self.advance()  # (
            items = [self.parse_expr()]
            while self.peek().kind == "SYM" and self.peek().value == ",":
                self.advance()
                items.append(self.parse_expr())
            self.expect_sym(")")
            return Nary(op, tuple(items))
        if tok.kind == "NAME":
            if tok.value in KEYWORDS:
                raise self.fail(f"keyword {tok.value!r} cannot be used as a name")
            return NameRef(self.advance().value)
        raise self.fail(f"expected expression, found {tok.value or tok.kind!r}")

    def parse_policy(self) -> ResolutionPolicy:
        tok = self.expect_name("policy name")
        if tok.value == "agent-priority":
            ranking = [self.expect_name("agent name").value]
            while self.peek().kind == "SYM" and self.peek().value == ">":
                self.advance()
                ranking.append(self.expect_name("agent name").value)
            return AgentPriority(tuple(ranking))
        try:
            return _FIXED_POLICIES[tok.value]
        except KeyError:
            raise ParseError(tok.line, tok.col, f"unknown policy {tok.value!r}") from None


def parse_session(text: str) -> SessionScript:
    """Parse and fully validate a session script."""
    p = _Parser(text)
    universe: Universe | None = None
    agents: list[tuple[str, NegotiationSet]] = []
    strong_raw: list[tuple[tuple[str, str], int]] = []
    weak_raw: list[tuple[tuple[str, str], int]] = []
    dominance_raw: list[tuple[tuple[str, str], int]] = []
    policy: ResolutionPolicy | None = None
    policy_line: int | None = None
    statements: list[Statement] = []
    known_names: set[str] = set()

    def check_refs(expr: Expr, line: int) -> None:
        if isinstance(expr, NameRef):
            if expr.name not in known_names:
                raise ValidationError(f"unknown name {expr.name!r}", line)
        elif isinstance(expr, Complement):
            check_refs(expr.operand, line)
        elif isinstance(expr, Binary):
            check_refs(expr.left, line)
            check_refs(expr.right, line)
        else:
            for item in expr.items:
                check_refs(item, line)

    while p.peek().kind != "EOF":
        tok = p.peek()
        if tok.kind != "NAME":
            raise p.fail(f"expected statement keyword, found {tok.value!r}")
        keyword = tok.value
        line = tok.line
        if universe is None and keyword != "universe":
            raise ValidationError("the universe must be declared first", line)
        if keyword == "universe":
            p.advance()
            if universe is not None:
                raise ValidationError("duplicate universe declaration", line)
            names = []
            while p.peek().kind == "NAME":
                names.append(p.advance().value)
            p.end_line()
            try:
                universe = make_universe(names)
            except NegsetError as exc:
                raise ValidationError(str(exc), line) from exc
        elif keyword == "agent":
            p.advance()
            name = p.expect_name("agent name").value
            if name in KEYWORDS:
                raise ValidationError(f"keyword {name!r} cannot be bound", line)
            p.expect_sym("=")
            nec, adm = p.parse_negset_literal()
            p.end_line()
            if name in known_names:
                raise ValidationError(f"duplicate name {name!r}", line)
            try:
                value = negset_of(universe, nec, adm)
            except (NotDouble, UnknownObject) as exc:
                raise ValidationError(f"agent {name}: {exc}", line) from exc
            agents.append((name, value))
            known_names.add(name)
        elif keyword in ("strong", "weak"):
            p.advance()
            x = p.expect_name("object name").value
            y = p.expect_name("object name").value
            p.end_line()
            (strong_raw if keyword == "strong" else weak_raw).append(((x, y), line))
        elif keyword == "dominance":
            p.advance()
            x = p.expect_name("object name").value
            p.expect_sym(">")
            y = p.expect_name("object name").value
            p.end_line()
            dominance_raw.append(((x, y), line))
        elif keyword == "policy":
            p.advance()
            if policy is not None:
                raise ValidationError("duplicate policy declaration", line)
            policy = p.parse_policy()
            policy_line = line
            p.end_line()
        elif keyword == "let":
            p.advance()
            name = p.expect_name("binding name").value
            if name in KEYWORDS:
                raise ValidationError(f"keyword {name!r} cannot be bound", line)
            p.expect_sym("=")
            expr = p.parse_expr()
            p.end_line()
            if name in known_names:
                raise ValidationError(f"duplicate name {name!r}", line)
            check_refs(expr, line)
            statements.append(Let(name, expr))
            known_names.add(name)
        elif keyword == "eval":
            p.advance()
            expr = p.parse_expr()
            p.end_line()
            check_refs(expr, line)
            statements.append(Eval(expr))
        elif keyword == "assert_disc":
            p.advance()
            expr = p.parse_expr()
            p.end_line()
            check_refs(expr, line)
            statements.append(AssertDisc(expr))
        elif keyword == "expect":
            p.advance()
            expr = p.parse_expr()
            p.expect_sym("=")
            nec, adm = p.parse_negset_literal()
            p.end_line()
            check_refs(expr, line)
            try:
                target = negset_of(universe, nec, adm)
            except (NotDouble, UnknownObject) as exc:
                raise ValidationError(str(exc), line) from exc
            statements.append(Expect(expr, target))
        else:
            raise p.fail(f"unknown statement keyword {keyword!r}")

    if universe is None:
        raise ValidationError("script declares no universe")

    def normalize(raw):
        pairs = []
        for (x, y), line in raw:
            for name in (x, y):
                if name not in universe:
                    raise ValidationError(f"object {name!r} not in universe", line)
            i, j = universe.index(x), universe.index(y)
            pairs.append((min(i, j), max(i, j)))
        return tuple(
            (universe.objects[i], universe.objects[j]) for i, j in sorted(set(pairs))
        )

    strong = normalize(strong_raw)
    weak = normalize(weak_raw)
    dominance_pairs = []
    for (x, y), line in dominance_raw:
        for name in (x, y):
            if name not in universe:
                raise ValidationError(f"object {name!r} not in universe", line)
        dominance_pairs.append((universe.index(x), universe.index(y)))
    dominance = tuple(
        (universe.objects[i], universe.objects[j]) for i, j in sorted(set(dominance_pairs))
    )

    if isinstance(policy, AgentPriority):
        ranking = policy.ranking
        agent_names = {name for name, _ in agents}
        if len(set(ranking)) != len(ranking):
            raise ValidationError("priority ranking contains ties", policy_line)
        missing = [n for n in ranking if n not in agent_names]
        if missing:
            raise ValidationError(f"ranking names undeclared agents: {missing}", policy_line)
        uncovered = sorted(agent_names - set(ranking))
        if uncovered:
            raise ValidationError(f"ranking does not cover agents: {uncovered}", policy_line)

    try:
        spec = make_contradiction_spec(universe, strong, weak, dominance)
    except NegsetError as exc:
        raise ValidationError(str(exc)) from exc
    return SessionScript(
        universe=universe,
        agents=tuple(agents),
        strong=strong,
        weak=weak,
        dominance=dominance,
        policy=Strict() if policy is None else policy,
        statements=tuple(statements),
        spec=spec,
    )


# --- canonical printing ---

def format_negset(a: NegotiationSet) -> str:
    return str(a)


def print_expr(e: Expr) -> str:
    def wrap(child: Expr) -> str:
        text = print_expr(child)
        return f"({text})" if isinstance(child, Binary) else text

    if isinstance(e, NameRef):
        return e.name
    if isinstance(e, Complement):
        return f"not {wrap(e.operand)}"
    if isinstance(e, Binary):
        return f"{wrap(e.left)} {e.op} {wrap(e.right)}"
    return f"{e.op}({', '.join(print_expr(i) for i in e.items)})"


def print_policy(policy: ResolutionPolicy) -> str:
    if isinstance(policy, AgentPriority):
        return "agent-priority " + " > ".join(policy.ranking)
    return policy.name


def print_statement(stmt: Statement) -> str:
    if isinstance(stmt, Let):
        return f"let {stmt.name} = {print_expr(stmt.expr)}"
    if isinstance(stmt, Eval):
        return f"eval {print_expr(stmt.expr)}"
    if isinstance(stmt, AssertDisc):
        return f"assert_disc {print_expr(stmt.expr)}"
    return f"expect {print_expr(stmt.expr)} = {format_negset(stmt.target)}"


def print_session(script: SessionScript) -> str:
    """Canonical script text; parse(print_session(s)) == s for valid scripts."""
    lines = ["universe " + " ".join(script.universe.objects)]
    for name, value in script.agents:
        lines.append(f"agent {name} = {format_negset(value)}")
    for x, y in script.strong:
        lines.append(f"strong {x} {y}")
    for x, y in script.weak:
        lines.append(f"weak {x} {y}")
    for x, y in script.dominance:
        lines.append(f"dominance {x} > {y}")
    lines.append("policy " + print_policy(script.policy))
    for stmt in script.statements:
        lines.append(print_statement(stmt))
    return "\n".join(lines) + "\n"


def negset_json(a: NegotiationSet) -> dict:
    """The JSON form of a negotiation set in every report: both ranges as name lists."""
    return {
        "necessity": list(a.necessity.names()),
        "admissibility": list(a.admissibility.names()),
    }


# --- evaluation ---

@dataclass
class StatementResult:
    kind: str
    source: str
    ok: bool
    value: NegotiationSet | None = None
    detail: str = ""
    notes: tuple[str, ...] = ()


@dataclass
class SessionReport:
    universe: Universe
    results: list[StatementResult] = field(default_factory=list)
    halted: bool = False
    halt_reason: str = ""
    halt_kind: str = ""  # "resolution" or "error" when halted

    @property
    def all_ok(self) -> bool:
        return not self.halted and all(r.ok for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            suffix = f"  # {'; '.join(r.notes)}" if r.notes else ""
            if r.kind in ("let", "eval"):
                if r.ok:
                    lines.append(f"{r.source} = {format_negset(r.value)}{suffix}")
                else:
                    lines.append(f"{r.source}: ERROR {r.detail}{suffix}")
            elif r.kind == "assert_disc":
                verdict = "DISC" if r.ok else f"NOT DISC [{r.detail}]"
                lines.append(f"{r.source}: {verdict}{suffix}")
            else:
                verdict = "ok" if r.ok else f"FAILED {r.detail}"
                lines.append(f"{r.source}: {verdict}{suffix}")
        if self.halted:
            lines.append(f"halted: {self.halt_reason}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        statements = []
        for r in self.results:
            entry = {
                "kind": r.kind,
                "source": r.source,
                "ok": r.ok,
                "value": negset_json(r.value) if r.value is not None else None,
                "detail": r.detail,
                "notes": list(r.notes),
            }
            statements.append(entry)
        doc = {
            "universe": list(self.universe.objects),
            "statements": statements,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "halt_kind": self.halt_kind,
            "ok": self.all_ok,
        }
        return _json.dumps(doc, indent=2, sort_keys=False) + "\n"


class _Evaluator:
    """Bottom-up evaluator; tracks single-agent provenance for priority policies."""

    def __init__(
        self,
        spec: ContradictionSpec,
        policy: ResolutionPolicy,
        env: dict[str, NegotiationSet],
    ):
        self.spec = spec
        self.policy = policy
        # every name in env is an agent, its own provenance
        self.env: dict[str, tuple[NegotiationSet, str | None]] = {
            name: (value, name) for name, value in env.items()
        }
        self.notes: list[str] = []

    def eval(self, e: Expr) -> tuple[NegotiationSet, str | None]:
        if isinstance(e, NameRef):
            try:
                return self.env[e.name]
            except KeyError:
                raise UnboundName(e.name) from None
        if isinstance(e, Complement):
            value, _ = self.eval(e.operand)
            return core.complement(value), None
        if isinstance(e, Binary):
            left, lprov = self.eval(e.left)
            right, rprov = self.eval(e.right)
            if e.op == "minus":
                return core.difference(left, right), None
            if e.op == "union":
                return core.union_all([left, right]), None
            if e.op == "inter":
                return core.inter_all([left, right]), None
            if e.op == "oplus":
                return core.oplus(left, right), None
            return self._odot_step(left, lprov, right, rprov), None
        # n-ary
        pairs = [self.eval(item) for item in e.items]
        values = [v for v, _ in pairs]
        if e.op == "union":
            return core.union_all(values), None
        if e.op == "inter":
            return core.inter_all(values), None
        if e.op == "oplus":
            return core.oplus_all(values), None
        if self.spec.empty:
            return core.odot_all(values), None
        acc, prov = pairs[0]
        for value, vprov in pairs[1:]:
            acc = self._odot_step(acc, prov, value, vprov)
            prov = None
        return acc, None

    def bind(self, stmt: Let) -> NegotiationSet:
        value, prov = self.eval(stmt.expr)
        self.env[stmt.name] = (value, prov)
        return value

    def _odot_step(self, left, lprov, right, rprov) -> NegotiationSet:
        if self.spec.empty:
            return core.odot(left, right)
        outcome = resolve_odot(left, right, self.spec, self.policy, (lprov, rprov))
        if not outcome.ok:
            raise ResolutionFailed(outcome.reason, outcome.pairs)
        if outcome.dropped:
            dropped = " ".join(sorted(outcome.dropped, key=self.spec.universe.index))
            self.notes.append(f"dropped {{{dropped}}}")
        return outcome.result


def eval_expr(
    e: Expr,
    env: dict[str, NegotiationSet],
    spec: ContradictionSpec,
    policy: ResolutionPolicy = Strict(),
) -> NegotiationSet:
    """Evaluate one expression against a plain name environment.

    Every name in ``env`` is treated as an agent for provenance purposes.
    """
    value, _ = _Evaluator(spec, policy, env).eval(e)
    return value


def eval_bindings(
    script: SessionScript, spec: ContradictionSpec
) -> list[tuple[str, NegotiationSet]]:
    """Every agent and ``let`` binding in script order, evaluated under ``spec``
    with the strict policy by one evaluator."""
    ev = _Evaluator(spec, Strict(), dict(script.agents))
    named = list(script.agents)
    for stmt in script.statements:
        if isinstance(stmt, Let):
            named.append((stmt.name, ev.bind(stmt)))
    return named


def run_session(script: SessionScript) -> SessionReport:
    """Execute statements in order; expect failures continue, errors halt."""
    ev = _Evaluator(script.spec, script.policy, dict(script.agents))
    report = SessionReport(universe=script.universe)
    for stmt in script.statements:
        source = print_statement(stmt)
        ev.notes = []
        kind = {Let: "let", Eval: "eval", AssertDisc: "assert_disc", Expect: "expect"}[type(stmt)]
        try:
            if isinstance(stmt, Let):
                value = ev.bind(stmt)
                report.results.append(
                    StatementResult(kind, f"let {stmt.name}", True, value, notes=tuple(ev.notes))
                )
            elif isinstance(stmt, Eval):
                value, _ = ev.eval(stmt.expr)
                report.results.append(
                    StatementResult(kind, f"eval {print_expr(stmt.expr)}", True, value,
                                    notes=tuple(ev.notes))
                )
            elif isinstance(stmt, AssertDisc):
                value, _ = ev.eval(stmt.expr)
                violations = disc_violations(value, ev.spec)
                report.results.append(
                    StatementResult(
                        kind,
                        f"assert_disc {print_expr(stmt.expr)}",
                        not violations,
                        value,
                        detail="; ".join(str(v) for v in violations),
                        notes=tuple(ev.notes),
                    )
                )
            else:
                value, _ = ev.eval(stmt.expr)
                ok = value == stmt.target
                detail = "" if ok else (
                    f"expected {format_negset(stmt.target)} got {format_negset(value)}"
                )
                report.results.append(
                    StatementResult(
                        kind, f"expect {print_expr(stmt.expr)}", ok, value,
                        detail=detail, notes=tuple(ev.notes),
                    )
                )
        except NegsetError as exc:
            report.results.append(
                StatementResult(kind, source, False, detail=str(exc), notes=tuple(ev.notes))
            )
            report.halted = True
            report.halt_reason = str(exc)
            report.halt_kind = (
                "resolution" if isinstance(exc, (ResolutionFailed, InputNotDisc)) else "error"
            )
            break
    return report
