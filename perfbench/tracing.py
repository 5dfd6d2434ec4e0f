"""Traced run: spans around calls into each layer, recorded from the benchmark.

Wrappers are installed at the module attributes through which the package
calls each layer, only for the duration of a traced pass, and removed
afterwards.  Spans are kept in memory as ``[name, start, end, parent,
request]``; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from reference import LAW_IDS

CORE_OPS = ("complement", "difference", "union_all", "inter_all", "odot_all", "oplus_all",
            "odot", "oplus")

# counts that must repeat exactly between two traced runs of one seed
STABLE_COUNTS = ("core.ops", "consistency.disc.calls", "consistency.resolve.calls",
                 "oracle.tuples")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.operands: dict[str, list] = {"odot": [], "oplus": []}
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---

    def span(self, name, fn, after=None, capture=None):
        """Wrap ``fn`` so that each call records a span; ``after(args, result)`` counts work."""
        spans, stack = self.spans, self.stack
        is_core = name.startswith("core.")

        def wrapper(*args, **kwargs):
            if is_core and stack and spans[stack[-1]][0].startswith("core."):
                return fn(*args, **kwargs)  # an operator built from another is one op
            if capture is not None:
                capture.append(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def root(self, request_id, call):
        """Run one request inside a ``cli`` span."""
        self.request = request_id
        return self.span("cli", call)()

    # --- installing wrappers ---

    def _patch(self, owner, attr, name, after=None, capture=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after, capture))

    def install(self, capture_operands):
        from negset import cli, consistency, core, oracle, session

        counts = self.counts

        def parsed(args, result):
            counts["parse_bytes"] += len(args[0].encode())

        def evaluated(args, report):
            counts["stmts"] += len(report.results)

        def rendered(args, text):
            counts["render_bytes"] += len(text.encode())

        def resolved(args, outcome):
            if outcome.ok:
                counts["dropped"] += len(outcome.dropped)
            else:
                counts["failed"] += 1

        self._patch(cli, "parse_session", "session.parse", parsed)
        self._patch(cli, "run_session", "session.eval", evaluated)
        self._patch(cli, "eval_expr", "session.check_eval")
        self._patch(session.SessionReport, "to_text", "session.render_text", rendered)
        self._patch(session.SessionReport, "to_json", "session.render_json", rendered)
        for owner in (session, cli, oracle):
            self._patch(owner, "make_contradiction_spec", "consistency.spec")
        for owner in (consistency, session, cli, oracle):
            self._patch(owner, "disc_violations", "consistency.disc")
        self._patch(session, "resolve_odot", "consistency.resolve", resolved)
        for op in CORE_OPS:
            capture = self.operands.get(op) if capture_operands else None
            self._patch(core, op, f"core.{op}", capture=capture)
        self._patch(consistency, "odot", "core.odot",
                    capture=self.operands["odot"] if capture_operands else None)
        for op in ("complement", "odot", "odot_all", "oplus", "oplus_all"):
            capture = self.operands.get(op) if capture_operands else None
            self._patch(oracle, op, f"core.{op}", capture=capture)
        self._patch_laws(oracle)
        self._patch(oracle, "verify_fixture", "oracle.fixtures")

    def _patch_laws(self, oracle):
        original = oracle.check_law
        self._patched.append((oracle, "check_law", original))
        wrapped = {}

        def check_law(law_id, *args, **kwargs):
            if law_id not in wrapped:
                def counted(args_, report):
                    self.counts["tuples"] += report.checked
                wrapped[law_id] = self.span(f"oracle.{law_id}", original, counted)
            return wrapped[law_id](law_id, *args, **kwargs)

        oracle.check_law = check_law

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def replay_us(fn, operands, min_seconds=0.02):
    """µs per call of ``fn`` over captured operands, replayed in a tight loop."""
    if not operands:
        return 0.0
    calls, start = 0, time.perf_counter()
    while True:
        for args in operands:
            fn(*args)
        calls += len(operands)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls * 1e6


def layer_metrics(tracer, scripts_per_pass):
    """Per-layer figures for one traced pass (times in ms)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    disc_in_resolve = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        d = end - start
        total[name] += d
        own[name] += d - child[i]
        calls[name] += 1
        if name == "consistency.disc" and parent >= 0 and spans[parent][0] == "consistency.resolve":
            disc_in_resolve += 1
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = own["session.parse"]
    core_names = [n for n in calls if n.startswith("core.")]
    law_ms = {law: total[f"oracle.{law}"] * 1e3 for law in LAW_IDS}
    m = {
        "cli.self_ms": own["cli"] * 1e3,
        "session.parse.ms": parse_s * 1e3,
        "session.parse.kb_per_s": ratio(c["parse_bytes"] / 1024, parse_s),
        "session.eval.ms": own["session.eval"] * 1e3,
        "session.eval.stmts": c["stmts"],
        "session.check_eval.ms": own["session.check_eval"] * 1e3,
        "session.render_text.ms": own["session.render_text"] * 1e3,
        "session.render_json.ms": own["session.render_json"] * 1e3,
        "session.render.kb": c["render_bytes"] / 1024,
        "consistency.spec.ms": total["consistency.spec"] * 1e3,
        "consistency.spec.calls_per_script": ratio(calls["consistency.spec"], scripts_per_pass),
        "consistency.disc.calls": calls["consistency.disc"],
        "consistency.disc.ms": total["consistency.disc"] * 1e3,
        "consistency.disc.us_per_call": ratio(total["consistency.disc"] * 1e6,
                                              calls["consistency.disc"]),
        "consistency.resolve.calls": calls["consistency.resolve"],
        "consistency.resolve.ms": own["consistency.resolve"] * 1e3,
        "consistency.resolve.failed": c["failed"],
        "consistency.resolve.dropped": c["dropped"],
        "consistency.disc_per_resolve": ratio(disc_in_resolve, calls["consistency.resolve"]),
        "core.ops": sum(calls[n] for n in core_names),
        "core.ms": sum(own[n] for n in core_names) * 1e3,
        **{f"oracle.{law}.ms": ms for law, ms in law_ms.items()},
        "oracle.fixtures.ms": total["oracle.fixtures"] * 1e3,
        "oracle.tuples": c["tuples"],
        "oracle.us_per_tuple": ratio(sum(law_ms.values()) * 1e3, c["tuples"]),
    }
    covered = sum(end - start for name, start, end, parent, _ in spans
                  if parent >= 0 and spans[parent][0] == "cli")
    return m, covered
