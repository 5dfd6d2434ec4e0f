"""negset benchmark.

    python3 perfbench/run.py --workload sessions|wide|laws --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and driven in-process through ``negset.cli.main`` by one
closed-loop client: the next request starts when the previous one returns.
Inputs are generated from the seed and written before timing starts; every
output is checked against ``reference``, which shares no code with the
package.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import reference as ref
import tracing
import workloads
from speed import REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Exponent of the speed correction (see speed.py): how strongly each kind of
# timing follows the probe's loop.  On the machine the baseline was recorded
# on, log(time) against log(loop time) over 90 to 100 s had slopes of about
# 0.9 for batches of ``sessions`` requests, 0.53 to 0.77 for single
# ``laws --all`` calls, about 0.6 for ``wide`` requests and 0.84 to 0.95 for
# ``import negset`` in a fresh interpreter.
SENSITIVITY = {"sessions": 0.9, "wide": 0.6, "laws": 0.7}
SETUP_SENSITIVITY = 0.9

IMPORT_PROBE = ("import time; t = time.perf_counter(); import negset; "
                "print(time.perf_counter() - t, negset.__file__)")


def load_package():
    """Import negset from this checkout's src/, or stop with a nonzero exit code."""
    if not (SRC / "negset" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'negset'}")
    sys.path.insert(0, str(SRC))
    import negset
    import negset.cli

    if Path(negset.__file__).resolve().parent != (SRC / "negset").resolve():
        sys.exit(f"perfbench: negset imported from {negset.__file__}, not from {SRC}")
    return negset


class SetupProbe:
    """Wall time of ``import negset`` in a fresh interpreter, sampled through the run.

    Spreading the samples over the run keeps one slow stretch of a shared
    machine from setting the median.
    """

    INTERVAL_S = 1.0

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[tuple[float, float, float]] = []  # (seconds, start, end)
        self.last = 0.0
        self.sample()  # warm-up: writes the bytecode cache, not counted
        self.samples.clear()
        for _ in range(3):
            self.sample()

    def sample(self):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, path = done.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != (SRC / "negset").resolve():
            sys.exit(f"perfbench: set-up probe imported {path.strip()}")
        self.last = time.perf_counter()
        self.samples.append((float(seconds), start, self.last))

    def tick(self):
        """Catch up, up to five samples, after a request that outlasted the interval."""
        for _ in range(min(5, int((time.perf_counter() - self.last) / self.INTERVAL_S))):
            self.sample()


class Attempt(NamedTuple):
    pass_no: int
    form: str
    start: float      # time.perf_counter()
    wall: float       # seconds
    stmts: int
    ok: bool
    rid: int


def percentile(values, q):
    """Percentile interpolated between the samples around it (p90 has ten beyond it from 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- checking outputs ---

class LawChecker:
    """Checks a ``laws --all --json`` report against the reference's decisions."""

    def __init__(self):
        self.holds = {law: ref.decide_law(law) for law in ref.LAW_IDS}
        self._tuples = {}

    def tuples(self, law, n):
        if (law, n) not in self._tuples:
            self._tuples[law, n] = ref.expected_tuples(law, n)
        return self._tuples[law, n]

    def problems(self, code, stdout):
        try:
            doc = json.loads(stdout)
            laws = [(r["law"], r["size"], r["verdict"], r["checked"], r["violation_count"],
                     r["counterexamples"], r["matches_expected"]) for r in doc["laws"]]
            fixtures = [(f["fixture"], f["passed"]) for f in doc["fixtures"]]
            ok = doc["ok"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc}"]
        out = []
        if code != 0 or ok is not True:
            out.append(f"exit code {code}, ok {ok}")
        if sorted(law[0] for law in laws) != sorted(ref.LAW_IDS):
            out.append("law list differs from the catalog")
        for law, n, verdict, checked, violations, examples, matches in laws:
            if law not in self.holds:
                continue
            holds = self.holds[law]
            want = "holds-everywhere" if holds else "counterexamples"
            if verdict != want or not matches:
                out.append(f"{law}: verdict {verdict}, reference {want}")
            if checked != self.tuples(law, n):
                out.append(f"{law}: {checked} tuples, reference {self.tuples(law, n)}")
            want_count = 0 if holds else ref.expected_violations(law, n)
            if violations != want_count:
                out.append(f"{law}: {violations} violations, reference {want_count}")
            if len(examples) != min(5, want_count):
                out.append(f"{law}: {len(examples)} counterexamples printed")
            for example in examples:
                if holds or not ref.counterexample_violates(law, n, example):
                    out.append(f"{law}: counterexample does not violate it: {example}")
        if not fixtures or not all(passed for _, passed in fixtures):
            out.append(f"fixtures: {fixtures}")
        return out

    @staticmethod
    def normalise(stdout):
        """The report without its only time-dependent field, ``elapsed``."""
        try:
            doc = json.loads(stdout)
        except ValueError:
            return stdout
        for r in doc.get("laws", []):
            r.pop("elapsed", None)
        return json.dumps(doc, sort_keys=True)


class Client:
    """Closed-loop client: sends requests, checks outputs, keeps the tallies."""

    def __init__(self, cli, laws: LawChecker | None):
        self.cli = cli
        self.laws = laws
        self.first: dict[int, str] = {}     # request id -> digest of its first output
        self.first_ok: dict[int, bool] = {}
        self.failed = 0
        self.wrong: list[str] = []          # wrong answers, unexpected crashes, nondeterminism
        self.crashes: dict[str, int] = {}   # uncaught exception type -> count
        self.pass_no = 0
        self.attempts: list[Attempt] = []

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    def call(self, req, tracer=None):
        out, err = io.StringIO(), io.StringIO()

        def send():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(list(req.argv))

        crash = None
        start = time.perf_counter()
        try:
            code = tracer.root(req.rid, send) if tracer else send()
        except Exception as exc:  # request boundary: an uncaught error fails this request
            code, crash = None, type(exc).__name__
        wall = time.perf_counter() - start
        ok = self.check(req, code, out.getvalue(), err.getvalue(), crash)
        self.failed += not ok
        self.attempts.append(Attempt(self.pass_no, req.form, start, wall, req.stmts, ok, req.rid))

    def check(self, req, code, stdout, stderr, crash) -> bool:
        stable = stdout if self.laws is None else self.laws.normalise(stdout)
        digest = hashlib.sha256(repr((code, stable, stderr, crash)).encode()).hexdigest()
        if req.rid in self.first:
            if digest != self.first[req.rid]:
                self.wrong.append(f"request {req.rid} ({' '.join(req.argv)}): output differs "
                                  "between passes")
                return False
            return self.first_ok[req.rid]
        self.first[req.rid] = digest
        self.first_ok[req.rid] = self._correct(req, code, stdout, crash)
        return self.first_ok[req.rid]

    def _correct(self, req, code, stdout, crash) -> bool:
        if crash is not None:
            self.crashes[crash] = self.crashes.get(crash, 0) + 1
            problems = [] if crash == req.known_crash else [f"uncaught {crash}"]
            ok = False
        elif self.laws is not None:
            problems = self.laws.problems(code, stdout)
            ok = not problems
        elif code != req.exit_code:
            problems = [f"exit code {code}, reference {req.exit_code}"]
            ok = False
        else:
            try:
                got = (workloads.digest_json(json.loads(stdout)) if req.form.endswith("json")
                       else workloads.digest_text(stdout))
            except ValueError as exc:
                got = f"unreadable JSON: {exc}"
            problems = [] if got == req.digest else ["output differs from the reference"]
            ok = not problems
        for p in problems:
            self.wrong.append(f"request {req.rid} ({' '.join(req.argv)}): {p}")
        return ok


# --- passes ---

def run_pass(client, requests, tracer=None, between=None):
    """Send every request once."""
    gc.collect()
    for req in requests:
        client.call(req, tracer)
        if between is not None:
            between()
    client.pass_no += 1


def fits(start, done, last, seconds):
    """Whether another round as long as ``last`` ends within ``seconds``; at least two rounds."""
    return done < 2 or time.perf_counter() - start + last <= seconds


def untraced(client, requests, seconds, setup):
    """Whole passes while they fit in ``seconds``, at least two so outputs can be compared."""
    start, last = time.perf_counter(), 0.0
    while fits(start, client.pass_no, last, seconds):
        t0 = time.perf_counter()
        run_pass(client, requests, between=setup.tick)
        last = time.perf_counter() - t0


def traced(client, requests, seconds, scripts):
    """Alternate untraced and traced passes of the same requests, at least two of each."""
    start, last = time.perf_counter(), 0.0
    walls, figures, coverage, first = {"plain": [], "traced": []}, [], [], None
    while fits(start, len(figures), last, seconds):
        t0 = time.perf_counter()
        run_pass(client, requests)
        t1 = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.install(capture_operands=first is None)
        try:
            run_pass(client, requests, tracer)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        walls["plain"].append(t1 - t0)
        walls["traced"].append(t2 - t1)
        m, covered = tracing.layer_metrics(tracer, scripts)
        figures.append(m)
        coverage.append(covered / (t2 - t1))
        first = first or tracer
        last = t2 - t0
    from negset import core

    result = {}  # counts from the first traced pass, times as medians over passes
    for name, value in figures[0].items():
        is_count = isinstance(value, int)
        result[name] = value if is_count else statistics.median(f[name] for f in figures)
    result["core.odot.us"] = tracing.replay_us(core.odot, first.operands["odot"])
    result["core.oplus.us"] = tracing.replay_us(core.oplus, first.operands["oplus"])
    plain, slow = statistics.median(walls["plain"]), statistics.median(walls["traced"])
    result["trace.overhead_pct"] = (slow / plain - 1) * 100
    result["trace.coverage"] = statistics.median(coverage)
    unstable = [n for n in tracing.STABLE_COUNTS if len({f[n] for f in figures}) > 1]
    return result, first, unstable


# --- reporting ---

def end_to_end(client, setup, speed=None, sensitivity=0.0):
    """The declared end-to-end metrics; with a ``speed`` probe, at reference speed."""
    def scaled(seconds, start, end, s):
        return seconds * speed.factor(start, end, s) if speed else seconds

    times = [scaled(a.wall, a.start, a.start + a.wall, sensitivity) for a in client.attempts]
    ok_ms = [t * 1e3 for t, a in zip(times, client.attempts) if a.ok]
    per_request = {}
    for t, a in zip(times, client.attempts):
        per_request.setdefault(a.rid, []).append(t)
    return {
        "setup_s": statistics.median(scaled(*sample, SETUP_SENSITIVITY)
                                     for sample in setup.samples),
        "latency_ms_p50": percentile(ok_ms, 50),
        "latency_ms_p90": percentile(ok_ms, 90),
        "pass_s": sum(statistics.median(ts) for ts in per_request.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary_lines(workload, why, record, client):
    """Human-readable figures: size, per-command breakdown, error rate, wrong answers."""
    lines = [f"workload {workload}: {why}"]
    if record:
        lines.append("  size: " + ", ".join(f"{k} {v}" for k, v in record.items()))
    lines.append("  wall time:")
    by_command = {}
    for a in client.attempts:
        if a.ok:
            by_command.setdefault(a.form.split("-")[0], []).append((a.wall, a.stmts))
    for command, items in sorted(by_command.items()):
        ms = [t * 1e3 for t, _ in items]
        name, unit, div = ("laws_all_s", "s", 1e3) if command == "laws" else (
            f"{command}_ms", "ms", 1)
        lines.append(f"    {name}_p50 {percentile(ms, 50) / div:.4f} {unit}   "
                     f"{name}_p90 {percentile(ms, 90) / div:.4f} {unit}   (n = {len(ms)})")
    stmts = [(t, n) for items in by_command.values() for t, n in items if n]
    if stmts:
        lines.append(f"    stmts_per_s {sum(n for _, n in stmts) / sum(t for t, _ in stmts):.1f} 1/s")
    lines.append(f"  error_rate {client.failed / client.attempted:.4f} "
                 f"({client.failed} of {client.attempted} over {client.pass_no} passes; "
                 f"uncaught: {client.crashes or 'none'})")
    lines += [f"  WRONG {problem}" for problem in client.wrong[:20]]
    return lines


def session_requests(workload, seed, workdir):
    """Generate the scripts and expected outputs in a child process."""
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--dir", str(workdir)], check=True, timeout=170)
    doc = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    return [workloads.Request(**r) for r in doc["requests"]], doc["record"]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    negset = load_package()
    ref.self_check()
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "laws":
            requests, record, checker = workloads.laws_requests(), {}, LawChecker()
        else:
            requests, record = session_requests(args.workload, args.seed, workdir)
            checker = None
        client = Client(negset.cli, checker)
        if args.trace:
            metrics, tracer, unstable = traced(client, requests, args.seconds, len(requests))
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            client.wrong += [f"count {n} differs between traced passes" for n in unstable]
        else:
            speed = SpeedProbe(workdir / "speed.txt")
            try:
                setup = SetupProbe()
                untraced(client, requests, args.seconds, setup)
            finally:
                speed.stop()
            metrics = end_to_end(client, setup, speed, SENSITIVITY[args.workload])
            raw = end_to_end(client, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in summary_lines(args.workload, why[args.workload], record, client):
        print(line)
    if not args.trace:
        print(f"  speed probe: loop median {speed.loop() * 1e3:.4f} ms over "
              f"{len(speed.loops)} samples (reference {REFERENCE_S * 1e3:.4f} ms)")
        print("  unscaled: " + "   ".join(f"{name} {raw[name]:.6g} {unit}"
                                         for name, unit in units.items()))
    print(json.dumps({
        "correct": not client.wrong,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
