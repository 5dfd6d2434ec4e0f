"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workloads sessions,wide,laws --seeds 1-10 [--seconds 30]
                                [--trace 0|1] [--out FILE]

For every metric it prints the median and the spread, the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--out`` it writes the runs and the summary as
JSON.  ``--seeds`` takes ranges and single seeds separated by commas; with
``--trace 1 --seeds 1,1`` it also checks that the counts later changes may
rest claims on repeat exactly between runs of one seed, and exits with 1
when they do not.  Run from the root of a checkout, like ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import STABLE_COUNTS

HERE = Path(__file__).resolve().parent


def seeds(text):
    out = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def unstable_counts(runs):
    """Names of the stable counts that differ between two runs of one seed."""
    first, out = {}, set()
    for run in runs:
        counts = {n: run["metrics"][n]["value"] for n in STABLE_COUNTS}
        for name, value in counts.items():
            if first.setdefault(run["seed"], counts)[name] != value:
                out.add(name)
    return sorted(out)


def summarise(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=lambda text: text.split(","), required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"command": ["python3", "perfbench/run.py", "--workload", "<workload>", "--seed",
                          "<seed>", "--seconds", str(args.seconds), "--trace", str(args.trace)],
              "python": platform.python_version(), "repetitions": len(args.seeds),
              "seeds": args.seeds, "workloads": {}}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, check=True, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']}, {result['failed']} of "
                  f"{result['attempted']} failed", flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            print(f"  {name:42s} median {s['median']:14.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.trace:
            unstable = unstable_counts(runs)
            print(f"  counts that differ between runs of one seed: {unstable or 'none'}")
            status |= bool(unstable)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
