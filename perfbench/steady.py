"""Steadiness report: run workloads repeatedly and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads sweep,validate,serve \\
        --seeds 1-10 --repeat-seed 1

Each workload runs once per seed (one process per run, one after the
other) for ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric the report prints the median and the inter-quartile
spread as a share of the median (Python's
``statistics.quantiles(values, n=4)``), for the host-normalised value
the benchmark reports and for the raw value beside it, and compares the
spread with the metric's bound in ``BENCHMARK.json``.  ``--repeat-seed``
adds two more runs with one seed and flags any drift in the exact work
counts, which must repeat exactly.  The environment line records the
machine the figures come from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 900


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        for prefix, key in (
            ("raw metrics: ", "raw"),
            ("exact counts: ", "counts"),
            ("environment: ", "environment"),
        ):
            if line.startswith(prefix):
                result[key] = json.loads(line[len(prefix) :])
    return result


def _spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,validate,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat-seed", type=int, default=None)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    seeds = _seeds(args.seeds)
    environment_shown = False
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = _run(workload, seed, seconds)
            runs.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(
                    f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                ),
                flush=True,
            )
        if not environment_shown:
            print("environment: " + json.dumps(runs[0].get("environment")))
            environment_shown = True
        print(f"\n{workload}: {len(runs)} runs of {seconds} s")
        print(
            f"  {'metric':<18} {'median':>12} {'spread':>8} {'raw median':>12}"
            f" {'raw spread':>10} {'bound':>6}  within bound/3"
        )
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            spread = _spread(values)
            raw = [r.get("raw", {}).get(name) for r in runs]
            raw_text = ""
            if all(v is not None for v in raw):
                raw_text = f"{statistics.median(raw):12.6g} {_spread(raw):10.3f}"
            else:
                raw_text = f"{'-':>12} {'-':>10}"
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "yes" if spread < bound / 3 else "NO"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(
                f"  {name:<18} {statistics.median(values):12.6g} {spread:8.3f}"
                f" {raw_text} {bound if bound is not None else '-':>6}  {verdict}"
            )
        if args.repeat_seed is not None:
            counts = [
                _run(workload, args.repeat_seed, seconds)["counts"] for _ in range(2)
            ]
            counts.append(
                next(
                    (r["counts"] for r, s in zip(runs, seeds) if s == args.repeat_seed),
                    counts[0],
                )
            )
            drift = [
                key for key in counts[0] if len({json.dumps(c.get(key)) for c in counts}) > 1
            ]
            print(
                f"  exact counts, seed {args.repeat_seed} x{len(counts)}: "
                + ("no drift" if not drift else "DRIFT in " + ", ".join(drift))
                + " "
                + json.dumps(counts[0], sort_keys=True)
            )
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
