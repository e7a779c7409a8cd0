"""Steadiness check: run one workload on several seeds and report spreads.

    python3 perfbench/steady.py --workload spec --runs 10 --first-seed 1

Runs ``perfbench/run.py`` untraced once per seed (``--seconds`` defaults
to ``run_seconds`` from ``BENCHMARK.json``), then prints, for every
end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread ``(Q3 - Q1) / median`` next to the metric's bound.
On ``spec`` and ``chrome-kraken`` the seed only reorders the inputs, so
every run must also print identical counts.  Exits 1 if a run is not
correct, a spread other than ``setup_s``'s exceeds its bound, the
counts differ, or ``BENCHMARK.json`` disagrees with the metric tables
in ``run.py`` / ``layers.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def check_tables(spec) -> list:
    """Names and units in BENCHMARK.json must match the code's tables."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers
    import run

    problems = []
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", layers.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from the code")
    return problems


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, check=True)
    lines = completed.stdout.strip().splitlines()
    counts = set()
    for line in lines:
        if line.strip().startswith("# counts:"):
            for entry in json.loads(line.split("# counts:", 1)[1]):
                counts.add(json.dumps(entry, sort_keys=True))
    return json.loads(lines[-1]), counts


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    problems = check_tables(spec)
    values = {}
    counts = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, count_lines = run_once(args.workload, seed, args.seconds)
        counts.append(count_lines)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{name}={metric['value']:.4g}"
                  for name, metric in result["metrics"].items()), flush=True)
        if not result["correct"]:
            problems.append(f"seed {seed} is not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values.get(name, [])
        if len(series) < 2:
            problems.append(f"{name}: fewer than two values")
            continue
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        flag = "" if spread <= bound / 3 else (
            " (above a third of the bound)" if spread <= bound else " OVER")
        print(f"{name:<14} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6}{flag}")
        if spread > bound and name != "setup_s":
            problems.append(f"{name}: spread {spread:.4f} over bound {bound}")
    if args.workload != "hunt-cve" and any(c != counts[0] for c in counts):
        problems.append("counts differ between seeds")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
