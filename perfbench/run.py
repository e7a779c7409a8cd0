"""End-to-end harden -> run -> hunt benchmark of the RedFat reproduction.

    python3 perfbench/run.py --workload spec --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.
One process, one client, calls made in sequence (a closed loop).  After
set-up (timed several times; the median is reported) the workload runs
whole passes until ``--seconds`` have elapsed and at least its
``min_passes``; every time is scaled to the reference speed of the
machine (``REFERENCE_PROBE_S``) and each end-to-end metric is the median
over the passes.  ``--trace 1`` instead makes one untraced and one
traced pass plus the per-layer probes of :mod:`layers` and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable table.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3

#: The speed probe's time on the machine the bounds were set on (a 2-vCPU
#: Xeon VM), about its 5th percentile there.  Times are scaled by this
#: over the probe's mean during the pass, so they read roughly as seconds
#: on that machine uncontended (see ``workloads.SpeedProbe``).
REFERENCE_PROBE_S = 6e-3

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "harden_s": "s",
    "run_cold_s": "s",
    "run_warm_s": "s",
    "exec_p50_ms": "ms",
    "exec_tail_ms": "ms",
    "execs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_workloads():
    """Import the benchmark against this checkout's ``src/`` tree."""
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    import workloads

    return workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_metrics(workloads, result):
    """One pass's timing metrics, scaled to the reference probe speed."""
    scale = REFERENCE_PROBE_S / result.probe_s
    total_s = scale * result.seconds("harden", "cold", "warm", "replay",
                                     "other")
    latencies = [seconds * scale * 1e3 for _key, seconds in result.samples]
    percentile, tail_ms = workloads.tail(latencies)
    return {
        "total_s": total_s,
        "harden_s": scale * result.seconds("harden"),
        "run_cold_s": scale * result.seconds("cold"),
        "run_warm_s": scale * result.seconds("warm", "replay"),
        "exec_p50_ms": workloads.median(latencies),
        "exec_tail_ms": tail_ms,
        "execs_per_s": result.executions / total_s,
    }, percentile


def end_to_end(workloads, workload, tally, seconds: float, import_s: float):
    workload.probe.sample(20)
    import_s *= REFERENCE_PROBE_S / workload.probe.take_mean()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        workload.probe.sample(20)
        setups.append(elapsed * REFERENCE_PROBE_S / workload.probe.take_mean())
    passes = []
    begin = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - begin < seconds):
        passes.append(workload.run_pass(tally))
    per_pass = [pass_metrics(workloads, result) for result in passes]
    metrics = {
        name: workloads.median(m[name] for m, _ in per_pass)
        for name in per_pass[0][0]
    }
    metrics["setup_s"] = import_s + workloads.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = {
        "passes": len(passes),
        "pass_wall_s": [r.total_s for r in passes],
        "probe_ms": [r.probe_s * 1e3 for r in passes],
        "exec_samples": [len(r.samples) for r in passes],
        "tail_percentile": [percentile for _, percentile in per_pass],
        "counts": [r.counts for r in passes],
    }
    if any(r.counts != passes[0].counts for r in passes):
        tally.check(False, "count metrics differ between identical passes")
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spec", "hunt-cve", "chrome-kraken"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = workloads.Tally()
    if args.trace:
        import layers

        metrics, notes = layers.per_layer(workload, tally)
    else:
        metrics, notes = end_to_end(workloads, workload, tally,
                                    args.seconds, import_s)
    width = max(len(name) for name in metrics)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    for key, value in notes.items():
        print(f"  # {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  # fail_rate: {tally.failed}/{tally.attempted}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
