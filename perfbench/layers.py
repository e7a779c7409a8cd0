"""The traced run: per-layer metrics, read from outside the program.

One traced run makes, on the same inputs:

1. set-up once (``cc.compile_s``);
2. one untraced pass, as the end-to-end run makes it but with the trace
   tier forced (``api.run(engine="trace")``);
3. one traced pass: the same pass with a
   :class:`~repro.telemetry.Telemetry` hub threaded into every harden,
   run and runtime, whose spans and counters give the rewriter, analysis,
   core, vm, runtime, hunt and farm numbers.  ``hunt-cve`` passes a hub
   to ``api.hunt`` in its end-to-end pass already, so on that workload
   both passes are the same and ``trace_overhead_s`` is only noise;
4. probes that time each layer's public function on the pass's inputs:
   ``recover_control_flow``, the five dataflow analyses one by one,
   ``load_binary``, the untraced pass's executions replayed with the
   superblock and the single-step tier forced, and (``hunt-cve``) the
   discovered inputs replayed under every runtime backend.

The untraced and traced passes must agree on every count (determinism
self-check), the three tiers must retire identical instruction counts,
and on ``spec`` the cold runs must compile traces and the warm runs must
compile none.  A failed self-check counts as a failed operation.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro import api
from repro.errors import ReproError
from repro.telemetry.hub import Telemetry
from repro.vm.loader import load_binary

import workloads
from workloads import median

#: VM tiers, forced one at a time through ``api.run(engine=...)``.
TIERS = ("trace", "superblock", "single-step")

#: The hunt's hardened backends (``HuntConfig.runtimes`` defaults).
BACKENDS = ("redfat", "s2malloc", "mesh", "camp", "frp")

#: Replays per backend for ``runtime.<backend>.exec_s`` (median).
BACKEND_REPEATS = 3

#: A traced run must end inside the 180-s limit on a slow machine too: a
#: tier replay projected to end later than this many seconds into the run
#: is skipped, its times read 0 and the notes name it.
DEADLINE_S = 135.0

#: Replay time of each tier relative to the trace tier's (spec, measured).
TIER_COST = {"superblock": 1.1, "single-step": 1.6}

#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer a workload does not use reads 0.
PER_LAYER = {
    "cc.compile_s": "s",
    "rewriter.cfg_s": "s",
    "rewriter.decoded_instructions": "count",
    "rewriter.patch_s": "s",
    "rewriter.trampolines": "count",
    "rewriter.hardened_bytes": "bytes",
    "analysis.dataflow_s": "s",
    "analysis.callgraph_s": "s",
    "analysis.ranges_s": "s",
    "analysis.provenance_s": "s",
    "analysis.liveness_s": "s",
    "analysis.dominators_s": "s",
    "analysis.functions": "count",
    "analysis.blocks": "count",
    "core.candidate_sites": "count",
    "core.checks_inserted": "count",
    "core.checks_eliminated.syntactic": "count",
    "core.checks_eliminated.provenance": "count",
    "core.checks_eliminated.dominated": "count",
    "core.checks_eliminated.range": "count",
    "core.checks_batched": "count",
    "core.checks_merged": "count",
    "core.checkgen_s": "s",
    "core.select_s": "s",
    "vm.load_s": "s",
    **{f"vm.run_{phase}_s.{tier}": "s"
       for phase in ("cold", "warm") for tier in TIERS},
    "vm.instructions_retired": "count",
    "vm.checks_executed": "count",
    "vm.traces_compiled": "count",
    **{f"runtime.{backend}.exec_s": "s" for backend in BACKENDS},
    "runtime.reports": "count",
    "alloc.malloc": "count",
    "hunt.harden_s": "s",
    "hunt.mutate_s": "s",
    "hunt.matrix_s": "s",
    "hunt.executions": "count",
    "hunt.coverage_edges": "count",
    "hunt.queue_size": "count",
    "farm.harden_many_s": "s",
    "farm.cache.hits": "count",
    "farm.cache.misses": "count",
    "trace_overhead_s": "s",
    "unattributed_share": "ratio",
    "guest_instructions": "count",
    "overhead_geomean": "ratio",
    "cves_found": "count",
    "execs_to_detect": "count",
    "matrix_detect_rate": "ratio",
    "fail_rate": "ratio",
    "exec_samples": "count",
}

#: Program counters read straight into per-layer metrics.
COUNTERS = {
    "core.candidate_sites": "analysis.candidates",
    "core.checks_inserted": "checks.inserted",
    "core.checks_eliminated.syntactic": "checks.eliminated",
    "core.checks_eliminated.provenance": "checks.eliminated_provenance",
    "core.checks_eliminated.dominated": "checks.eliminated_dominated",
    "core.checks_eliminated.range": "checks.eliminated_range",
    "core.checks_batched": "checks.batched",
    "core.checks_merged": "checks.merged",
    "vm.instructions_retired": "vm.instructions_retired",
    "vm.checks_executed": "vm.checks_executed",
    "vm.traces_compiled": "vm.traces_compiled",
    "runtime.reports": "runtime.reports",
    "alloc.malloc": "alloc.malloc",
    "hunt.executions": "hunt.executions",
    "farm.cache.hits": "farm.cache.hits",
    "farm.cache.misses": "farm.cache.misses",
}

#: Program spans summed into per-layer times.
SPANS = {
    "rewriter.patch_s": ("patching",),
    "analysis.dataflow_s": ("dataflow",),
    "core.checkgen_s": ("checkgen",),
    "core.select_s": ("analysis", "batching"),
    "hunt.harden_s": ("hunt.harden",),
    "hunt.mutate_s": ("hunt.entry",),
    "farm.harden_many_s": ("farm",),
}


def _span_sum(hubs, names) -> float:
    return sum(workloads.span_total(hub, *names) for hub in hubs)


def _leaf_share(hubs, total_s: float) -> float:
    """Share of *total_s* inside the program's innermost spans."""
    covered = 0.0
    for hub in hubs:
        paths = {span.path for span in hub.spans}
        parents = {path.rsplit("/", 1)[0] for path in paths if "/" in path}
        covered += sum(span.duration_s for span in hub.spans
                       if span.path not in parents)
    return covered / total_s if total_s else 0.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def probe_analysis(binaries, metrics: Dict[str, float]) -> None:
    """Time CFG recovery and each dataflow analysis on *binaries*.

    Mirrors ``analyze_control_flow``: the interprocedural passes
    (call graph + summaries, ranges) run only on a non-leaky graph.
    """
    from repro.analysis import callgraph, dominators, liveness, provenance, ranges
    from repro.analysis.graph import build_block_graph
    from repro.rewriter.cfg import recover_control_flow

    for binary in binaries:
        seconds, control_flow = _timed(recover_control_flow, binary)
        metrics["rewriter.cfg_s"] += seconds
        metrics["rewriter.decoded_instructions"] += len(control_flow.instructions)
        graph = build_block_graph(control_flow)
        metrics["analysis.blocks"] += len(graph.blocks)
        summaries = call_graph = None
        if not graph.leaky:
            start = time.perf_counter()
            call_graph = callgraph.build_call_graph(graph)
            summaries = callgraph.compute_summaries(call_graph, graph)
            metrics["analysis.callgraph_s"] += time.perf_counter() - start
            metrics["analysis.functions"] += len(summaries)
            seconds, _ = _timed(ranges.compute_range_facts,
                                graph, call_graph, summaries)
            metrics["analysis.ranges_s"] += seconds
        seconds, _ = _timed(provenance.compute_entry_facts, graph,
                            summaries=summaries)
        metrics["analysis.provenance_s"] += seconds
        seconds, _ = _timed(liveness.compute_live_out, graph)
        metrics["analysis.liveness_s"] += seconds
        seconds, _ = _timed(dominators.compute_dominators, graph)
        metrics["analysis.dominators_s"] += seconds


def probe_tiers(plain, metrics: Dict[str, float], tally,
                started: float) -> List[str]:
    """Replay the *plain* pass's executions on the other VM tiers.

    The plain pass ran every execution on the trace tier; each other
    tier replays them in the same order on the same hardened binaries
    (neither keeps a cross-run cache, so the first replay of an input is
    cold for it) and must retire exactly the same instruction counts.
    Returns the tiers skipped to meet :data:`DEADLINE_S`.
    """
    skipped = []
    hardened = dict(plain.detail["hardened"])
    for result in hardened.values():
        seconds, _ = _timed(load_binary, result.binary,
                            result.create_runtime(mode="log"))
        metrics["vm.load_s"] += seconds
    metrics["vm.run_cold_s.trace"] = plain.seconds("cold")
    metrics["vm.run_warm_s.trace"] = plain.seconds("warm")
    trace_s = plain.seconds("cold", "warm")
    for tier in TIERS[1:]:
        projected = time.perf_counter() - started + trace_s * TIER_COST[tier]
        if projected > DEADLINE_S:
            skipped.append(tier)
            continue
        for label, phase, reference, expected in plain.runs:
            seconds, retired = workloads.timed_run(
                hardened[label].binary, reference, hardened[label], tally,
                f"{label} {phase} on {tier}", engine=tier,
            )
            metrics[f"vm.run_{phase}_s.{tier}"] += seconds
            tally.check(retired == expected,
                        f"{label} {phase}: {tier} retired {retired}, "
                        f"trace tier {expected}")
    return skipped


def probe_backends(campaigns, hardened, metrics: Dict[str, float]) -> None:
    """Replay each campaign's discovered inputs under every backend.

    *hardened* maps an entry name to its ``fully`` HardenResult; the
    runtimes count into one hub (``runtime.reports``, ``alloc.malloc``).
    """
    hub = Telemetry()
    for campaign_seed, report, _clock, _elapsed in campaigns:
        config = report.config
        replays = []
        for entry in report.entries:
            inputs = [f.input for f in entry.triage.findings
                      if f.matches_expected][: config.matrix_inputs]
            if inputs and entry.name in hardened:
                replays.append((hardened[entry.name], inputs))
        for backend in BACKENDS:
            times = []
            for _ in range(BACKEND_REPEATS):
                start = time.perf_counter()
                for result, inputs in replays:
                    for mutant in inputs:
                        runtime = result.create_runtime(
                            mode="log", runtime=backend, seed=campaign_seed,
                            telemetry=hub,
                        )
                        try:
                            api.run(result.binary, args=list(mutant),
                                    runtime=runtime,
                                    max_instructions=config.fuel)
                        except ReproError:
                            # As in the hunt: a guest fault after (or
                            # instead of) a report is an outcome, not a
                            # benchmark failure.
                            pass
                times.append(time.perf_counter() - start)
            metrics[f"runtime.{backend}.exec_s"] += median(times)
    for metric in ("runtime.reports", "alloc.malloc"):
        metrics[metric] += hub.counters.get(COUNTERS[metric], 0)


def _add_rewrite(hardened, metrics: Dict[str, float]) -> None:
    rewrite = hardened.rewrite.as_dict()
    metrics["rewriter.trampolines"] += rewrite["trampolines"]
    metrics["rewriter.hardened_bytes"] += rewrite["image_bytes"]


def _hubs(result, telemetry) -> List[Telemetry]:
    campaigns = result.detail.get("campaigns")
    if campaigns is not None:
        return [clock for _seed, _report, clock, _elapsed in campaigns]
    return [telemetry]


def _same_counts(plain, traced, tally) -> None:
    """Determinism self-check: same inputs, same counts."""
    tally.check(plain.counts == traced.counts,
                f"counts differ between passes: {plain.counts} vs {traced.counts}")
    for (label, a), (_, b) in zip(plain.detail.get("hardened", ()),
                                  traced.detail.get("hardened", ())):
        tally.check(
            a.stats.as_dict() == b.stats.as_dict()
            and a.rewrite.as_dict() == b.rewrite.as_dict(),
            f"{label}: hardening stats differ between passes",
        )
    for (_, a, _, _), (_, b, _, _) in zip(plain.detail.get("campaigns", ()),
                                          traced.detail.get("campaigns", ())):
        tally.check(
            [e.as_dict() for e in a.entries] == [e.as_dict() for e in b.entries]
            and a.matrix == b.matrix,
            "hunt campaign differs between same-seed passes",
        )


def per_layer(workload, tally):
    started = time.perf_counter()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    skipped: List[str] = []
    workload.setup()
    metrics["cc.compile_s"] = workload.compile_s

    telemetry = Telemetry()
    plain = workload.run_pass(tally, engine=TIERS[0], keep=True)
    traced = workload.run_pass(tally, telemetry=telemetry, engine=TIERS[0],
                               keep=True)
    _same_counts(plain, traced, tally)
    hubs = _hubs(traced, telemetry)

    for metric, counter in COUNTERS.items():
        metrics[metric] = sum(hub.counters.get(counter, 0) for hub in hubs)
    for metric, names in SPANS.items():
        metrics[metric] = _span_sum(hubs, names)
    if workload.name == "hunt-cve":
        campaigns = traced.detail["campaigns"]
        metrics["hunt.matrix_s"] = (_span_sum(hubs, ("hunt",))
                                    - metrics["hunt.harden_s"]
                                    - metrics["hunt.mutate_s"])
        for _seed, report, _clock, _elapsed in campaigns:
            for entry in report.entries:
                metrics["hunt.coverage_edges"] += entry.coverage_edges
                metrics["hunt.queue_size"] += entry.queue_size
        programs = {case.name: case.compile() for case in workload.cases}
        probe_analysis([p.binary for p in programs.values()], metrics)
        presets = campaigns[0][1].config.presets if campaigns else ()
        fully = {}
        for preset in presets:
            for name, program in programs.items():
                result = api.harden(program, options=preset)
                _add_rewrite(result, metrics)
                if preset == "fully":
                    fully[name] = result
        probe_backends(campaigns, fully, metrics)
    else:
        for _label, hardened in traced.detail["hardened"]:
            _add_rewrite(hardened, metrics)
        if workload.name == "spec":
            probe_analysis([k.stripped for k in workload.kernels], metrics)
            tally.check(traced.detail["cold_traces_compiled"] > 0,
                        "spec cold runs compiled no traces")
            tally.check(not any(traced.detail["warm_traces_compiled"]),
                        "a spec warm run compiled traces")
        else:
            probe_analysis([workload.stripped], metrics)
        skipped = probe_tiers(plain, metrics, tally, started)

    counts = traced.counts
    metrics.update({
        "trace_overhead_s": traced.total_s - plain.total_s,
        "unattributed_share": 1.0 - _leaf_share(hubs, traced.total_s),
        "guest_instructions": counts.get("guest_instructions", 0),
        "overhead_geomean": counts.get("overhead_geomean", 0.0),
        "cves_found": counts.get("cves_found", 0),
        "execs_to_detect": counts.get("execs_to_detect", 0),
        "matrix_detect_rate": counts.get("matrix_detect_rate", 0.0),
        "fail_rate": tally.failed / tally.attempted if tally.attempted else 0.0,
        "exec_samples": len(traced.samples),
    })
    notes = {
        "skipped_tiers": skipped,
        "untraced_total_s": plain.total_s,
        "traced_total_s": traced.total_s,
        "counts": traced.counts,
    }
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}, notes
