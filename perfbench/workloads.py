"""The three benchmark workloads: set-up and one measured pass each.

Every workload drives the user's path through the public API only:
``repro.api.harden`` / ``api.run`` / ``api.hunt``.  A workload object is
built from the workload seed; :meth:`setup` compiles its programs and
makes the uninstrumented reference runs, :meth:`run_pass` does one
measured pass and checks every output against those references.

Passing a :class:`~repro.telemetry.Telemetry` hub to ``run_pass`` makes
it the traced variant of the same pass (the hub is threaded into every
harden, run and runtime), which :mod:`layers` reads for the per-layer
numbers.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import api
from repro.bench.figure8 import CHROME_OPTIONS
from repro.errors import ReproError
from repro.hunt.triage import matches_class
from repro.runtime.reporting import ErrorKind
from repro.telemetry.hub import Telemetry
from repro.workloads import chrome, registry
from repro.workloads.spec import SPEC_BENCHMARKS

#: Percentiles tried, highest first, for the latency tail.  The tail is
#: the highest one with at least ten samples beyond it (see ``tail``).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Kraken sweeps per ``chrome-kraken`` pass: one cold, then warm ones.
#: Three sweeps give 42 executions, enough for a p75 tail per pass.
KRAKEN_SWEEPS = 3

#: Campaigns per ``hunt-cve`` pass.  Each campaign gives one latency
#: sample per CVE, so ten give 40 per pass, enough for a p75 tail.
CAMPAIGNS_PER_PASS = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values):
    """``(percentile, value)``: the highest ladder percentile that has at
    least ten samples beyond it, nearest-rank; ``(0.0, max)`` when even
    the median has fewer than ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        return 0.0, 0.0
    for percentile in TAIL_LADDER:
        if count * (100.0 - percentile) / 100.0 >= 10:
            rank = max(1, math.ceil(count * percentile / 100.0))
            return percentile, ordered[rank - 1]
    return 0.0, ordered[-1]


def geomean(ratios: Dict[str, float]) -> float:
    """Geometric mean, summed in name order so the float is seed-proof."""
    values = [ratios[name] for name in sorted(ratios) if ratios[name] > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _probe_loop() -> dict:
    table: dict = {}
    for index in range(60_000):
        table[index & 255] = table.get(index & 255, 0) + index
    return table


class SpeedProbe:
    """Tracks the machine's speed with a fixed pure-Python loop.

    The loop (~10 ms) touches nothing of the program under test.  On a
    shared virtual machine the guest loses a varying share of its CPU
    for minutes at a time; a loop long enough to span those losses slows
    by the same factor as the measured work, so the benchmark divides
    each pass's times by the mean probe time during that pass (see
    ``README.md``).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - start)

    def take_mean(self) -> float:
        """Mean of the samples since the last call; starts afresh."""
        value = statistics.mean(self.samples)
        self.samples = []
        return value


@dataclass
class Tally:
    """Operations attempted and failed; every failure is kept."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def error(self, what: str, error: BaseException) -> None:
        self.check(False, f"{what}: {type(error).__name__}: {error}")


@dataclass
class PassResult:
    """One measured pass.

    ``items`` holds every timed piece of the pass as ``(key, kind,
    seconds)``, where a key names the same work in every pass.  *kind* is
    ``"harden"``, ``"cold"`` or ``"warm"`` (one guest execution each),
    ``"replay"`` (many executions timed as one) or ``"other"``.
    """

    total_s: float = 0.0
    #: Mean :class:`SpeedProbe` time during the pass.
    probe_s: float = 0.0
    items: List[tuple] = field(default_factory=list)
    #: ``(key, seconds)`` per-execution latency samples, keyed like items.
    samples: List[tuple] = field(default_factory=list)
    #: Guest executions of hardened binaries in the pass.
    executions: int = 0
    #: ``(label, phase, reference, instructions)`` per hardened execution,
    #: in order, where *label* names the hardened binary it ran on.
    runs: List[tuple] = field(default_factory=list)
    #: Machine-independent counts (identical for equal inputs).
    counts: Dict[str, float] = field(default_factory=dict)
    #: What ``run_pass(keep=True)`` keeps for the traced run: the hardened
    #: binaries or the campaign reports.  An end-to-end pass keeps nothing,
    #: so peak RSS is not inflated by every binary of the pass at once.
    detail: Dict[str, object] = field(default_factory=dict)

    def seconds(self, *kinds: str) -> float:
        return sum(s for _key, kind, s in self.items if kind in kinds)


@dataclass
class Reference:
    """One uninstrumented reference execution."""

    args: List[int]
    status: int
    output: List[str]
    instructions: int


def reference_run(program, args) -> Reference:
    """The uninstrumented binary under libredfat in log mode: the output
    every hardened run must reproduce (the convention of
    ``bench/harness.py``; programs with real bugs read heap metadata,
    so output depends on the allocator, not on instrumentation).  Its
    instruction count equals the default-allocator baseline's."""
    result = api.run(program, args=args, runtime="redfat", mode="log")
    return Reference(list(args), result.status, list(result.output),
                     result.instructions)


def clear_compile_caches() -> None:
    """Forget memoized compilations so each set-up compiles afresh."""
    for cached in (getattr(registry, "_compile_cached", None),
                   chrome.build_chrome):
        if cached is not None and hasattr(cached, "cache_clear"):
            cached.cache_clear()


def timed_run(binary, reference: Reference, hardened, tally: Tally,
               label: str, telemetry=None, engine=None):
    """One hardened execution checked against *reference*.

    Returns ``(seconds, instructions)``; a failed execution still
    returns its elapsed time and counts as a failed operation.
    """
    start = time.perf_counter()
    try:
        result = api.run(
            binary, args=reference.args,
            runtime=hardened.create_runtime(mode="log", telemetry=telemetry),
            telemetry=telemetry, engine=engine,
        )
    except ReproError as error:
        elapsed = time.perf_counter() - start
        tally.error(label, error)
        return elapsed, 0
    elapsed = time.perf_counter() - start
    tally.check(
        result.status == reference.status
        and list(result.output) == reference.output,
        f"{label}: output differs from the uninstrumented reference",
    )
    return elapsed, result.instructions


def _harden(target, options, tally: Tally, label: str, telemetry=None):
    """One checked harden: ``(seconds, HardenResult or None)``."""
    start = time.perf_counter()
    try:
        hardened = api.harden(target, options=options, telemetry=telemetry)
    except ReproError as error:
        tally.error(f"{label}: harden", error)
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    tally.check(
        not hardened.quarantine and not hardened.stats.quarantined_sites,
        f"{label}: harden quarantined {len(hardened.quarantine)} site(s)",
    )
    return elapsed, hardened


def _counter(telemetry, name: str) -> int:
    return telemetry.counters.get(name, 0) if telemetry is not None else 0


# -- spec ---------------------------------------------------------------------


@dataclass
class Kernel:
    name: str
    stripped: object
    reference: Reference


class SpecWorkload:
    """All 29 Table-1 SPEC kernels: harden fresh (``fully``), then a cold
    and a warm run on ``ref_args``.  The seed fixes the kernel order.

    ``min_passes`` is how many passes a run makes at least.
    """

    name = "spec"
    min_passes = 1

    def __init__(self, seed: int) -> None:
        self.order = list(SPEC_BENCHMARKS)
        random.Random(seed).shuffle(self.order)
        self.kernels: List[Kernel] = []
        self.compile_s = 0.0
        self.probe = SpeedProbe()

    def setup(self) -> None:
        clear_compile_caches()
        self.kernels, self.compile_s = [], 0.0
        for bench in self.order:
            start = time.perf_counter()
            program = bench.compile()
            self.compile_s += time.perf_counter() - start
            self.kernels.append(Kernel(
                bench.name, program.binary.strip(),
                reference_run(program, bench.ref_args),
            ))

    def run_pass(self, tally: Tally, telemetry=None, engine=None,
                 keep: bool = False) -> PassResult:
        result = PassResult()
        hardened_all = []
        instructions = 0
        ratios = {}
        cold_compiled = 0
        warm_compiled = []
        start = time.perf_counter()
        for kernel in self.kernels:
            seconds, hardened = _harden(kernel.stripped, "fully", tally,
                                        kernel.name, telemetry)
            result.items.append((f"{kernel.name}/harden", "harden", seconds))
            self.probe.sample()
            if hardened is None:
                continue
            if keep:
                hardened_all.append((kernel.name, hardened))
            for phase in ("cold", "warm"):
                before = _counter(telemetry, "vm.traces_compiled")
                seconds, retired = timed_run(
                    hardened.binary, kernel.reference, hardened, tally,
                    f"{kernel.name} {phase} run", telemetry, engine,
                )
                compiled = _counter(telemetry, "vm.traces_compiled") - before
                self.probe.sample()
                key = f"{kernel.name}/{phase}"
                result.items.append((key, phase, seconds))
                result.samples.append((key, seconds))
                result.runs.append(
                    (kernel.name, phase, kernel.reference, retired))
                instructions += retired
                if phase == "cold":
                    ratios[kernel.name] = retired / kernel.reference.instructions
                    cold_compiled += compiled
                else:
                    warm_compiled.append(compiled)
        result.total_s = time.perf_counter() - start
        result.probe_s = self.probe.take_mean()
        result.executions = len(result.runs)
        result.counts = {
            "guest_instructions": instructions,
            "overhead_geomean": geomean(ratios),
        }
        result.detail = {
            "hardened": hardened_all,
            "cold_traces_compiled": cold_compiled,
            "warm_traces_compiled": warm_compiled,
        }
        return result


# -- chrome-kraken ------------------------------------------------------------


class ChromeWorkload:
    """The Chrome stand-in hardened once under Figure 8's write-only
    options, then every Kraken sub-benchmark run on that one binary:
    one cold sweep and warm sweeps.  The seed fixes each sweep's order."""

    name = "chrome-kraken"
    min_passes = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sweeps = []
        for _ in range(KRAKEN_SWEEPS):
            order = list(chrome.KRAKEN_BENCHMARKS)
            rng.shuffle(order)
            self.sweeps.append(order)
        self.stripped = None
        self.references: Dict[str, Reference] = {}
        self.compile_s = 0.0
        self.probe = SpeedProbe()

    def setup(self) -> None:
        clear_compile_caches()
        start = time.perf_counter()
        program = chrome.build_chrome()
        self.compile_s = time.perf_counter() - start
        self.stripped = program.binary.strip()
        self.references = {
            name: reference_run(program, chrome.kraken_args(name))
            for name in chrome.KRAKEN_BENCHMARKS
        }

    def run_pass(self, tally: Tally, telemetry=None, engine=None,
                 keep: bool = False) -> PassResult:
        result = PassResult()
        instructions = 0
        ratios = {}
        start = time.perf_counter()
        seconds, hardened = _harden(self.stripped, CHROME_OPTIONS, tally,
                                    "chrome", telemetry)
        result.items.append(("harden", "harden", seconds))
        self.probe.sample()
        if hardened is not None:
            for sweep, order in enumerate(self.sweeps):
                for name in order:
                    reference = self.references[name]
                    seconds, retired = timed_run(
                        hardened.binary, reference, hardened, tally,
                        f"kraken {name} sweep {sweep}", telemetry, engine,
                    )
                    self.probe.sample()
                    phase = "cold" if sweep == 0 else "warm"
                    key = f"{name}/{sweep}"
                    result.items.append((key, phase, seconds))
                    result.samples.append((key, seconds))
                    result.runs.append(("chrome", phase, reference, retired))
                    instructions += retired
                    if sweep == 0:
                        ratios[name] = retired / reference.instructions
        result.total_s = time.perf_counter() - start
        result.probe_s = self.probe.take_mean()
        result.executions = len(result.runs)
        result.counts = {
            "guest_instructions": instructions,
            "overhead_geomean": geomean(ratios),
        }
        result.detail = {
            "hardened": [("chrome", hardened)] if keep and hardened is not None else [],
        }
        return result


# -- hunt-cve -----------------------------------------------------------------


class ExecutionClock(Telemetry):
    """A telemetry hub that also timestamps every ``hunt.executions``
    tick, so per-execution latency is read from outside the hunt loop."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: List[float] = []

    def count(self, name: str, delta: int = 1) -> int:
        if name == "hunt.executions":
            self.stamps.append(time.perf_counter())
        return super().count(name, delta)


def span_total(telemetry, *names: str) -> float:
    """Summed duration of the hub's spans named any of *names*."""
    return sum(s.duration_s for s in telemetry.spans if s.name in names)


def _execs_to_detect(entry, crash_class) -> Optional[int]:
    """1-based index of the entry's first run that logged a detection of
    its expected class, or None if it never did."""
    inputs = {
        tuple(finding.input) for finding in entry.triage.findings
        if matches_class(ErrorKind[finding.kind], crash_class)
    }
    for position, run in enumerate(entry.runs, start=1):
        if run.outcome == "detected" and tuple(run.input) in inputs:
            return position
    return None


def matrix_executions(report) -> int:
    """Executions ``_replay_matrix`` makes for this report's cells."""
    config = report.config
    per_preset = 0
    for entry in report.entries:
        if entry.crash_class is None or entry.error:
            continue
        inputs = [f for f in entry.triage.findings if f.matches_expected]
        per_preset += len(inputs[: config.matrix_inputs])
    return per_preset * len(config.presets) * len(config.runtimes)


class HuntWorkload:
    """``api.hunt(corpus="cve")`` with the default ``HuntConfig``; the
    workload seed draws the campaign seeds, five campaigns per pass."""

    name = "hunt-cve"
    min_passes = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.campaign_seeds = [rng.randrange(1, 2 ** 31)
                               for _ in range(CAMPAIGNS_PER_PASS)]
        self.cases = []
        self.compile_s = 0.0
        self.probe = SpeedProbe()

    def setup(self) -> None:
        clear_compile_caches()
        self.compile_s = 0.0
        self.cases = registry.iter_cases("cve")
        for case in self.cases:
            start = time.perf_counter()
            program = case.compile()
            self.compile_s += time.perf_counter() - start
            reference_run(program, list(case.benign_args))

    def run_pass(self, tally: Tally, telemetry=None, engine=None,
                 keep: bool = False) -> PassResult:
        """Every campaign of the run; *telemetry* and *engine* do not
        apply (each campaign reads its own hub, the hunt picks tiers)."""
        result = PassResult()
        found, to_detect, rates = [], [], []
        campaigns = []
        start = time.perf_counter()
        for seed in self.campaign_seeds:
            self.probe.sample(5)
            clock = ExecutionClock()
            begin = time.perf_counter()
            try:
                report = api.hunt(corpus="cve", seed=seed, telemetry=clock)
            except ReproError as error:
                tally.error(f"hunt seed {seed}", error)
                continue
            elapsed = time.perf_counter() - begin
            if keep:
                campaigns.append((seed, report, clock, elapsed))
            self._score(report, tally, seed, found, to_detect)
            rates.append(statistics.mean(c["rate"] for c in report.matrix))
            items = self._items(seed, clock, elapsed)
            result.items.extend(items)
            result.samples.extend(self._samples(items))
            result.executions += (
                sum(entry.executions for entry in report.entries)
                + matrix_executions(report)
            )
        result.total_s = time.perf_counter() - start
        result.probe_s = self.probe.take_mean()
        result.counts = {
            "cves_found": min(found) if found else 0,
            "execs_to_detect": statistics.mean(to_detect) if to_detect else 0,
            "matrix_detect_rate": statistics.mean(rates) if rates else 0.0,
        }
        result.detail = {"campaigns": campaigns}
        return result

    @staticmethod
    def _items(seed: int, clock: ExecutionClock, elapsed: float):
        """Split one campaign's wall time into timed items.

        Inside each ``hunt.entry`` span the first ``hunt.executions``
        tick closes the entry's first (cold) execution and each later
        tick one warm execution; the rest of the ``hunt`` span after
        hardening and the entries is the matrix replay.
        """
        harden = span_total(clock, "hunt.harden")
        items = [(f"{seed}/harden", "harden", harden)]
        executed = 0.0
        entries = [s for s in clock.spans if s.name == "hunt.entry"]
        for index, span in enumerate(entries):
            previous = span.start_s
            end = span.start_s + span.duration_s
            ticks = [t for t in clock.stamps if span.start_s <= t <= end]
            for position, stamp in enumerate(ticks):
                items.append((f"{seed}/{index}/{position}",
                              "warm" if position else "cold", stamp - previous))
                executed += stamp - previous
                previous = stamp
        matrix = (span_total(clock, "hunt") - harden
                  - sum(span.duration_s for span in entries))
        items.append((f"{seed}/matrix", "replay", matrix))
        items.append((f"{seed}/other", "other",
                      elapsed - harden - executed - matrix))
        return items

    @staticmethod
    def _samples(items):
        """Latency samples: each entry's first execution, on its benign
        seed input.  Later executions run mutants the campaign seed
        draws, whose lengths differ from seed to seed; the first input
        is fixed, so the samples measure the program, not the draw."""
        return [(key, seconds) for key, kind, seconds in items
                if kind == "cold"]

    def _score(self, report, tally: Tally, seed: int, found, to_detect):
        """Score one campaign against the registry's ``crash_class``."""
        hits = campaign_executions = 0
        names = {entry.name: entry for entry in report.entries}
        for case in self.cases:
            entry = names.get(case.name)
            label = f"hunt seed {seed} {case.name}"
            if entry is None or entry.error:
                tally.check(False, f"{label}: not hunted "
                                   f"({entry.error if entry else 'missing'})")
                continue
            executions = _execs_to_detect(entry, case.crash_class)
            if tally.check(executions is not None,
                           f"{label}: expected {case.crash_class} missed"):
                hits += 1
                campaign_executions += executions
        found.append(hits)
        to_detect.append(campaign_executions)


WORKLOADS = {
    workload.name: workload
    for workload in (SpecWorkload, HuntWorkload, ChromeWorkload)
}
