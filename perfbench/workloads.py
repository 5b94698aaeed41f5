"""The workloads: set-up, timed passes, traced pass and checks.

Every workload runs the single planned engine (``use_planner=True``,
one shard) closed-loop in this process: a pass runs as fast as the
program allows, and the next starts when it ends.

* ``live_dense`` builds a registered scenario at the ``medium`` preset
  and drives ``Simulator.run(until=t)`` one tick at a time; a step is
  one tick.  Each pass's behavioural digest must equal the reference.
* ``replay_chaos`` captures ``jittery_corridor`` live in set-up, then
  replays each tap's jittered feed through fault injection, supervised
  recovery, quarantine, redelivery dedup, unlimited admission and
  telemetry; a step runs from one delivery step to the next.  Each
  replay must re-emit the capture run's instances exactly.

Every pass of a workload repeats the same steps in the same order, and
the timings take each step's fastest repeat (see ``best_steps``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.obs import Stage, Telemetry
from repro.sim.trace import trace_digest
from repro.stream import (
    AdmissionController,
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    JitteredSource,
    Quarantine,
    RedeliveryDeduper,
    ReplayObserver,
    SupervisedRuntime,
    arrival_groups,
    profile_of,
)
from repro.workloads import build_scenario, get_scenario

from perfbench import schema
from perfbench.spans import Ledger, SpanRecorder, instrument
from perfbench.stats import median, percentile

PRESET = "medium"
BEHAVIOR_CATEGORIES = ("instance.emit", "command.executed")
LATENESS = 8
"""Replay lateness bound, equal to the jitter's ``max_delay``: nothing
is late, so every observation reaches the engine."""
CHECKPOINT_EVERY = 32
TRACE_EVERY = 16
FAULTS = dict(crashes=2, duplicate_bursts=2, corruptions=2, stalls=1)
SETUP_REPEATS = {"live": 7, "replay": 3}
"""Live builds take milliseconds, so they are timed in rounds of 7: one
before each pass and one after the last, sampling the machine at
several moments of the run."""

SCENARIOS = {
    "live_dense": "high_density",
    "replay_chaos": "jittery_corridor",
}

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Result:
    """What one workload invocation reports."""

    metrics: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


# -- references ---------------------------------------------------------


def behavior_digest(system) -> str:
    return trace_digest(system.trace.filtered(BEHAVIOR_CATEGORIES))


def _source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def exhaustive_digest(scenario: str, seed: int) -> str:
    """Behavioural digest of a whole run on the exhaustive engine."""
    built = build_scenario(scenario, preset=PRESET, seed=seed,
                           use_planner=False)
    built.system.run(until=built.params["horizon"])
    return behavior_digest(built.system)


def reference_digest(root: Path, scenario: str, seed: int) -> str:
    """The digest a correct run of ``scenario`` at ``seed`` must give.

    The registry seed's digest is recorded in ``reference.json`` (and
    was cross-checked against the exhaustive engine when recorded).  Any
    other seed is answered by running the exhaustive engine; its digest
    is kept under ``.perfbench/`` keyed by a hash of the program's
    sources, so a later run of the same code and seed skips it.
    """
    recorded = json.loads(REFERENCE_FILE.read_text())
    entry = recorded["scenarios"][scenario]
    if entry["seed"] == seed and recorded["preset"] == PRESET:
        return entry["digest"]
    cache = (root / ".perfbench" / "reference"
             / f"{scenario}-{seed}-{_source_hash(root)}.txt")
    if cache.exists():
        return cache.read_text().strip()
    digest = exhaustive_digest(scenario, seed)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(digest + "\n")
    return digest


def _derive(seed: int, *parts: str) -> int:
    return zlib.crc32(":".join([str(seed), *parts]).encode())


def _instance_key(instance) -> tuple:
    return (
        repr(instance.observer),
        instance.event_id,
        instance.seq,
        instance.generated_time.tick,
        repr(instance.estimated_time),
        repr(instance.estimated_location),
        round(instance.confidence, 12),
        tuple(sorted(instance.attributes)),
    )


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _observers(system):
    return [*system.motes.values(), *system.sinks.values(),
            *system.ccus.values()]


# -- shared reporting ---------------------------------------------------


@dataclass
class Pass:
    """One timed pass: its wall time, per-step times and operations."""

    wall_s: float
    steps_s: list[float]
    operations: int
    failed: int = 0


@dataclass
class Traced:
    """The traced pass and its folded ledger."""

    recorder: SpanRecorder
    ledger: Ledger
    counts: dict
    pass_: Pass


def _report(result: Result, passes: list[Pass], traced: Traced | None,
            edls: list[int], setups: list[float], rss_mb: float,
            failure: str | None) -> Result:
    ran = passes + ([traced.pass_] if traced is not None else [])
    shapes = {(len(p.steps_s), p.operations) for p in ran}
    if failure is None and len(shapes) != 1:
        failure = (f"passes differ in (steps, observations): "
                   f"{sorted(shapes)}")
    operations = sum(p.operations for p in ran)
    result.attempted = operations
    result.failed = (operations if failure is not None
                     else sum(p.failed for p in ran))
    if failure is not None:
        result.correct = False
        result.notes.append(f"CHECK FAILED: {failure}")
    if traced is None:
        _end_to_end(result, passes, edls, setups, rss_mb)
    else:
        _ledger_metrics(result, traced,
                        median(p.wall_s for p in passes))
    return result


def best_steps(passes: list[Pass]) -> list[float]:
    """Each step's fastest time over the passes.

    Every pass runs the same steps in the same order (the output checks
    hold each pass to one behaviour and ``_report`` to one step count),
    so step ``i`` of one pass repeats step ``i`` of every other.  On a
    shared host the same code can run at two speeds about 2x apart,
    switching within seconds and at times staying slow for minutes; a
    step's fastest repeat is its time with that interference left out.
    """
    return [min(times) for times in zip(*(p.steps_s for p in passes))]


def _end_to_end(result: Result, passes: list[Pass], edls: list[int],
                setups: list[float], rss_mb: float) -> None:
    steps = best_steps(passes)
    p50 = percentile(steps, 50)
    p95 = percentile(steps, 95)
    edl50 = percentile(edls, 50)
    edl95 = percentile(edls, 95)
    result.put("obs_per_s", passes[0].operations / sum(steps), "1/s")
    result.put("step_p50_ms", p50.value * 1e3, "ms")
    result.put("step_p95_ms", p95.value * 1e3, "ms")
    result.put("edl_p50_ticks", edl50.value, "ticks")
    result.put("edl_p95_ticks", edl95.value, "ticks")
    result.put("peak_rss_mb", rss_mb, "MB")
    result.put("setup_s", median(setups), "s")
    result.put("ok_rate", (result.attempted - result.failed)
               / result.attempted, "ratio")
    result.notes += [
        f"obs_per_s: {passes[0].operations} observations over the sum of "
        f"{p50.samples} steps' best of {len(passes)} passes, "
        f"{sum(steps):.3f}s (pass walls {min(p.wall_s for p in passes):.3f}"
        f"-{max(p.wall_s for p in passes):.3f}s)",
        f"step_p50_ms: {p50.describe()} steps, best of {len(passes)}",
        f"step_p95_ms: {p95.describe()} steps, best of {len(passes)}",
        f"edl_p50/p95: {edl50.describe()} / {edl95.describe()} instances",
        f"setup_s: median of {len(setups)} set-ups",
    ]


def _ledger_metrics(result: Result, traced: Traced,
                    untraced_wall_s: float) -> None:
    ledger = traced.ledger
    ledger.check()
    for layer, cost in ledger.layers.items():
        result.put(f"{layer}.self_s", cost.self_s, "s")
        result.put(f"{layer}.calls", cost.calls, "count")
    result.put("other.self_s", ledger.other_s, "s")
    for name, (unit, _) in schema.LAYER_COUNTS.items():
        result.put(name, traced.counts.get(name, 0), unit)
    result.put("trace_overhead", ledger.wall_s / untraced_wall_s, "ratio")
    total = sum(cost.self_s for cost in ledger.layers.values())
    result.notes.append(
        f"traced wall={ledger.wall_s:.3f}s = layers {total:.3f}s "
        f"+ other {ledger.other_s:.6f}s; untraced median "
        f"{untraced_wall_s:.3f}s; {len(traced.recorder)} spans"
    )


def _timed_passes(run_pass: Callable[[], Pass], seconds: float,
                  between: Callable[[], object]) -> tuple[list, object]:
    """Run passes until their wall times add up to ``seconds``.

    ``between`` runs once, after the first pass, and its result is
    returned with the passes.  It reads peak memory and works out the
    reference there: the reference run then separates the first pass
    from the next, so the passes sample the host's speed at moments
    further apart.
    """
    passes = [run_pass()]
    gc.collect()
    extra = between()
    gc.collect()
    while sum(p.wall_s for p in passes) < seconds:
        passes.append(run_pass())
        gc.collect()
    return passes, extra


def _engine_counts(engines) -> dict:
    bindings = matches = hits = misses = 0
    for engine in engines:
        stats = engine.stats
        bindings += stats.bindings_evaluated
        matches += stats.matches
        hits += stats.cache_hits
        misses += stats.cache_misses
    return {
        "detect.bindings": bindings,
        "detect.matches": matches,
        "detect.match_ratio": matches / bindings if bindings else 0.0,
        "detect.cache_hit_rate": (hits / (hits + misses) if hits + misses
                                  else 0.0),
    }


def _write_spans(root: Path, workload: str, traced: Traced | None,
                 result: Result) -> None:
    if traced is None:
        return
    path = root / ".perfbench" / f"spans-{workload}.csv.gz"
    traced.recorder.write(path)
    result.notes.append(f"spans written to {path.relative_to(root)}")


# -- live workloads -----------------------------------------------------


@dataclass
class LivePass(Pass):
    digest: str = ""
    edls: list[int] = field(default_factory=list)


def _build_live(scenario: str, seed: int):
    started = perf_counter()
    built = build_scenario(scenario, preset=PRESET, seed=seed,
                           use_planner=True, shards=1)
    return built, perf_counter() - started


def _build_round(scenario: str, seed: int, setups: list[float]):
    """Build ``SETUP_REPEATS["live"]`` times; return the last build."""
    for _ in range(SETUP_REPEATS["live"]):
        built, elapsed = _build_live(scenario, seed)
        setups.append(elapsed)
    gc.collect()
    return built


def _run_ticks(built) -> tuple[float, list[float]]:
    """Drive the simulation one tick at a time: (wall, per-tick times)."""
    horizon = built.params["horizon"]
    steps: list[float] = []
    step = steps.append
    run = built.system.run
    clock = perf_counter
    started = clock()
    for tick in range(horizon + 1):
        begun = clock()
        run(until=tick)
        step(clock() - begun)
    return clock() - started, steps


def _live_pass(built, wall: float, steps: list[float]) -> LivePass:
    system = built.system
    return LivePass(
        wall_s=wall,
        steps_s=steps,
        operations=system.observation_count(),
        digest=behavior_digest(system),
        edls=[i.detection_latency for o in _observers(system)
              for i in o.emitted],
    )


def _live_counts(system, ledger: Ledger) -> dict:
    networks = [system.sensor_network, system.actor_network,
                system.backbone]
    counts = {
        "sim.events": system.sim.events_processed,
        "network.sent": ledger.layers["network"].calls,
        "network.delivered": sum(n.delivered_count for n in networks
                                 if n is not None),
        "cps.bus.deliveries": system.bus.delivered_count,
    }
    counts.update(_engine_counts(o.engine for o in _observers(system)))
    return counts


def run_live(workload: str, root: Path, seed: int, seconds: float,
             trace: bool) -> Result:
    scenario = SCENARIOS[workload]
    setups: list[float] = []

    def run_pass() -> LivePass:
        built = _build_round(scenario, seed, setups)
        return _live_pass(built, *_run_ticks(built))

    passes, (rss_mb, expected) = _timed_passes(
        run_pass, seconds,
        lambda: (_peak_rss_mb(), reference_digest(root, scenario, seed)))
    _build_round(scenario, seed, setups)
    traced = None
    checked = list(passes)
    if trace:
        recorder = SpanRecorder(schema.WRAP_POINTS)
        with instrument(recorder):
            built, _ = _build_live(scenario, seed)
            recorder.clear()
            timing = _run_ticks(built)
        traced_pass = _live_pass(built, *timing)
        ledger = recorder.ledger(traced_pass.wall_s)
        traced = Traced(recorder, ledger, _live_counts(built.system, ledger),
                        traced_pass)
        checked.append(traced_pass)
    failure = next(
        (f"pass {index}: behavioural digest {p.digest} != reference "
         f"{expected}" for index, p in enumerate(checked)
         if p.digest != expected),
        None,
    )
    result = Result(notes=[f"{workload}: {scenario} preset={PRESET} "
                           f"seed={seed} reference={expected[:16]}"])
    _report(result, passes, traced, passes[0].edls, setups, rss_mb, failure)
    _write_spans(root, workload, traced, result)
    return result


# -- replay_chaos -------------------------------------------------------


@dataclass
class Feed:
    """One tapped observer's captured feed, ready to replay."""

    name: str
    profile: object
    jittered: JitteredSource
    plan: FaultPlan
    observations: int
    expected: list[tuple]


@dataclass
class ChaosPass(Pass):
    problem: str | None = None
    edls: list[int] = field(default_factory=list)


Replay = tuple[Feed, ReplayObserver, SupervisedRuntime]


def _chaos_setup(seed: int):
    """Capture run plus feed materialisation (jitter and fault plans)."""
    started = perf_counter()
    built = build_scenario(SCENARIOS["replay_chaos"], preset=PRESET,
                           seed=seed, use_planner=True, shards=1)
    system = built.system
    taps = system.attach_stream_taps()
    system.run(until=built.params["horizon"])
    feeds = []
    for name, tap in taps.items():
        observer = system.sinks.get(name) or system.ccus[name]
        jittered = JitteredSource(tap, max_delay=LATENESS,
                                  seed=_derive(seed, name, "jitter"))
        steps = sum(1 for _ in arrival_groups(jittered))
        plan = (FaultPlan.seeded(_derive(seed, name, "faults"), steps,
                                 **FAULTS) if steps else FaultPlan())
        feeds.append(Feed(name, profile_of(observer), jittered, plan,
                          tap.observation_count,
                          [_instance_key(i) for i in observer.emitted]))
    return system, feeds, perf_counter() - started


def _stamped(fn: Callable, stamps: list[float]) -> Callable:
    clock = perf_counter
    stamp = stamps.append

    def stamped(items):
        stamp(clock())
        return fn(items)

    return stamped


def _chaos_pass(feeds: list[Feed]) -> tuple[ChaosPass, list[Replay]]:
    """Replay every feed once.

    The pass's wall time covers building each feed's replay pipeline
    and running it.  Its steps tile that time: a step
    runs from the start of one ``ingest`` call to the start of the next,
    so the supervisor's checkpoints and recoveries between deliveries
    count in the step before them.  A feed's first step starts when its
    pipeline is built and its last ends when the supervisor returns.
    """
    started = perf_counter()
    steps: list[float] = []
    replays: list[Replay] = []
    for feed in feeds:
        stamps = [perf_counter()]
        replayer = ReplayObserver(
            feed.profile,
            lateness=LATENESS,
            admission=AdmissionController(),
            quarantine=Quarantine(),
            dedup=RedeliveryDeduper(),
            telemetry=Telemetry.create(trace_every=TRACE_EVERY),
        )
        replayer.ingest = _stamped(replayer.ingest, stamps)
        supervisor = SupervisedRuntime(
            replayer,
            checkpoints=CheckpointPolicy(every_steps=CHECKPOINT_EVERY),
        )
        source = FaultySource(feed.jittered, feed.plan,
                              redelivery_overlap=1)
        supervisor.run(source)
        stamps.append(perf_counter())
        steps += [end - begin for begin, end in zip(stamps, stamps[1:])]
        replays.append((feed, replayer, supervisor))
    chaos = ChaosPass(wall_s=perf_counter() - started, steps_s=steps,
                      operations=sum(f.observations for f in feeds))
    return chaos, replays


def _settle(chaos: ChaosPass, replays: list[Replay]) -> ChaosPass:
    """Check a finished pass and count its failures and latencies.

    Kept apart from ``_chaos_pass`` so that a traced pass's spans end
    with its wall window.
    """
    chaos.problem = _check_chaos(replays)
    for _, replayer, _ in replays:
        stats = replayer.runtime.stats
        chaos.failed += stats.late_observations + stats.shed_observations
        chaos.edls += [i.detection_latency for i in replayer.emitted]
    return chaos


def _check_chaos(replays: list[Replay]) -> str | None:
    """The first way the replays differ from the capture run, if any."""
    for feed, replayer, supervisor in replays:
        runtime = replayer.runtime
        stats = runtime.stats
        keys = [_instance_key(i) for i in replayer.emitted]
        if keys != feed.expected:
            return (f"{feed.name}: the replay's {len(keys)} instances "
                    f"differ from the capture run's {len(feed.expected)}")
        settled = (runtime.released_items + stats.late_observations
                   + stats.shed_observations)
        if settled != feed.observations:
            return (f"{feed.name}: released + late + shed = {settled} but "
                    f"{feed.observations} observations were offered")
        planned = len(feed.plan.crashes)
        if supervisor.recoveries != planned or stats.recoveries != planned:
            return (f"{feed.name}: {supervisor.recoveries} recoveries for "
                    f"{planned} planned crashes")
    return None


def _chaos_counts(replays: list[Replay], ledger: Ledger) -> dict:
    stats = [replayer.runtime.stats for _, replayer, _ in replays]
    holds = [
        exit_ - enter
        for _, replayer, _ in replays
        for _, _, stages in replayer.telemetry.tracer.completed_rows()
        for stage, enter, exit_ in stages
        if stage == Stage.WATERMARK_HOLD.value
        and enter is not None and exit_ is not None
    ]
    counts = {
        "stream.reorder.peak": max(s.reorder_peak for s in stats),
        "stream.late": sum(s.late_observations for s in stats),
        "stream.shed": sum(s.shed_observations for s in stats),
        "stream.quarantined": sum(s.quarantined_observations for s in stats),
        "stream.duplicates": sum(s.duplicates_dropped for s in stats),
        "stream.watermark.hold_ticks_p50": (
            percentile(holds, 50).value if holds else 0.0),
        "stream.resilience.checkpoints": sum(
            sup.checkpoints_taken for _, _, sup in replays),
        "stream.resilience.recoveries": sum(
            sup.recoveries for _, _, sup in replays),
        "stream.resilience.checkpoint_s":
            ledger.inclusive_s[schema.CHECKPOINT_CALL],
        "stream.resilience.rollback_s":
            ledger.inclusive_s[schema.ROLLBACK_CALL],
    }
    counts.update(_engine_counts(r.runtime.engine for _, r, _ in replays))
    return counts


def run_replay(workload: str, root: Path, seed: int, seconds: float,
               trace: bool) -> Result:
    scenario = SCENARIOS[workload]
    setups: list[float] = []
    captures = set()
    for _ in range(SETUP_REPEATS["replay"]):
        system, feeds, elapsed = _chaos_setup(seed)
        setups.append(elapsed)
        captures.add(behavior_digest(system))
        system = None
        gc.collect()
    passes, (rss_mb, expected) = _timed_passes(
        lambda: _settle(*_chaos_pass(feeds)), seconds,
        lambda: (_peak_rss_mb(), reference_digest(root, scenario, seed)))
    traced = None
    checked = list(passes)
    if trace:
        recorder = SpanRecorder(schema.WRAP_POINTS)
        with instrument(recorder):
            traced_pass, replays = _chaos_pass(feeds)
        _settle(traced_pass, replays)
        ledger = recorder.ledger(traced_pass.wall_s)
        traced = Traced(recorder, ledger, _chaos_counts(replays, ledger),
                        traced_pass)
        checked.append(traced_pass)
    problems = [f"pass {index}: {p.problem}"
                for index, p in enumerate(checked) if p.problem is not None]
    if captures != {expected}:
        problems.insert(0, f"capture run digests {sorted(captures)} != "
                           f"reference {expected}")
    failure = problems[0] if problems else None
    crashes = sum(len(f.plan.crashes) for f in feeds)
    result = Result(notes=[f"{workload}: {scenario} preset={PRESET} "
                           f"seed={seed} feeds={len(feeds)} "
                           f"crashes/pass={crashes} "
                           f"reference={expected[:16]}"])
    _report(result, passes, traced, passes[0].edls, setups, rss_mb, failure)
    _write_spans(root, workload, traced, result)
    return result


RUNNERS = {
    "live_dense": run_live,
    "replay_chaos": run_replay,
}


def default_seed(workload: str) -> int:
    return get_scenario(SCENARIOS[workload]).default_seed


def run(workload: str, root: Path, seed: int, seconds: float,
        trace: bool) -> Result:
    gc.collect()
    return RUNNERS[workload](workload, root, seed, seconds, trace)
