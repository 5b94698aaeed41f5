"""The benchmark's fixed schema: workloads, metrics and layer wrap points.

Every run, whatever its length or seed, reports exactly these metric
names — a short smoke run and a full run are comparable key for key.
``BENCHMARK.json`` at the repository root lists the same names; the
self-tests hold the two in step.
"""

from __future__ import annotations

from perfbench.spans import GC_LAYER, WrapPoint

WORKLOADS = ("live_dense", "replay_chaos")

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "obs_per_s": ("1/s", "higher"),
    "step_p50_ms": ("ms", "lower"),
    "step_p95_ms": ("ms", "lower"),
    "edl_p50_ticks": ("ticks", "lower"),
    "edl_p95_ticks": ("ticks", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    # 1 - error_rate: an error rate reads 0 on a healthy run, and a
    # metric that is 0 has no relative bound.  ``failed``/``attempted``
    # in the result line carry the error rate itself.
    "ok_rate": ("ratio", "higher"),
}

WRAP_POINTS: tuple[WrapPoint, ...] = (
    WrapPoint("sim", "repro.sim.kernel", "Simulator", "run"),
    WrapPoint("sim.trace", "repro.sim.trace", "TraceRecorder", "record"),
    WrapPoint("physical", "repro.physical.world", "PhysicalWorld", "step"),
    WrapPoint("physical", "repro.physical.world", "PhysicalWorld", "sample"),
    WrapPoint("cps.mote", "repro.cps.mote", "SensorMote", "sample_once"),
    WrapPoint("network", "repro.network.fabric", "WirelessNetwork",
              "send_to_root"),
    WrapPoint("network", "repro.network.fabric", "WirelessNetwork",
              "unicast"),
    WrapPoint("network", "repro.network.fabric", "WiredBackbone", "send"),
    WrapPoint("cps.observer", "repro.cps.component", "ObserverComponent",
              "ingest_batch"),
    WrapPoint("cps.sink", "repro.cps.sink", "SinkNode", "handle_packet"),
    WrapPoint("cps.sink", "repro.cps.sink", "SinkNode", "receive_instance"),
    WrapPoint("cps.ccu", "repro.cps.ccu", "ControlUnit", "receive_instance"),
    WrapPoint("cps.bus", "repro.cps.bus", "EventBus", "publish"),
    WrapPoint("detect", "repro.detect.engine", "DetectionEngine",
              "submit_batch"),
    WrapPoint("detect.build_instance", "repro.cps.component", None,
              "build_instance"),
    WrapPoint("detect.build_instance", "repro.stream.replay", None,
              "build_instance"),
    WrapPoint("stream.runtime", "repro.stream.runtime",
              "StreamingDetectionRuntime", "ingest"),
    WrapPoint("stream.runtime", "repro.stream.runtime",
              "StreamingDetectionRuntime", "finish"),
    WrapPoint("stream.quarantine", "repro.stream.resilience.quarantine",
              "Quarantine", "admit"),
    WrapPoint("stream.dedup", "repro.stream.resilience.dedup",
              "RedeliveryDeduper", "admit"),
    WrapPoint("stream.admission", "repro.stream.admission.controller",
              "AdmissionController", "intake"),
    WrapPoint("stream.admission", "repro.stream.admission.controller",
              "AdmissionController", "backpressure"),
    WrapPoint("stream.admission", "repro.stream.admission.controller",
              "AdmissionController", "flush_deferred"),
    WrapPoint("stream.reorder", "repro.stream.reorder", "ReorderBuffer",
              "offer"),
    WrapPoint("stream.reorder", "repro.stream.reorder", "ReorderBuffer",
              "release"),
    WrapPoint("stream.reorder", "repro.stream.reorder", "ReorderBuffer",
              "release_all"),
    WrapPoint("stream.watermark", "repro.stream.watermark",
              "WatermarkTracker", "ensure_open"),
    WrapPoint("stream.watermark", "repro.stream.watermark",
              "WatermarkTracker", "observe"),
    WrapPoint("stream.watermark", "repro.stream.watermark",
              "WatermarkTracker", "watermark"),
    WrapPoint("stream.watermark", "repro.stream.watermark",
              "WatermarkTracker", "close_all"),
    # The runtime's on_match callback: bound when the replay observer
    # is built, so it is wrapped on the class.
    WrapPoint("stream.replay", "repro.stream.replay", "ReplayObserver",
              "_emit"),
    WrapPoint("stream.resilience", "repro.stream.resilience.supervisor",
              "SupervisedRuntime", "run"),
    WrapPoint("stream.resilience", "repro.stream.replay", "ReplayObserver",
              "snapshot"),
    WrapPoint("stream.resilience", "repro.stream.replay", "ReplayObserver",
              "rollback"),
    WrapPoint("obs", "repro.obs.tracing", "Telemetry", "observe_step"),
    WrapPoint("obs", "repro.obs.tracing", "Telemetry", "snapshot"),
    WrapPoint("obs", "repro.obs.tracing", "Telemetry", "restore"),
    WrapPoint("obs", "repro.obs.tracing", "PipelineTracer", "admit"),
    WrapPoint("obs", "repro.obs.tracing", "PipelineTracer", "complete"),
    WrapPoint("obs", "repro.obs.tracing", "PipelineTracer", "discard"),
)

LAYERS: tuple[str, ...] = (
    *dict.fromkeys(p.layer for p in WRAP_POINTS),
    GC_LAYER,
)

CHECKPOINT_CALL = "repro.stream.replay:ReplayObserver.snapshot"
ROLLBACK_CALL = "repro.stream.replay:ReplayObserver.rollback"

# Counts measured where the layer's work happens (name -> unit, better).
LAYER_COUNTS: dict[str, tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "network.sent": ("count", "lower"),
    "network.delivered": ("count", "lower"),
    "cps.bus.deliveries": ("count", "lower"),
    "detect.bindings": ("count", "lower"),
    "detect.matches": ("count", "lower"),
    "detect.match_ratio": ("ratio", "higher"),
    "detect.cache_hit_rate": ("ratio", "higher"),
    "stream.reorder.peak": ("count", "lower"),
    "stream.late": ("count", "lower"),
    "stream.shed": ("count", "lower"),
    "stream.quarantined": ("count", "lower"),
    "stream.duplicates": ("count", "lower"),
    "stream.watermark.hold_ticks_p50": ("ticks", "lower"),
    "stream.resilience.checkpoints": ("count", "lower"),
    "stream.resilience.recoveries": ("count", "lower"),
    "stream.resilience.checkpoint_s": ("s", "lower"),
    "stream.resilience.rollback_s": ("s", "lower"),
}


def per_layer_schema() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and direction."""
    schema: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        schema[f"{layer}.self_s"] = ("s", "lower")
        schema[f"{layer}.calls"] = ("count", "lower")
    schema["other.self_s"] = ("s", "lower")
    schema.update(LAYER_COUNTS)
    schema["trace_overhead"] = ("ratio", "lower")
    return schema


PER_LAYER = per_layer_schema()


def check_metrics(metrics: dict[str, dict], trace: bool) -> None:
    """Raise unless ``metrics`` carries exactly the schema's names and
    units for this mode."""
    schema = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(schema):
        missing = sorted(set(schema) - set(metrics))
        extra = sorted(set(metrics) - set(schema))
        raise AssertionError(f"metric set drifted: missing {missing}, "
                             f"unexpected {extra}")
    for name, (unit, _) in schema.items():
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{name} unit {metrics[name]['unit']!r} "
                                 f"is not {unit!r}")
