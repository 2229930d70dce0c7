//! Metric catalogue and the result line every run prints.

use isa_obs::Json;

use crate::workload::Workload;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The end-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "guest_mips",
        unit: "Minst/s",
        better: "higher",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: "higher",
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name (`<layer>.<quantity>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// A per-call timing: the report adds `<name>.tail` (the highest
    /// percentile with at least ten samples beyond it) and `<name>.n`.
    pub per_call: bool,
    /// Workloads on which the metric is measured; elsewhere it reads 0.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &Workload::ALL;
const SERVE: &[Workload] = &[Workload::ServeSteady, Workload::ServeRecover];
const STEADY: &[Workload] = &[Workload::ServeSteady];
const RECOVER: &[Workload] = &[Workload::ServeRecover];
const APPS: &[Workload] = &[Workload::KernelApps];
const STEADY_APPS: &[Workload] = &[Workload::ServeSteady, Workload::KernelApps];

const fn layer(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Layer {
    Layer {
        name,
        unit,
        per_call: false,
        on,
    }
}

const fn call(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Layer {
    Layer {
        name,
        unit,
        per_call: true,
        on,
    }
}

/// The per-layer metrics, in report order.
pub const LAYERS: &[Layer] = &[
    // Set-up.
    call("asm.assemble_s", "s", ALL),
    call("kernel.boot_s", "s", APPS),
    call("serve.build_s", "s", SERVE),
    // Stepping.
    layer("sim.steps", "count", ALL),
    layer("sim.ns_per_step", "ns", ALL),
    layer("sim.bbcache.decode_hit_rate", "ratio", ALL),
    layer("sim.bbcache.dtlb_hit_rate", "ratio", ALL),
    layer("sim.bbcache.conflicts", "count", ALL),
    layer("sim.jit.coverage", "ratio", ALL),
    layer("sim.jit.deopts_per_kstep", "1/kstep", ALL),
    layer("sim.jit.saved_ns_per_step", "ns", STEADY_APPS),
    layer("sim.bbcache.saved_ns_per_step", "ns", APPS),
    layer("timing.retire_ns_per_step", "ns", APPS),
    // PCU work counts.
    layer("core.checks_per_kstep", "1/kstep", ALL),
    layer("core.grid_cache_hit_rate", "ratio", ALL),
    layer("core.gate_calls_per_kstep", "1/kstep", ALL),
    // SMP coherence.
    layer("smp.shootdowns", "count", SERVE),
    layer("smp.flushed_entries", "count", SERVE),
    // Serve host logic.
    layer("serve.host_logic_s", "s", SERVE),
    layer("serve.host_logic_ns_per_req", "ns", SERVE),
    // Replay.
    call("replay.bus_export_ms", "ms", RECOVER),
    call("replay.capture_ms", "ms", RECOVER),
    call("replay.encode_ms", "ms", RECOVER),
    layer("replay.frame_bytes", "B", RECOVER),
    call("replay.ring_push_ms", "ms", RECOVER),
    call("replay.decode_ms", "ms", RECOVER),
    call("replay.restore_ms", "ms", RECOVER),
    layer("replay.checkpoints", "count", RECOVER),
    layer("replay.restores", "count", RECOVER),
    layer("replay.checkpoint_share", "ratio", RECOVER),
    // Differential oracle.
    layer("oracle.checks", "count", RECOVER),
    call("oracle.fork_ms", "ms", RECOVER),
    call("oracle.replay_round_ms", "ms", RECOVER),
    call("oracle.compare_memory_ms", "ms", RECOVER),
    // Observation.
    layer("obs.trace_full_overhead_share", "ratio", STEADY),
    // The traced pass's wall, split into layer self-times.
    layer("trace.wall_s", "s", ALL),
    layer("asm.self_s", "s", ALL),
    layer("kernel.self_s", "s", APPS),
    layer("serve.self_s", "s", SERVE),
    layer("sim.self_s", "s", ALL),
    layer("timing.self_s", "s", APPS),
    layer("replay.self_s", "s", RECOVER),
    layer("oracle.self_s", "s", RECOVER),
    layer("trace.unaccounted_share", "ratio", ALL),
];

/// Every per-layer metric name with its unit, tails and counts
/// expanded, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for l in LAYERS {
        out.push((l.name.to_string(), l.unit));
        if l.per_call {
            out.push((format!("{}.tail", l.name), l.unit));
            out.push((format!("{}.n", l.name), "count"));
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// by name with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .to_string()
}

/// Metrics as a name → `{value, unit}` object (the run document).
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::F64(finite(m.value))),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
