//! End-to-end metrics, with tracing off.
//!
//! A run checks the first pass, measures set-up several times, then
//! repeats the whole workload until `--seconds` have gone by. Each
//! per-pass rate is taken from the benchmark's own clock; the run
//! reports the median over passes.

use std::time::Instant;

use isa_obs::Json;

use crate::check::{self, Verdict};
use crate::report::Metric;
use crate::stats::{median, quartiles};
use crate::workload::{Inputs, Pass, Rung, Size, Workload};

/// Zero-request serve runs timed before the measured phase, and after
/// each pass, for `setup_s`. Spreading them over the run lets them see
/// the same host conditions as the passes.
const SERVE_SETUPS_FIRST: usize = 5;
const SERVE_SETUPS_PER_PASS: usize = 2;
/// A run measures at least this many passes, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// The outcome of an end-to-end run.
#[derive(Debug)]
pub struct Run {
    /// Every end-to-end metric.
    pub metrics: Vec<Metric>,
    /// Whether every pass was correct.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations of passes whose outputs were wrong.
    pub failed: u64,
    /// The run document: inputs, check, per-pass samples, quartiles.
    pub doc: Json,
}

/// Measure `workload` for `seed` for about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: Size) -> Run {
    let inputs = Inputs::new(workload, seed, size);
    let first = inputs.run(&Rung::FULL);
    let verdict = check::check(&inputs, &first);
    for p in &verdict.problems {
        eprintln!("hostbench: {}: {p}", workload.name());
    }

    let mut setups: Vec<f64> = Vec::new();
    if workload.is_serve() {
        for _ in 0..SERVE_SETUPS_FIRST {
            setups.push(inputs.serve_build_secs());
        }
    }

    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let (mut attempted, mut failed, mut served) = (0u64, 0u64, 0u64);
    // Stop before a pass that would overrun `seconds`, so a run's
    // length stays close to what was asked for.
    let start = Instant::now();
    let mut last_wall = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() + last_wall <= seconds {
        let pass = inputs.run(&Rung::FULL);
        last_wall = pass.wall_s;
        let ok = verdict.ok() && verdict.matches(&pass);
        attempted += pass.ops;
        if ok {
            served += pass.served;
        } else {
            failed += pass.ops;
        }
        if workload.is_serve() {
            for _ in 0..SERVE_SETUPS_PER_PASS {
                setups.push(inputs.serve_build_secs());
            }
        } else {
            setups.push(pass.setup_s);
        }
        passes.push((pass, ok));
    }
    // A serve pass builds and boots its machine inside the one public
    // call; its measured phase is its wall minus the run's median
    // set-up.
    let build = median(&setups);
    let passes: Vec<PassSample> = passes
        .iter()
        .map(|(pass, ok)| PassSample::of(pass, build, *ok))
        .collect();

    let col = |f: fn(&PassSample) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let mips = col(|p| p.steps as f64 / p.measured_s / 1e6);
    let ops = col(|p| p.served as f64 / p.measured_s);
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups)),
        Metric::new("guest_mips", "Minst/s", median(&mips)),
        Metric::new("ops_per_s", "1/s", median(&ops)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new("served_share", "ratio", served as f64 / attempted as f64),
    ];
    let doc = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::U64(seed)),
        ("inputs", inputs_json(&inputs)),
        ("check", verdict_json(&verdict)),
        ("accuracy", check::accuracy_json(&inputs, &first)),
        ("passes", Json::U64(passes.len() as u64)),
        ("setup_s", spread_json(&setups)),
        ("guest_mips", spread_json(&mips)),
        ("ops_per_s", spread_json(&ops)),
        (
            "pass_wall_s",
            Json::arr(passes.iter().map(|p| Json::F64(p.wall_s))),
        ),
    ]);
    Run {
        metrics,
        correct: verdict.ok() && failed == 0,
        attempted,
        failed,
        doc,
    }
}

/// What the end-to-end metrics need from one measured pass.
struct PassSample {
    steps: u64,
    served: u64,
    wall_s: f64,
    /// Wall seconds of the measured phase: stepping plus everything the
    /// harness does per request (checkpoints, restores, oracle forks),
    /// set-up excluded.
    measured_s: f64,
}

impl PassSample {
    fn of(pass: &Pass, build_s: f64, ok: bool) -> PassSample {
        let measured_s = if pass.apps.is_empty() {
            (pass.wall_s - build_s).max(f64::MIN_POSITIVE)
        } else {
            pass.drain_s()
        };
        PassSample {
            steps: pass.steps,
            served: if ok { pass.served } else { 0 },
            wall_s: pass.wall_s,
            measured_s,
        }
    }
}

/// Peak resident set of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Median and quartiles of per-pass samples, with the samples.
pub fn spread_json(xs: &[f64]) -> Json {
    let (q1, q2, q3) = quartiles(xs);
    Json::obj([
        ("median", Json::F64(q2)),
        ("q1", Json::F64(q1)),
        ("q3", Json::F64(q3)),
        ("samples", Json::arr(xs.iter().map(|&x| Json::F64(x)))),
    ])
}

/// The generated inputs, as the document records them.
pub fn inputs_json(inputs: &Inputs) -> Json {
    match &inputs.serve {
        Some((cfg, hooks)) => Json::obj([
            ("tenants", Json::U64(cfg.tenants as u64)),
            ("requests", Json::U64(cfg.requests)),
            ("harts", Json::U64(cfg.harts as u64)),
            ("serve_seed", Json::U64(cfg.seed)),
            ("mean_gap", Json::U64(cfg.mean_gap)),
            ("quantum", Json::U64(cfg.quantum)),
            ("flush_every", Json::U64(cfg.flush_every)),
            ("rotate_every", Json::U64(cfg.rotate_every)),
            ("jit", Json::Bool(cfg.jit)),
            ("self_heal", Json::Bool(cfg.self_heal)),
            ("checkpoint_every", Json::U64(cfg.checkpoint_every)),
            ("request_fault_ppm", Json::U64(cfg.request_fault_ppm)),
            ("oracle_every", Json::U64(hooks.oracle_every)),
        ]),
        None => Json::obj(
            inputs
                .apps
                .iter()
                .map(|(app, p)| (app.name(), Json::U64(p.scale))),
        ),
    }
}

/// The correctness verdict, as the document records it.
pub fn verdict_json(v: &Verdict) -> Json {
    Json::obj([
        ("correct", Json::Bool(v.ok())),
        ("reference", Json::Str(v.reference.name().into())),
        (
            "expected",
            Json::obj(v.expected.iter().map(|(k, x)| (k.clone(), Json::U64(*x)))),
        ),
        (
            "problems",
            Json::arr(v.problems.iter().map(|p| Json::Str(p.clone()))),
        ),
    ])
}
