//! The traced run: per-layer metrics and the self-time ledger.
//!
//! Layer times come from three sources, all on the benchmark's side of
//! the public API:
//!
//! - **Direct timing** around a layer's public call: `App::program`,
//!   `SimBuilder::boot`, `Session::drain`, zero-request serve runs, and
//!   the replay and oracle calls on a 2-hart machine restored from a
//!   real serve checkpoint.
//! - **The ladder**: the workload re-run with one layer switched off
//!   through a public switch. A rung must retire exactly the guest
//!   instructions of the run it is compared with, or it is rejected
//!   with a message; differences are reported per guest instruction of
//!   that base.
//! - **Counters** the machine keeps (work counts, not host time).
//!
//! The rungs run round after round, with a share of the per-call
//! samples after each round, so a slow spell of the host falls on all
//! of them alike; rungs are compared by their medians over rounds. The
//! traced pass is the full round with the median wall. Its wall is
//! split into layer self-times; whatever the layers do not explain is
//! `trace.unaccounted_share`.

use std::collections::BTreeMap;
use std::time::Instant;

use isa_grid::{Pcu, PcuConfig};
use isa_grid_bench::serve::{self, ServeHooks};
use isa_obs::Json;
use isa_replay::wire::KIND_SERVE;
use isa_replay::{
    capture_session, decode_snapshot, decode_snapshot_payload, encode_snapshot, restore_hart,
    restore_session, CheckpointRing, Dec, MachineSnapshot, SpecSmp,
};
use isa_sim::{Bus, Machine, DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use isa_smp::Smp;
use simkernel::SmpSession;

use crate::check::{self, accuracy_json};
use crate::e2e::{inputs_json, verdict_json};
use crate::report::{Metric, LAYERS};
use crate::stats::{median, Samples};
use crate::workload::{Inputs, Pass, Rung, Size, Workload};

/// The traced pass's wall split into layer self-times.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Wall seconds of the traced pass, on the benchmark's clock.
    pub wall_s: f64,
    /// `(layer, self seconds)`.
    pub parts: Vec<(&'static str, f64)>,
    /// Wall minus the sum of the parts.
    pub unaccounted_s: f64,
}

impl Ledger {
    fn new(wall_s: f64, parts: Vec<(&'static str, f64)>) -> Ledger {
        let sum: f64 = parts.iter().map(|(_, s)| s).sum();
        Ledger {
            wall_s,
            parts,
            unaccounted_s: wall_s - sum,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("wall_s", Json::F64(self.wall_s)),
            (
                "self_s",
                Json::obj(self.parts.iter().map(|(l, s)| (*l, Json::F64(*s)))),
            ),
            ("unaccounted_s", Json::F64(self.unaccounted_s)),
        ])
    }
}

/// The outcome of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric (0 where the layer is not measured on
    /// this workload).
    pub metrics: Vec<Metric>,
    /// Whether every full pass was correct.
    pub correct: bool,
    /// Operations the traced pass attempted.
    pub attempted: u64,
    /// Operations of the traced pass, if it was wrong.
    pub failed: u64,
    /// The self-time ledger.
    pub ledger: Ledger,
    /// The run document: inputs, check, ladder, per-call samples.
    pub doc: Json,
}

/// What a workload's tracer gathers before it is flattened into the
/// catalogue.
#[derive(Default)]
struct Gathered {
    values: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, Samples>,
    ladder: Vec<Json>,
}

impl Gathered {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn sample(&mut self, name: &'static str, secs: f64, scale: f64) {
        self.calls.entry(name).or_default().push(secs * scale);
    }

    fn median_of(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, Samples::median)
    }

    /// Record a ladder rung against its base and say whether the two
    /// may be compared: they must retire the same guest instructions.
    fn rung(&mut self, ladder: &Ladder, rung: &str, base: &str) -> bool {
        let (steps, base_steps) = (ladder.steps(rung), ladder.steps(base));
        let valid = steps == base_steps;
        if !valid {
            eprintln!(
                "hostbench: ladder rung {rung} rejected: it retired {steps} guest instructions, \
                 its base {base} retired {base_steps}"
            );
        }
        self.ladder.push(Json::obj([
            ("rung", Json::Str(rung.into())),
            ("base", Json::Str(base.into())),
            (
                "median_wall_s",
                Json::F64(ladder.median(rung, |p| p.wall_s)),
            ),
            (
                "base_median_wall_s",
                Json::F64(ladder.median(base, |p| p.wall_s)),
            ),
            ("steps", Json::U64(steps)),
            ("valid", Json::Bool(valid)),
        ]));
        valid
    }
}

/// Every rung of a ladder, run round after round so a slow spell of
/// the host falls on all rungs alike. The first rung is
/// [`Rung::FULL`].
struct Ladder {
    rungs: Vec<(&'static str, Vec<Pass>)>,
}

impl Ladder {
    /// Run every rung `rounds` times, calling `between` after each
    /// round so per-call samples are spread over the same spell.
    fn run(inputs: &Inputs, rungs: &[Rung], rounds: usize, mut between: impl FnMut()) -> Ladder {
        let mut out: Vec<(&'static str, Vec<Pass>)> =
            rungs.iter().map(|r| (r.name, Vec::new())).collect();
        for _ in 0..rounds {
            for (r, (_, passes)) in rungs.iter().zip(out.iter_mut()) {
                passes.push(inputs.run(r));
            }
            between();
        }
        Ladder { rungs: out }
    }

    fn passes(&self, rung: &str) -> &[Pass] {
        &self
            .rungs
            .iter()
            .find(|(n, _)| *n == rung)
            .expect("a rung of this ladder")
            .1
    }

    /// Guest instructions the rung retires (every round retires the
    /// same: runs are deterministic).
    fn steps(&self, rung: &str) -> u64 {
        self.passes(rung)[0].steps
    }

    /// Median of `f` over the rung's rounds.
    fn median(&self, rung: &str, f: impl Fn(&Pass) -> f64) -> f64 {
        let xs: Vec<f64> = self.passes(rung).iter().map(f).collect();
        median(&xs)
    }

    /// The rung's round with the median wall.
    fn median_pass(&self, rung: &str) -> &Pass {
        let mut passes: Vec<&Pass> = self.passes(rung).iter().collect();
        passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        passes[passes.len() / 2]
    }
}

/// Trace `workload` for `seed`.
pub fn run(workload: Workload, seed: u64, size: Size) -> Traced {
    let inputs = Inputs::new(workload, seed, size);
    let mut g = Gathered::default();
    let mut replay = (workload == Workload::ServeRecover).then(|| ReplayBench::new(&inputs));
    let per_round = size.samples.div_ceil(size.rounds);
    let ladder = Ladder::run(&inputs, &ladder_rungs(workload), size.rounds, || {
        setup_samples(&mut g, &inputs, per_round);
        if let Some(r) = replay.as_mut() {
            r.sample(&mut g, per_round);
        }
    });
    let full = ladder.passes(Rung::FULL.name);
    let verdict = check::check(&inputs, &full[0]);
    let repeated = full.iter().all(|p| verdict.matches(p));
    for p in &verdict.problems {
        eprintln!("hostbench: {}: {p}", workload.name());
    }
    if !repeated {
        eprintln!(
            "hostbench: {}: a repeated pass changed its outputs",
            workload.name()
        );
    }
    // The traced pass: the full round with the median wall.
    let pass = ladder.median_pass(Rung::FULL.name);
    counter_metrics(&mut g, pass);
    let ledger = match &replay {
        Some(r) => trace_recover(&mut g, &ladder, pass, r),
        None if workload == Workload::KernelApps => trace_apps(&mut g, &ladder, pass),
        None => trace_steady(&mut g, &ladder, pass),
    };
    for (layer, secs) in &ledger.parts {
        let name = LAYERS
            .iter()
            .map(|l| l.name)
            .find(|n| n.strip_suffix(".self_s") == Some(layer))
            .expect("every ledger part has a self-time metric");
        g.set(name, *secs);
    }
    g.set("trace.wall_s", ledger.wall_s);
    g.set(
        "trace.unaccounted_share",
        ledger.unaccounted_s / ledger.wall_s,
    );

    let mut metrics = Vec::new();
    for l in LAYERS {
        let measured = l.on.contains(&workload);
        if l.per_call {
            let s = g.calls.get(l.name).filter(|_| measured);
            let (median, (_, tail), n) =
                s.map_or((0.0, (0.0, 0.0), 0), |s| (s.median(), s.tail(), s.n()));
            metrics.push(Metric::new(l.name, l.unit, median));
            metrics.push(Metric::new(format!("{}.tail", l.name), l.unit, tail));
            metrics.push(Metric::new(format!("{}.n", l.name), "count", n as f64));
        } else {
            let v = if measured {
                g.values.get(l.name).copied().unwrap_or(0.0)
            } else {
                0.0
            };
            metrics.push(Metric::new(l.name, l.unit, v));
        }
    }
    let doc = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::U64(seed)),
        ("inputs", inputs_json(&inputs)),
        ("check", verdict_json(&verdict)),
        ("ledger", ledger.to_json()),
        ("ladder", Json::Arr(std::mem::take(&mut g.ladder))),
        ("per_call", calls_json(&g.calls)),
        (
            "per_call_resident_ram",
            replay
                .as_ref()
                .map_or(Json::Null, |r| calls_json(&r.resident_samples.calls)),
        ),
        ("accuracy", accuracy_json(&inputs, pass)),
    ]);
    let ok = verdict.ok() && repeated;
    Traced {
        metrics,
        correct: ok,
        attempted: pass.ops,
        failed: if ok { 0 } else { pass.ops },
        ledger,
        doc,
    }
}

/// Median, tail and count of every per-call timing.
fn calls_json(calls: &BTreeMap<&'static str, Samples>) -> Json {
    Json::obj(calls.iter().map(|(name, s)| {
        let (pct, tail) = s.tail();
        (
            *name,
            Json::obj([
                ("median", Json::F64(s.median())),
                ("tail", Json::F64(tail)),
                ("tail_percentile", Json::F64(pct)),
                ("n", Json::U64(s.n() as u64)),
            ]),
        )
    }))
}

/// Work counts every workload reports, from the machine's counters.
fn counter_metrics(g: &mut Gathered, pass: &Pass) {
    let c = &pass.counters;
    let steps = pass.steps.max(1) as f64;
    let per_kstep = |n: u64| n as f64 * 1000.0 / steps;
    g.set("sim.steps", pass.steps as f64);
    g.set("sim.bbcache.decode_hit_rate", c.bbcache.decode.hit_rate());
    g.set("sim.bbcache.dtlb_hit_rate", c.bbcache.dtlb.hit_rate());
    let conflicts: u64 = c.bbcache.named().iter().map(|(_, b)| b.conflicts).sum();
    g.set("sim.bbcache.conflicts", conflicts as f64);
    g.set("sim.jit.coverage", c.jit.ops as f64 / steps);
    g.set(
        "sim.jit.deopts_per_kstep",
        per_kstep(c.jit.deopt_by.iter().sum()),
    );
    g.set(
        "core.checks_per_kstep",
        per_kstep(c.checks.inst + c.checks.csr),
    );
    g.set("core.grid_cache_hit_rate", c.caches.total().hit_rate());
    g.set("core.gate_calls_per_kstep", per_kstep(c.gates.calls));
    g.set("smp.shootdowns", c.smp.shootdowns as f64);
    g.set("smp.flushed_entries", c.smp.flushed_entries as f64);
}

/// Seconds → nanoseconds per guest instruction of `steps`.
fn ns_per_step(secs: f64, steps: u64) -> f64 {
    secs * 1e9 / steps.max(1) as f64
}

/// The ladder of each workload: [`Rung::FULL`] first, then one rung
/// per public switch the workload has.
fn ladder_rungs(workload: Workload) -> Vec<Rung> {
    let checkpoints_only = Rung {
        name: "checkpoints-only",
        faults: false,
        oracle: false,
        ..Rung::FULL
    };
    match workload {
        Workload::KernelApps => vec![
            Rung::FULL,
            Rung::NO_JIT,
            Rung {
                name: "no-bbcache",
                bbcache: false,
                ..Rung::NO_JIT
            },
            Rung {
                name: "functional-timing",
                timing: false,
                ..Rung::FULL
            },
        ],
        Workload::ServeSteady => vec![
            Rung::FULL,
            Rung::NO_JIT,
            Rung {
                name: "trace-full",
                trace_full: true,
                ..Rung::FULL
            },
        ],
        // Without faults or oracle, with and without checkpoints.
        // Neither restores, so both retire the same instructions and
        // the bare rung's stepping clock is whole.
        Workload::ServeRecover => vec![
            Rung::FULL,
            checkpoints_only,
            Rung {
                name: "bare",
                checkpoints: false,
                ..checkpoints_only
            },
        ],
    }
}

fn trace_apps(g: &mut Gathered, ladder: &Ladder, pass: &Pass) -> Ledger {
    for (_, passes) in &ladder.rungs {
        for a in passes.iter().flat_map(|p| &p.apps) {
            g.sample("kernel.boot_s", a.boot_s, 1.0);
        }
    }
    let steps = pass.steps;
    let drain = |rung: &str| ladder.median(rung, Pass::drain_s);
    g.set("sim.ns_per_step", ns_per_step(drain("full"), steps));
    if g.rung(ladder, "no-jit", "full") {
        g.set(
            "sim.jit.saved_ns_per_step",
            ns_per_step(drain("no-jit") - drain("full"), steps),
        );
    }
    if g.rung(ladder, "no-bbcache", "no-jit") {
        g.set(
            "sim.bbcache.saved_ns_per_step",
            ns_per_step(drain("no-bbcache") - drain("no-jit"), steps),
        );
    }
    let mut retire_ns = 0.0;
    if g.rung(ladder, "functional-timing", "full") {
        retire_ns = ns_per_step(drain("full") - drain("functional-timing"), steps);
        g.set("timing.retire_ns_per_step", retire_ns);
    }
    let retire_s = (retire_ns * steps as f64 / 1e9).clamp(0.0, pass.drain_s());
    Ledger::new(
        pass.wall_s,
        vec![
            ("asm", pass.apps.iter().map(|a| a.asm_s).sum()),
            ("kernel", pass.apps.iter().map(|a| a.boot_s).sum()),
            ("sim", pass.drain_s() - retire_s),
            ("timing", retire_s),
        ],
    )
}

/// `n` per-call samples of the set-up: assembling the guest program(s)
/// and, for serve, a zero-request run of the workload's config.
fn setup_samples(g: &mut Gathered, inputs: &Inputs, n: usize) {
    for _ in 0..n {
        let t = Instant::now();
        if inputs.workload.is_serve() {
            std::hint::black_box(serve::guest_program());
        } else {
            for (app, p) in &inputs.apps {
                std::hint::black_box(app.program(*p));
            }
        }
        g.sample("asm.assemble_s", t.elapsed().as_secs_f64(), 1.0);
        if inputs.workload.is_serve() {
            g.sample("serve.build_s", inputs.serve_build_secs(), 1.0);
        }
    }
}

/// Stepping seconds of a restore-free serve pass. The session's
/// stepping clock restarts on every restore, so it is only read on
/// passes that never restored.
fn stepping_s(pass: &Pass) -> Option<f64> {
    let run = pass.serve.as_ref()?;
    (run.outcome.recovery.recoveries == 0).then_some(run.outcome.host_secs)
}

fn trace_steady(g: &mut Gathered, ladder: &Ladder, pass: &Pass) -> Ledger {
    let asm = g.median_of("asm.assemble_s");
    let build = g.median_of("serve.build_s");
    let steps = pass.steps;
    let wall = |rung: &str| ladder.median(rung, |p| p.wall_s);
    if g.rung(ladder, "no-jit", "full") {
        g.set(
            "sim.jit.saved_ns_per_step",
            ns_per_step(wall("no-jit") - wall("full"), steps),
        );
    }
    if g.rung(ladder, "trace-full", "full") {
        g.set(
            "obs.trace_full_overhead_share",
            (wall("trace-full") - wall("full")) / wall("full"),
        );
    }
    let stepping = stepping_s(pass).expect("serve-steady never restores");
    let host_logic = pass.wall_s - build - stepping;
    g.set("sim.ns_per_step", ns_per_step(stepping, steps));
    g.set("serve.host_logic_s", host_logic);
    g.set(
        "serve.host_logic_ns_per_req",
        host_logic * 1e9 / pass.ops as f64,
    );
    Ledger::new(
        pass.wall_s,
        vec![
            ("asm", asm),
            ("serve", build - asm + host_logic),
            ("sim", stepping),
        ],
    )
}

fn trace_recover(g: &mut Gathered, ladder: &Ladder, pass: &Pass, replay: &ReplayBench) -> Ledger {
    let asm = g.median_of("asm.assemble_s");
    let build = g.median_of("serve.build_s");
    let run = pass.serve.as_ref().expect("serve pass");
    let rec = &run.outcome.recovery;
    let (checkpoints, restores, checks) = (rec.checkpoints, rec.recoveries, run.oracle_checks);
    g.set("replay.checkpoints", checkpoints as f64);
    g.set("replay.restores", restores as f64);
    g.set("oracle.checks", checks as f64);

    let wall = |rung: &str| ladder.median(rung, |p| p.wall_s);
    if g.rung(ladder, "bare", "checkpoints-only") {
        g.set(
            "replay.checkpoint_share",
            (wall("checkpoints-only") - wall("bare")) / wall("checkpoints-only"),
        );
    }
    let bare = ladder.median_pass("bare");
    let stepping = stepping_s(bare).expect("the bare rung never restores");
    let ns_step = ns_per_step(stepping, bare.steps);
    let logic_per_req = (bare.wall_s - build - stepping) / bare.ops as f64;
    let host_logic = logic_per_req * pass.ops as f64;
    g.set("sim.ns_per_step", ns_step);
    g.set("serve.host_logic_s", host_logic);
    g.set("serve.host_logic_ns_per_req", logic_per_req * 1e9);

    let costs = replay.costs(g);
    // Checkpoints and oracle checks after the first restore run on a
    // fully resident RAM image (restores write every byte); before it,
    // on the sparse image a freshly built machine has.
    let after = rec.spans.first().map_or(0.0, |s| {
        1.0 - s.restored_progress as f64 / pass.ops.max(1) as f64
    });
    let mix = |sparse: f64, resident: f64| (1.0 - after) * sparse + after * resident;
    let per_ckpt = mix(costs.sparse.checkpoint, costs.resident.checkpoint);
    let per_check = mix(costs.sparse.oracle, costs.resident.oracle);
    let builds = 1.0 + restores as f64;
    Ledger::new(
        pass.wall_s,
        vec![
            ("asm", asm * builds),
            ("serve", (build - asm) * builds + host_logic),
            ("sim", ns_step * pass.steps as f64 / 1e9),
            (
                "replay",
                checkpoints as f64 * per_ckpt + restores as f64 * costs.restore,
            ),
            ("oracle", checks as f64 * per_check),
        ],
    )
}

/// Median seconds of one checkpoint (capture, encode, ring push) and
/// one oracle check (fork, replay one round, compare memory).
#[derive(Debug, Clone, Copy, Default)]
struct CallCosts {
    checkpoint: f64,
    oracle: f64,
}

/// Per-call costs of the replay and oracle layers, in both RAM states.
struct ReplayCosts {
    sparse: CallCosts,
    resident: CallCosts,
    /// Median seconds of one restore (decode plus restore).
    restore: f64,
}

/// The replay and oracle calls, timed on 2-hart machines holding a real
/// mid-run serve checkpoint of the workload's config.
///
/// Two machines are measured. One is built by writing only the
/// checkpoint's non-zero pages, like a serve machine that never
/// restored: most of its RAM was never touched. The other takes a real
/// restore, which writes every byte of RAM. Scanning untouched RAM is
/// cheaper than scanning resident RAM, so the two price a checkpoint
/// differently. The per-layer metrics report the first machine, except
/// decode and restore, which only the second one runs.
struct ReplayBench {
    quantum: u64,
    frame: Vec<u8>,
    sparse: SmpSession,
    resident: SmpSession,
    ring: CheckpointRing,
    /// Seconds per checkpoint and per oracle check, per sample.
    sparse_calls: (Vec<f64>, Vec<f64>),
    resident_calls: (Vec<f64>, Vec<f64>),
    /// Resident-machine samples, kept apart from the reported ones.
    resident_samples: Gathered,
}

impl ReplayBench {
    fn new(inputs: &Inputs) -> ReplayBench {
        let (mut cfg, _) = inputs.serve_for(&Rung {
            name: "snapshot",
            faults: false,
            oracle: false,
            checkpoints: false,
            ..Rung::FULL
        });
        cfg.requests = cfg.requests.min(4096);
        let hooks = ServeHooks {
            snapshot_at: cfg.requests / 2,
            ..ServeHooks::default()
        };
        let frame = serve::run_hooked(&cfg, &hooks)
            .snapshot
            .expect("the snapshot hook fired");
        let snap = serve_machine(&frame).expect("serve frames carry a machine snapshot");
        let mut sparse = smp_for(&snap, cfg.quantum);
        write_sparse(&mut sparse, &snap);
        let mut resident = smp_for(&snap, cfg.quantum);
        restore_session(&mut resident, &snap)
            .expect("a serve checkpoint restores onto serve geometry");
        ReplayBench {
            quantum: cfg.quantum,
            frame: encode_snapshot(&snap),
            sparse,
            resident,
            ring: CheckpointRing::new(4),
            sparse_calls: (Vec::new(), Vec::new()),
            resident_calls: (Vec::new(), Vec::new()),
            resident_samples: Gathered::default(),
        }
    }

    /// Take `n` more samples of every call on both machines.
    fn sample(&mut self, g: &mut Gathered, n: usize) {
        g.set("replay.frame_bytes", self.frame.len() as f64);
        for _ in 0..n {
            let (ckpt, check) = checkpoint_and_oracle(
                &mut self.sparse,
                &mut self.ring,
                self.quantum,
                |name, secs| g.sample(name, secs, 1e3),
            );
            self.sparse_calls.0.push(ckpt);
            self.sparse_calls.1.push(check);

            let t = Instant::now();
            let decoded = decode_snapshot(&self.frame);
            g.sample("replay.decode_ms", t.elapsed().as_secs_f64(), 1e3);
            let decoded = decoded.expect("a frame this run encoded decodes");
            let t = Instant::now();
            let restored = restore_session(&mut self.resident, &decoded);
            g.sample("replay.restore_ms", t.elapsed().as_secs_f64(), 1e3);
            restored.expect("a serve checkpoint restores onto serve geometry");
            let local = &mut self.resident_samples;
            let (ckpt, check) = checkpoint_and_oracle(
                &mut self.resident,
                &mut self.ring,
                self.quantum,
                |name, secs| local.sample(name, secs, 1e3),
            );
            self.resident_calls.0.push(ckpt);
            self.resident_calls.1.push(check);
        }
    }

    fn costs(&self, g: &Gathered) -> ReplayCosts {
        let per = |calls: &(Vec<f64>, Vec<f64>)| CallCosts {
            checkpoint: median(&calls.0),
            oracle: median(&calls.1),
        };
        ReplayCosts {
            sparse: per(&self.sparse_calls),
            resident: per(&self.resident_calls),
            restore: (g.median_of("replay.decode_ms") + g.median_of("replay.restore_ms")) / 1e3,
        }
    }
}

/// Time one checkpoint and one oracle check on `sess`, as serve runs
/// them, reporting every call to `sample` in seconds. Returns the
/// seconds of the checkpoint and of the check.
fn checkpoint_and_oracle(
    sess: &mut SmpSession,
    ring: &mut CheckpointRing,
    quantum: u64,
    mut sample: impl FnMut(&'static str, f64),
) -> (f64, f64) {
    let t = Instant::now();
    std::hint::black_box(sess.smp().bus().export_state());
    sample("replay.bus_export_ms", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let snap = capture_session(sess);
    let capture = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let frame = encode_snapshot(&snap);
    let encode = t.elapsed().as_secs_f64();
    let t = Instant::now();
    ring.push(sess.vclock(), sess.rounds(), frame);
    let push = t.elapsed().as_secs_f64();
    sample("replay.capture_ms", capture);
    sample("replay.encode_ms", encode);
    sample("replay.ring_push_ms", push);

    // Fork, advance the fast machine one round, replay that round on
    // the fork, compare: one oracle check.
    let t = Instant::now();
    let mut spec = SpecSmp::fork(sess.smp());
    let fork = t.elapsed().as_secs_f64();
    sess.round_all();
    let all = (1u64 << sess.smp().harts()) - 1;
    let t = Instant::now();
    spec.replay_round(all, quantum);
    let replay = t.elapsed().as_secs_f64();
    let diverged = spec.compare(sess.smp());
    let t = Instant::now();
    let diverged = diverged.or_else(|| spec.compare_memory(sess.smp()));
    let compare = t.elapsed().as_secs_f64();
    assert!(diverged.is_none(), "oracle divergence: {diverged:?}");
    sample("oracle.fork_ms", fork);
    sample("oracle.replay_round_ms", replay);
    sample("oracle.compare_memory_ms", compare);
    (capture + encode + push, fork + replay + compare)
}

/// Load `snap` into `sess` without a bus restore: write only its
/// non-zero pages, then restore every hart and the shared cells.
fn write_sparse(sess: &mut SmpSession, snap: &MachineSnapshot) {
    let bus = sess.smp().bus().clone();
    for (off, bytes) in &snap.bus.pages {
        bus.write_bytes(snap.bus.ram_base + off, bytes);
    }
    let smp = sess.smp_mut();
    smp.machine(0).ext.seal_store().import_state(&snap.seals);
    if let Some((epoch, acks)) = &snap.shoot {
        smp.shootdown().import_state(*epoch, acks);
    }
    for (h, hs) in snap.harts.iter().enumerate() {
        restore_hart(smp.machine_mut(h), hs);
    }
    sess.set_rounds(snap.rounds);
}

/// The machine image inside a serve checkpoint frame. The frame starts
/// with the serve configuration (nine words, a flag, three trace words,
/// a flag, six self-healing words) followed by the machine payload.
fn serve_machine(frame: &[u8]) -> Result<MachineSnapshot, String> {
    let mut d = Dec::open(frame, KIND_SERVE).map_err(|e| e.to_string())?;
    let skip_words = |d: &mut Dec<'_>, n: usize| -> Result<(), String> {
        for _ in 0..n {
            d.u64().map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    skip_words(&mut d, 9)?;
    d.bool().map_err(|e| e.to_string())?;
    skip_words(&mut d, 3)?;
    d.bool().map_err(|e| e.to_string())?;
    skip_words(&mut d, 6)?;
    decode_snapshot_payload(&mut d).map_err(|e| e.to_string())
}

/// A session over fresh harts with serve's geometry and PCU profile,
/// ready to take a restore of `snap`.
fn smp_for(snap: &MachineSnapshot, quantum: u64) -> SmpSession {
    let harts = snap.harts.len();
    let bus = Bus::with_harts(DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE, harts);
    let m0 = Machine::on_bus(Pcu::new(PcuConfig::eight_e()), bus.for_hart(0));
    let mut machines = vec![m0];
    for h in 1..harts {
        let pcu = machines[0].ext.mirror();
        machines.push(Machine::on_bus(pcu, bus.for_hart(h)));
    }
    for m in &mut machines {
        m.set_bbcache(true);
        m.set_jit(true);
    }
    SmpSession::new(Smp::from_machines(machines), quantum)
}
