//! The three workloads: generated inputs, one timed pass through the
//! public entry points, and the simulated outputs that pass produces.
//!
//! Every host time here comes from the benchmark's own [`Instant`]
//! around a public call. `ServeOutcome::host_secs` and
//! `Completion::host_secs` are never read on this path.

use std::time::Instant;

use isa_grid::PcuConfig;
use isa_grid_bench::serve::{self, ServeConfig, ServeHooks, ServeRun, TraceMode};
use isa_obs::Counters;
use simkernel::{KernelConfig, Platform, Session, SimBuilder};
use workloads::{App, AppParams};

/// Step budget for one app run; the suite's longest run needs ~6M.
const APP_MAX_STEPS: u64 = 2_000_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop serve below capacity: the request hot path.
    ServeSteady,
    /// Self-healing serve under seeded request faults, with
    /// checkpoints and the differential oracle.
    ServeRecover,
    /// The Figure-6 apps under the native and decomposed kernels on
    /// the Rocket timing platform.
    KernelApps,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSteady,
        Workload::ServeRecover,
        Workload::KernelApps,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve-steady",
            Workload::ServeRecover => "serve-recover",
            Workload::KernelApps => "kernel-apps",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the serving harness.
    pub fn is_serve(self) -> bool {
        self != Workload::KernelApps
    }

    /// Per-workload tag mixed into the seed, so one `--seed` gives the
    /// workloads unrelated streams.
    fn tag(self) -> u64 {
        match self {
            Workload::ServeSteady => 0x5354_4541_4459,
            Workload::ServeRecover => 0x5245_434f_5645,
            Workload::KernelApps => 0x4150_5053,
        }
    }
}

/// How much work one pass does. [`Size::FULL`] is the benchmark; the
/// smaller sizes keep the benchmark's own tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Requests per `serve-steady` pass.
    pub steady_requests: u64,
    /// Requests per `serve-recover` pass.
    pub recover_requests: u64,
    /// Divisor applied to every app's Figure-6 scale.
    pub app_scale_div: u64,
    /// Samples per per-call timing in the traced run.
    pub samples: usize,
    /// Rounds of the traced run's layer ladder.
    pub rounds: usize,
}

impl Size {
    /// The benchmark's run length.
    pub const FULL: Size = Size {
        steady_requests: 100_000,
        recover_requests: 20_000,
        app_scale_div: 1,
        samples: 31,
        rounds: 3,
    };

    /// A size for unit tests in unoptimized builds.
    pub const TINY: Size = Size {
        steady_requests: 600,
        recover_requests: 3_000,
        app_scale_div: 64,
        samples: 3,
        rounds: 1,
    };
}

/// One configuration of the simulator's switchable layers (a rung of
/// the layer ladder). [`Rung::FULL`] is what the end-to-end metrics
/// measure; every other rung switches one layer off through a public
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Short name used in the report.
    pub name: &'static str,
    /// Superblock JIT (`ServeConfig::jit`, `SimBuilder::jit`).
    pub jit: bool,
    /// Basic-block cache (`SimBuilder::bbcache`; serve has no switch).
    pub bbcache: bool,
    /// Rocket timing retire (`Platform::Rocket` vs `Functional`; serve
    /// always runs `NullTiming`).
    pub timing: bool,
    /// Request tracing at `TraceMode::Full` (serve only).
    pub trace_full: bool,
    /// Seeded request faults (`serve-recover` only).
    pub faults: bool,
    /// Periodic checkpoints (`serve-recover` only).
    pub checkpoints: bool,
    /// Differential oracle (`serve-recover` only).
    pub oracle: bool,
}

impl Rung {
    /// Every layer on: the configuration end-to-end metrics measure.
    pub const FULL: Rung = Rung {
        name: "full",
        jit: true,
        bbcache: true,
        timing: true,
        trace_full: false,
        faults: true,
        checkpoints: true,
        oracle: true,
    };

    /// The JIT switched off: the correctness reference, and the ladder
    /// rung that prices the JIT.
    pub const NO_JIT: Rung = Rung {
        name: "no-jit",
        jit: false,
        ..Rung::FULL
    };
}

/// The generated inputs of one workload for one seed. The program only
/// ever sees these values, never the seed that produced them.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The benchmark seed the inputs came from.
    pub seed: u64,
    /// The run length they were generated at.
    pub size: Size,
    /// Serve configuration (serve workloads).
    pub serve: Option<(ServeConfig, ServeHooks)>,
    /// App programs and their parameters (`kernel-apps`).
    pub apps: Vec<(App, AppParams)>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Inputs {
        let s = splitmix64(seed ^ workload.tag());
        let mut inputs = Inputs {
            workload,
            seed,
            size,
            serve: None,
            apps: Vec::new(),
        };
        match workload {
            Workload::ServeSteady => {
                let mut cfg = ServeConfig::new(16, size.steady_requests, 2, s);
                cfg.mean_gap = 512;
                inputs.serve = Some((cfg, ServeHooks::default()));
            }
            Workload::ServeRecover => {
                let mut cfg = ServeConfig::new(32, size.recover_requests, 2, s);
                cfg.mean_gap = 512;
                cfg.self_heal = true;
                cfg.checkpoint_every = 512;
                cfg.request_fault_ppm = 300;
                let hooks = ServeHooks {
                    oracle_every: 2048,
                    ..ServeHooks::default()
                };
                inputs.serve = Some((cfg, hooks));
            }
            Workload::KernelApps => {
                // Each app's scale is drawn from the top eighth below
                // its Figure-6 value: distinct inputs per seed, nearly
                // equal work.
                for (i, app) in App::ALL.into_iter().enumerate() {
                    let mut p = app.bench_params();
                    let full = p.scale / size.app_scale_div;
                    let span = (full / 8).max(1);
                    p.scale = (full - splitmix64(s.wrapping_add(i as u64)) % span).max(8);
                    inputs.apps.push((app, p));
                }
            }
        }
        inputs
    }

    /// The serve configuration and hooks of `rung`.
    pub fn serve_for(&self, rung: &Rung) -> (ServeConfig, ServeHooks) {
        let (mut cfg, mut hooks) = self.serve.clone().expect("serve workload");
        cfg.jit = rung.jit;
        if rung.trace_full {
            cfg.trace = TraceMode::Full;
        }
        if !rung.faults {
            cfg.request_fault_ppm = 0;
        }
        if !rung.checkpoints {
            cfg.checkpoint_every = 0;
        }
        if !rung.oracle {
            hooks.oracle_every = 0;
        }
        (cfg, hooks)
    }

    /// Time one zero-request serve run of this workload's config: the
    /// machine build, PCU tables and boot to the dispatchers.
    pub fn serve_build_secs(&self) -> f64 {
        let (mut cfg, _) = self.serve_for(&Rung::FULL);
        cfg.requests = 0;
        let t = Instant::now();
        let o = serve::run(&cfg);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(o.completed, 0, "a zero-request run completed work");
        secs
    }

    /// One full pass of the workload on `rung`.
    pub fn run(&self, rung: &Rung) -> Pass {
        if self.workload.is_serve() {
            self.run_serve(rung)
        } else {
            self.run_apps(rung)
        }
    }

    fn run_serve(&self, rung: &Rung) -> Pass {
        assert!(
            rung.bbcache && rung.timing,
            "serve has no bbcache or timing switch"
        );
        let (cfg, hooks) = self.serve_for(rung);
        let t = Instant::now();
        let run = if self.workload == Workload::ServeSteady {
            // The unhooked entry point; hooks are all off here.
            let outcome = serve::run(&cfg);
            ServeRun {
                outcome,
                snapshot: None,
                log: Default::default(),
                oracle_checks: 0,
                divergence: None,
            }
        } else {
            serve::run_hooked(&cfg, &hooks)
        };
        let wall = t.elapsed().as_secs_f64();
        let o = &run.outcome;
        let r = &o.recovery;
        let outputs = vec![
            ("digest".to_string(), o.digest),
            ("decision_digest".to_string(), r.decision_digest),
            ("completed".to_string(), o.completed),
            ("denied".to_string(), o.denied),
            ("shed".to_string(), o.shed),
            ("aborted".to_string(), r.aborted),
            ("latency_p50".to_string(), o.latency.p50()),
            ("latency_p99".to_string(), o.latency.p99()),
            ("steps".to_string(), o.total_steps),
            (
                "divergences".to_string(),
                u64::from(run.divergence.is_some()),
            ),
        ];
        Pass {
            outputs,
            ops: cfg.requests,
            served: o.completed,
            steps: o.total_steps,
            wall_s: wall,
            setup_s: 0.0,
            counters: o.counters,
            serve: Some(run),
            apps: Vec::new(),
        }
    }

    fn run_apps(&self, rung: &Rung) -> Pass {
        assert!(
            !rung.trace_full && rung.faults && rung.checkpoints && rung.oracle,
            "kernel-apps has no tracing, fault, checkpoint or oracle switch"
        );
        let platform = if rung.timing {
            Platform::Rocket
        } else {
            Platform::Functional
        };
        let start = Instant::now();
        let mut pass = Pass {
            outputs: Vec::new(),
            ops: 0,
            served: 0,
            steps: 0,
            wall_s: 0.0,
            setup_s: 0.0,
            counters: Counters::default(),
            serve: None,
            apps: Vec::new(),
        };
        for &(app, p) in &self.apps {
            let t = Instant::now();
            let prog = app.program(p);
            let asm_s = t.elapsed().as_secs_f64();
            for (kname, kernel) in [
                ("native", KernelConfig::native()),
                ("decomposed", KernelConfig::decomposed()),
            ] {
                let t = Instant::now();
                let sim = SimBuilder::new(kernel)
                    .platform(platform)
                    .pcu(PcuConfig::eight_e())
                    .bbcache(rung.bbcache)
                    .jit(rung.jit)
                    .boot(&prog, None);
                let boot_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let done = Session::new(sim).drain(APP_MAX_STEPS);
                let drain_s = t.elapsed().as_secs_f64();
                let name = format!("{}/{kname}", app.name());
                pass.ops += 1;
                let (cycles, steps) = match done {
                    Ok(c) => {
                        if c.exit_code == 0 && c.audit.is_empty() {
                            pass.served += 1;
                        }
                        pass.steps += c.steps;
                        pass.counters.merge(&c.counters);
                        let cycles = c.reported.first().copied().unwrap_or(u64::MAX);
                        (cycles, c.steps)
                    }
                    // A hung run has no outputs; the check sees MAX.
                    Err(_) => (u64::MAX, u64::MAX),
                };
                pass.outputs.push((format!("{name}.cycles"), cycles));
                pass.outputs.push((format!("{name}.steps"), steps));
                pass.apps.push(AppRun {
                    name,
                    asm_s: if kname == "native" { asm_s } else { 0.0 },
                    boot_s,
                    drain_s,
                    cycles,
                });
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.setup_s = pass.apps.iter().map(|a| a.asm_s + a.boot_s).sum();
        pass
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The simulated outputs the correctness gate compares, by name.
    pub outputs: Vec<(String, u64)>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that completed: requests with a guest completion, or
    /// app runs that exited 0 with an empty audit log.
    pub served: u64,
    /// Guest instructions retired.
    pub steps: u64,
    /// Benchmark wall-clock seconds around the whole pass.
    pub wall_s: f64,
    /// Seconds of the pass spent before the first guest instruction:
    /// assembling and booting (`kernel-apps`; serve measures set-up as
    /// separate zero-request runs and leaves this 0).
    pub setup_s: f64,
    /// Machine counters of the pass (summed over app runs).
    pub counters: Counters,
    /// The serve run, for serve workloads.
    pub serve: Option<ServeRun>,
    /// Per-app-run timings, for `kernel-apps`.
    pub apps: Vec<AppRun>,
}

impl Pass {
    /// Seconds spent stepping guests: for `kernel-apps` the benchmark's
    /// own clock around every `Session::drain`.
    pub fn drain_s(&self) -> f64 {
        self.apps.iter().map(|a| a.drain_s).sum()
    }
}

/// One app run of `kernel-apps`, timed call by call.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// `app/kernel`.
    pub name: String,
    /// `App::program` seconds (charged to the native run of the app).
    pub asm_s: f64,
    /// `SimBuilder::boot` seconds.
    pub boot_s: f64,
    /// `Session::drain` seconds.
    pub drain_s: f64,
    /// Modeled cycles the guest reported for its measured region.
    pub cycles: u64,
}

/// SplitMix64: decorrelates the benchmark seed from the program's own
/// generators.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
