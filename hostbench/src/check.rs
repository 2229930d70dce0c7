//! The correctness gate every run passes through before anything is
//! timed.
//!
//! A pass's simulated outputs are compared with the values recorded in
//! `expected.json` for its seed at the benchmark's run length. For a
//! seed that was never recorded, or another run length, the reference is the same inputs run with the JIT switched off, whose
//! outputs the simulator promises are bit-identical. Seed-independent
//! invariants (every request accounted for, no oracle divergence,
//! every app run exiting cleanly) are checked either way.

use isa_obs::Json;

use crate::golden;
use crate::workload::{Inputs, Pass, Rung, Size, Workload};

/// Where the expected outputs came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// `expected.json` recorded this seed.
    Recorded,
    /// Not recorded: the JIT-off run of the same inputs.
    JitOff,
}

impl Reference {
    /// Name used in the run document.
    pub fn name(self) -> &'static str {
        match self {
            Reference::Recorded => "recorded",
            Reference::JitOff => "jit-off reference run",
        }
    }
}

/// The verdict on one pass.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Expected outputs, sorted by name.
    pub expected: Vec<(String, u64)>,
    /// Where they came from.
    pub reference: Reference,
    /// Every mismatch or broken invariant, as a message.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether the pass was correct.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Compare a later pass of the same inputs against the expectation
    /// (passes are deterministic, so every one must match).
    pub fn matches(&self, pass: &Pass) -> bool {
        sorted(&pass.outputs) == self.expected
    }
}

fn sorted(outputs: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut v = outputs.to_vec();
    v.sort();
    v
}

/// Check `pass`, the first pass over `inputs`.
pub fn check(inputs: &Inputs, pass: &Pass) -> Verdict {
    let recorded = if inputs.size == Size::FULL {
        golden::lookup(inputs.workload, inputs.seed)
    } else {
        None
    };
    let (expected, reference) = match recorded {
        Some(v) => (sorted(&v), Reference::Recorded),
        None => (
            sorted(&inputs.run(&Rung::NO_JIT).outputs),
            Reference::JitOff,
        ),
    };
    let got = sorted(&pass.outputs);
    let mut problems = Vec::new();
    for (name, want) in &expected {
        match got.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v == want => {}
            Some((_, v)) => problems.push(format!("{name} = {v:#x}, expected {want:#x}")),
            None => problems.push(format!("{name} missing")),
        }
    }
    for (name, _) in &got {
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("{name} has no expected value"));
        }
    }
    problems.extend(invariants(inputs, pass));
    Verdict {
        expected,
        reference,
        problems,
    }
}

/// Seed-independent properties of a correct pass.
pub fn invariants(inputs: &Inputs, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    let get = |k: &str| {
        pass.outputs
            .iter()
            .find(|(n, _)| n == k)
            .map_or(u64::MAX, |(_, v)| *v)
    };
    match inputs.workload {
        Workload::ServeSteady => {
            if get("completed") != pass.ops {
                problems.push(format!(
                    "serve-steady completed {} of {} requests",
                    get("completed"),
                    pass.ops
                ));
            }
        }
        Workload::ServeRecover => {
            let resolved = get("completed") + get("denied") + get("shed") + get("aborted");
            if resolved != pass.ops {
                problems.push(format!("{resolved} of {} requests resolved", pass.ops));
            }
            if get("aborted") != 0 {
                problems.push(format!("{} requests aborted by a stall", get("aborted")));
            }
            let checks = pass.serve.as_ref().map_or(0, |r| r.oracle_checks);
            if checks == 0 {
                problems.push("the differential oracle never ran".into());
            }
        }
        Workload::KernelApps => {
            if pass.served != pass.ops {
                problems.push(format!(
                    "{} of {} app runs exited 0 with a clean audit log",
                    pass.served, pass.ops
                ));
            }
        }
    }
    if inputs.workload.is_serve() && get("divergences") != 0 {
        problems.push("the differential oracle found a divergence".into());
    }
    problems
}

/// `kernel-apps`: each app's modeled normalized time (decomposed over
/// native) beside the value EXPERIMENTS.md records for Figure 6 and the
/// paper's bound. A record of accuracy, not a timed metric.
pub fn accuracy_json(inputs: &Inputs, pass: &Pass) -> Json {
    if inputs.workload != Workload::KernelApps {
        return Json::Null;
    }
    const RECORDED: [(&str, f64); 4] = [
        ("sqlite", 0.9998),
        ("mbedtls", 1.0001),
        ("gzip", 1.0000),
        ("tar", 0.9996),
    ];
    let cycles = |name: String| {
        pass.apps
            .iter()
            .find(|a| a.name == name)
            .map_or(0.0, |a| a.cycles as f64)
    };
    let norms: Vec<f64> = RECORDED
        .iter()
        .map(|(app, _)| cycles(format!("{app}/decomposed")) / cycles(format!("{app}/native")))
        .collect();
    let mut rows: Vec<(String, Json)> = RECORDED
        .iter()
        .zip(&norms)
        .map(|((app, recorded), &norm)| {
            (
                app.to_string(),
                Json::obj([
                    ("normalized", Json::F64(norm)),
                    ("experiments_md", Json::F64(*recorded)),
                    ("paper", Json::Str("< 1% overhead".into())),
                    ("within_paper_bound", Json::Bool(norm < 1.01)),
                ]),
            )
        })
        .collect();
    let geomean = (norms.iter().map(|n| n.ln()).sum::<f64>() / norms.len() as f64).exp();
    rows.push((
        "geomean".into(),
        Json::obj([
            ("normalized", Json::F64(geomean)),
            ("experiments_md", Json::F64(0.9999)),
        ]),
    ));
    Json::Obj(rows)
}
