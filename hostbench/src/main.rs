//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! measures one workload and prints its run document followed by the
//! one-line result.
//!
//! `hostbench record --workload <name> --seeds <a>-<b>[,<c>...]`
//! prints the `expected.json` entries of those seeds, each checked
//! against the JIT-off reference first.

use std::process::ExitCode;

use hostbench::workload::{Inputs, Rung, Size, Workload};
use hostbench::{check, e2e, golden, layers, report};
use isa_obs::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("record") {
        record(&args[1..])
    } else {
        measure(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn workload(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?;
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse()
        .map_err(|_| format!("{name}: not a number: {v:?}"))
}

fn measure(args: &[String]) -> Result<(), String> {
    let w = workload(args)?;
    let seed: u64 = number(args, "--seed")?;
    let seconds: f64 = number(args, "--seconds")?;
    let trace: u8 = number(args, "--trace")?;
    let (correct, attempted, failed, metrics, doc) = match trace {
        0 => {
            let r = e2e::run(w, seed, seconds, Size::FULL);
            (r.correct, r.attempted, r.failed, r.metrics, r.doc)
        }
        1 => {
            let t = layers::run(w, seed, Size::FULL);
            (t.correct, t.attempted, t.failed, t.metrics, t.doc)
        }
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let doc = Json::obj([("run", doc), ("metrics", report::metrics_json(&metrics))]);
    println!("{}", doc.pretty());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// Parse `a-b,c,...` into seeds.
fn seeds(spec: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let bad = || format!("--seeds: bad range {part:?}");
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                out.extend(a..=b);
            }
            None => out.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(out)
}

fn record(args: &[String]) -> Result<(), String> {
    let w = workload(args)?;
    let mut entries = Vec::new();
    for seed in seeds(flag(args, "--seeds")?)? {
        let inputs = Inputs::new(w, seed, Size::FULL);
        let pass = inputs.run(&Rung::FULL);
        let reference = inputs.run(&Rung::NO_JIT);
        if pass.outputs != reference.outputs {
            return Err(format!(
                "{} seed {seed}: JIT on and off disagree: {:?} vs {:?}",
                w.name(),
                pass.outputs,
                reference.outputs
            ));
        }
        let problems = check::invariants(&inputs, &pass);
        if !problems.is_empty() {
            return Err(format!("{} seed {seed}: {}", w.name(), problems.join("; ")));
        }
        eprintln!("hostbench: recorded {} seed {seed}", w.name());
        entries.push((seed.to_string(), golden::encode(&pass.outputs)));
    }
    println!("{}", Json::Obj(entries));
    Ok(())
}
