//! Recorded simulated outputs, per workload and seed.
//!
//! `expected.json` holds, for a range of seeds, every output the
//! correctness gate compares. It is produced by `hostbench record`,
//! which also cross-checks each value against the JIT-off reference
//! before writing it. A simulator-only change must leave every
//! recorded value identical.

use isa_obs::Json;

use crate::workload::Workload;

const EXPECTED: &str = include_str!("../expected.json");

/// The recorded outputs of `workload` for `seed`, if that seed was
/// recorded.
pub fn lookup(workload: Workload, seed: u64) -> Option<Vec<(String, u64)>> {
    parse(EXPECTED, workload, seed).expect("expected.json is malformed")
}

fn parse(doc: &str, workload: Workload, seed: u64) -> Result<Option<Vec<(String, u64)>>, String> {
    let doc = Json::parse(doc)?;
    let Some(entry) = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(|w| w.get(&seed.to_string()))
    else {
        return Ok(None);
    };
    let pairs = entry.as_obj().ok_or("seed entry is not an object")?;
    pairs
        .iter()
        .map(|(k, v)| {
            let s = v.as_str().ok_or_else(|| format!("{k}: not a hex string"))?;
            let n = u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|e| format!("{k}: {e}"))?;
            Ok((k.clone(), n))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Some)
}

/// Encode one seed's outputs the way `expected.json` stores them.
pub fn encode(outputs: &[(String, u64)]) -> Json {
    Json::obj(
        outputs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(format!("{v:#x}")))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_stored_form() {
        let outputs = vec![("digest".to_string(), u64::MAX), ("steps".to_string(), 7)];
        let doc = Json::obj([(
            "workloads",
            Json::obj([("kernel-apps", Json::obj([("3", encode(&outputs))]))]),
        )])
        .to_string();
        assert_eq!(
            parse(&doc, Workload::KernelApps, 3).expect("parses"),
            Some(outputs)
        );
        assert_eq!(parse(&doc, Workload::KernelApps, 4).expect("parses"), None);
        assert_eq!(parse(&doc, Workload::ServeSteady, 3).expect("parses"), None);
    }
}
