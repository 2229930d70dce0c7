//! `BENCHMARK.json` must list exactly the metrics the benchmark prints.

use hostbench::report::{per_layer_names, END_TO_END};
use isa_obs::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside hostbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let spec = spec();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(listed(&spec, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&spec, "per_layer"), layers);
    let better: Vec<String> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            m.get("better")
                .and_then(Json::as_str)
                .expect("better")
                .to_string()
        })
        .collect();
    let want: Vec<String> = END_TO_END.iter().map(|m| m.better.to_string()).collect();
    assert_eq!(better, want);
}
