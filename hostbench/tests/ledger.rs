//! The traced run's self-time ledger must account for its whole wall.

use hostbench::layers;
use hostbench::report::Metric;
use hostbench::workload::{Size, Workload};

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn self_times_plus_unaccounted_equal_the_traced_wall() {
    for w in Workload::ALL {
        let t = layers::run(w, 3, Size::TINY);
        assert!(t.correct, "{}: the traced pass failed its check", w.name());
        let wall = t.ledger.wall_s;
        assert!(wall > 0.0);
        let parts: f64 = t.ledger.parts.iter().map(|(_, s)| s).sum();
        assert!(
            (parts + t.ledger.unaccounted_s - wall).abs() <= 1e-9 * wall,
            "{}: ledger parts {parts} + unaccounted {} != wall {wall}",
            w.name(),
            t.ledger.unaccounted_s
        );
        // The same identity, read back from the reported metrics.
        let selfs: f64 = t
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".self_s"))
            .map(|m| m.value)
            .sum();
        let reported_wall = value(&t.metrics, "trace.wall_s");
        let unaccounted = value(&t.metrics, "trace.unaccounted_share") * reported_wall;
        assert!(
            (selfs + unaccounted - reported_wall).abs() <= 1e-9 * reported_wall,
            "{}: reported self-times {selfs} + unaccounted {unaccounted} != wall {reported_wall}",
            w.name()
        );
        // The timing retire is priced only where a timing model runs.
        let retire = value(&t.metrics, "timing.retire_ns_per_step");
        if w == Workload::KernelApps {
            assert!(retire > 0.0, "kernel-apps retire cost {retire}");
        } else {
            assert_eq!(retire, 0.0, "{} has no timing model", w.name());
        }
    }
}
