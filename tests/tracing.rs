//! Request-tracing contract tests (ISSUE PR 9):
//!
//! 1. **Observe-only** — the serve completion digest, virtual-time
//!    results, and every `bbcache.*` / `jit.*` counter are bit-identical
//!    with tracing off, sampled, or full: tracers never feed the timing
//!    model, the interleaver, or the digest.
//! 2. **Deterministic sampling** — the tail-sampled trace-ID sets and
//!    the exemplar IDs are a pure function of the seed, and the
//!    schedule-independent subsets (survey picks, denied requests,
//!    service-cycle exemplars) are identical across 1 and 4 harts.
//! 3. **Exemplar resolution** — the p99 latency exemplar IDs resolve to
//!    kept span trees whose child spans sum to within the request's
//!    measured latency.
//! 4. **Snapshot seam** — a run resumed from a mid-run snapshot keeps
//!    the same trees and exemplars as the unbroken run.
//! 5. **One handle, independent subscribers** — a hart's profile and
//!    request buffer share one observation handle, yet each records
//!    exactly what it records alone.

use std::collections::BTreeSet;

use isa_grid_bench::serve::{self, ServeConfig, ServeHooks, TraceMode};
use proptest::prelude::*;

/// A small config exercising rotation, flushes, and denials.
fn cfg(requests: u64, harts: usize, seed: u64, mode: TraceMode) -> ServeConfig {
    let mut c = ServeConfig::new(4, requests, harts, seed);
    c.flush_every = 16;
    c.rotate_every = 48;
    c.probe_every = 25;
    c.trace = mode;
    c.trace_survey = 16;
    c.trace_slow = 0;
    c
}

/// The kept trace-ID set of a run.
fn kept_ids(o: &serve::ServeOutcome) -> BTreeSet<u64> {
    o.trace.kept().iter().map(|t| t.id).collect()
}

#[test]
fn results_are_bit_identical_off_sampled_and_full() {
    let off = serve::run(&cfg(300, 2, 11, TraceMode::Off));
    let sampled = serve::run(&cfg(300, 2, 11, TraceMode::Sampled));
    let full = serve::run(&cfg(300, 2, 11, TraceMode::Full));

    for o in [&sampled, &full] {
        assert_eq!(off.digest, o.digest, "digest must not see tracing");
        assert_eq!(off.vcycles, o.vcycles);
        assert_eq!(off.rounds, o.rounds);
        assert_eq!(off.completed, o.completed);
        assert_eq!(off.denied, o.denied);
        assert_eq!(off.latency, o.latency);
        assert_eq!(off.total_steps, o.total_steps);
        // The machine-side counters — including the JIT's per-reason
        // deopt split — are untouched by the observe-only tracers.
        for (name, v) in off.counters.entries() {
            if name.starts_with("bbcache.") || name.starts_with("jit.") {
                assert_eq!(o.counters.get(&name), Some(v), "{name} perturbed");
            }
        }
    }
    assert_eq!(off.trace.kept().len(), 0, "mode off collects nothing");
    assert_eq!(
        full.trace.kept().len() as u64,
        full.completed + full.denied,
        "mode full keeps every tree"
    );
    assert!(
        !sampled.trace.kept().is_empty() && sampled.trace.kept().len() < full.trace.kept().len(),
        "tail sampling keeps a strict subset"
    );
}

#[test]
fn schedule_independent_sample_sets_match_across_hart_counts() {
    let one = serve::run(&cfg(300, 1, 5, TraceMode::Sampled));
    let four = serve::run(&cfg(300, 4, 5, TraceMode::Sampled));
    assert_eq!(one.digest, four.digest);

    // Denied requests are kept on both, and the denied set is fixed by
    // the workload generator, not the schedule.
    let denied = |o: &serve::ServeOutcome| -> BTreeSet<u64> {
        o.trace
            .kept()
            .iter()
            .filter(|t| t.denied)
            .map(|t| t.id)
            .collect()
    };
    assert_eq!(denied(&one), denied(&four));
    assert!(!denied(&one).is_empty(), "probes should be kept");

    // The seeded survey hashes only (seed, id): identical picks.
    let policy = cfg(300, 1, 5, TraceMode::Sampled).trace_policy();
    let survey: BTreeSet<u64> = (1..=300).filter(|id| policy.survey_hit(*id)).collect();
    assert!(!survey.is_empty());
    for o in [&one, &four] {
        let kept = kept_ids(o);
        assert!(
            survey.iter().all(|id| kept.contains(id)),
            "every survey pick must be kept"
        );
    }

    // Guest-measured service cycles exclude queueing, so the
    // service-exemplar IDs are identical across hart counts.
    assert_eq!(
        one.trace.service_exemplars.ids(),
        four.trace.service_exemplars.ids()
    );
    assert_eq!(
        one.service, four.service,
        "service histogram is schedule-free"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sampled trace sets and exemplar IDs are deterministic per seed:
    /// rerunning the same seed reproduces them bit-for-bit, and the
    /// schedule-independent subsets survive a hart-count change.
    #[test]
    fn sampled_sets_are_deterministic_per_seed(seed in any::<u64>(), requests in 60u64..160) {
        let a = serve::run(&cfg(requests, 2, seed, TraceMode::Sampled));
        let b = serve::run(&cfg(requests, 2, seed, TraceMode::Sampled));
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(kept_ids(&a), kept_ids(&b));
        prop_assert_eq!(&a.trace.latency_exemplars, &b.trace.latency_exemplars);
        prop_assert_eq!(&a.trace.service_exemplars, &b.trace.service_exemplars);
        prop_assert_eq!(a.trace.stats, b.trace.stats);

        let four = serve::run(&cfg(requests, 4, seed, TraceMode::Sampled));
        prop_assert_eq!(a.digest, four.digest);
        prop_assert_eq!(a.trace.service_exemplars.ids(), four.trace.service_exemplars.ids());
    }
}

#[test]
fn p99_exemplars_resolve_to_span_trees_within_latency() {
    let o = serve::run(&cfg(400, 4, 3, TraceMode::Sampled));
    let p99 = o.latency.p99();
    let ids = o.trace.latency_exemplars.for_value(p99);
    assert!(!ids.is_empty(), "the p99 bucket must hold exemplars");
    let mut with_segments = 0;
    for id in ids {
        let tree = o
            .trace
            .resolve(*id)
            .expect("every exemplar ID resolves to a kept tree");
        assert!(tree.end >= tree.start);
        assert!(
            tree.end - tree.start <= tree.latency,
            "the root span lies inside arrival→harvest"
        );
        let segs = tree.segments();
        let sum: u64 = segs.iter().map(|s| s.cycles()).sum();
        assert!(
            sum <= tree.latency,
            "child spans sum to within the measured latency (sum {sum}, latency {})",
            tree.latency
        );
        if !segs.is_empty() {
            with_segments += 1;
        }
    }
    assert!(with_segments > 0, "exemplar trees carry domain segments");

    // Exemplars offered to every completion also back the service view.
    let svc_ids = o.trace.service_exemplars.for_value(o.service.p99());
    for id in svc_ids {
        assert!(o.trace.resolve(*id).is_some());
    }
}

#[test]
fn trace_state_survives_snapshot_and_resume() {
    let config = cfg(240, 2, 21, TraceMode::Sampled);
    let unbroken = serve::run(&config);

    let hooks = ServeHooks {
        snapshot_at: 120,
        ..Default::default()
    };
    let first = serve::run_hooked(&config, &hooks);
    let frame = first.snapshot.expect("snapshot hook fired");
    let resumed = serve::resume_run(&frame, &ServeHooks::default())
        .expect("snapshot resumes")
        .outcome;

    assert_eq!(unbroken.digest, resumed.digest);
    assert_eq!(unbroken.vcycles, resumed.vcycles);
    assert_eq!(unbroken.latency, resumed.latency);
    assert_eq!(unbroken.service, resumed.service);
    assert_eq!(kept_ids(&unbroken), kept_ids(&resumed));
    assert_eq!(
        unbroken.trace.latency_exemplars,
        resumed.trace.latency_exemplars
    );
    assert_eq!(
        unbroken.trace.service_exemplars,
        resumed.trace.service_exemplars
    );
    assert_eq!(unbroken.trace.stats.kept, resumed.trace.stats.kept);
    assert_eq!(
        unbroken.trace.stats.events_harvested,
        resumed.trace.stats.events_harvested
    );
    // Kept trees are identical structurally, not just by ID.
    assert_eq!(unbroken.trace.kept(), resumed.trace.kept());
}

#[test]
fn deopt_reasons_and_gate_events_populate_trees() {
    let mut c = cfg(300, 2, 13, TraceMode::Full);
    c.trace_survey = 0;
    let o = serve::run(&c);

    // The per-reason registry split covers everything `jit.deopts`
    // counts (guard misses retire before dispatch, so `deopt_by` can
    // exceed the in-block deopt tally).
    let by_reason: u64 = [
        "guard",
        "trap",
        "mmio",
        "epoch",
        "interrupt",
        "timer",
        "budget",
    ]
    .iter()
    .map(|r| o.counters.get(&format!("jit.deopt.{r}")).unwrap())
    .sum();
    assert!(by_reason >= o.counters.get("jit.deopts").unwrap());
    assert_eq!(
        o.counters.get("jit.deopt.guard").unwrap(),
        o.counters.get("jit.guard_misses").unwrap(),
        "guard deopts mirror guard misses"
    );

    // Full mode keeps every tree; completed requests carry gate
    // events, denied ones carry the denial marker.
    let denied_tree = o
        .trace
        .kept()
        .iter()
        .find(|t| t.denied)
        .expect("probes produce denied trees");
    assert!(
        denied_tree
            .events
            .iter()
            .any(|(_, ev)| matches!(ev, isa_obs::ReqEvent::Deny { .. })),
        "denied tree records the PCU denial: {:?}",
        denied_tree.events
    );
    let gated = o
        .trace
        .kept()
        .iter()
        .filter(|t| {
            t.events
                .iter()
                .any(|(_, ev)| matches!(ev, isa_obs::ReqEvent::GateEnter { .. }))
        })
        .count();
    assert!(gated > 0, "completed requests record gate crossings");
    // Rotations published shootdowns; their acks landed as flow
    // endpoints with matching epochs.
    assert!(!o.trace.publishes().is_empty(), "rotations publish");
    assert!(!o.trace.acks().is_empty(), "harts acknowledge");
    let epochs: BTreeSet<u64> = o.trace.publishes().iter().map(|(e, _)| *e).collect();
    assert!(o.trace.acks().iter().any(|(e, _, _)| epochs.contains(e)));
}

#[test]
fn profile_and_request_subscribers_share_one_handle_independently() {
    // JIT off: the profile pins the interpreter, so only then do all
    // three runs take the same path.
    let run = |profile: bool, mode: TraceMode| {
        let mut c = cfg(240, 2, 17, mode);
        c.jit = false;
        c.profile = profile;
        serve::run(&c)
    };
    let prof_only = run(true, TraceMode::Off);
    let trace_only = run(false, TraceMode::Full);
    let both = run(true, TraceMode::Full);

    assert_eq!(prof_only.digest, trace_only.digest);
    assert_eq!(prof_only.digest, both.digest);
    let harts = |o: &serve::ServeOutcome| o.profiles[0].profiles.clone();
    assert_eq!(harts(&both).len(), 2);
    assert_eq!(harts(&both), harts(&prof_only), "per-hart profiles");
    assert!(!both.trace.kept().is_empty());
    assert_eq!(both.trace.kept(), trace_only.trace.kept(), "kept trees");
}
