//! # isa-obs — the observability spine of the ISA-Grid reproduction
//!
//! Every evaluation artifact of the paper (§7, Fig. 5–8, Tables 4–6) is
//! built on counting things: privilege-check verdicts, HPT/SGT cache
//! hits, gate switches, cycle attribution. This crate is the single
//! substrate those counts flow through:
//!
//! * [`Obs`] — the one observation seam: a cloneable per-hart handle
//!   with an inline enable mask over three subscribers (event ring,
//!   profile, request buffer), shared by the simulator and the PCU.
//! * [`TraceEvent`] — a structured event taxonomy (retire, check
//!   verdict, cache hit/miss/flush, gate call/return, domain switch,
//!   trap, trusted-memory fence) recorded into a bounded [`EventRing`].
//! * [`Counters`] — one snapshot struct subsuming the cache / check /
//!   gate / timing / run tallies that previously lived in four ad-hoc
//!   types; [`Counters::entries`] flattens it into a registry of
//!   dotted-name counters.
//! * [`Json`] / [`ToJson`] — a tiny dependency-free JSON encoder (and
//!   parser, for reading saved profiles back) so run reports and bench
//!   tables can be emitted machine-readable (the environment cannot
//!   fetch serde, so this is hand-rolled).
//! * [`Profile`] — the profiling layer: log-bucketed
//!   [`Histogram`]s, [`Span`] timelines, a [`TimeSeries`] recorder, and
//!   per-hart cycle attribution by (domain, privilege level), plus the
//!   [`AuditLog`] of denied checks the PCU keeps and the
//!   [`ProfileReport`] Perfetto `trace_event` exporter.

#![warn(missing_docs)]

mod counters;
mod event;
mod json;
mod obs;
mod perfetto;
mod prof;
mod ring;
mod trace;

pub use counters::{
    BbCounters, CacheBank, CacheCounters, CheckCounters, Counters, GateCounters, JitCounters,
    RunCounters, SmpCounters, TimingCounters,
};
pub use event::{CacheKind, CheckKind, TimedEvent, TraceEvent};
pub use json::{Json, ToJson};
pub use obs::Obs;
pub use perfetto::{ProfileReport, RunProfile, TraceReport};
pub use prof::{
    AuditKind, AuditLog, AuditRecord, DomainCycles, Histogram, OpClass, Profile, Span, SpanKind,
    StepClass, StepSample, TimeSeries, AUDIT_CAP,
};
pub use ring::EventRing;
pub use trace::{
    DeoptReason, Exemplars, HartEvent, ReqEvent, ReqTrace, Segment, TelemetryStats, TraceCollector,
    TraceId, TraceMode, TracePolicy,
};
